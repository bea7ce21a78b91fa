package rdf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// dictTerms covers all three kinds, values shared across kinds, and
// literals whose bytes look like another kind's markers.
var dictTerms = []Term{
	NewIRI("http://example.org/a"),
	NewLiteral("hello"),
	NewBlank("b0"),
	NewIRI("hello"), // same value, different kind than the literal
	NewLiteral(`say "hi"`),
	NewLiteral("a>b"),
	NewLiteral("_:b0"),
	NewLiteral("<http://example.org/a>"),
	NewIRI(""),
	NewLiteral(""),
	NewBlank(""),
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	ids := make([]TermID, len(dictTerms))
	for i, tm := range dictTerms {
		ids[i] = d.Encode(tm)
		if ids[i] != TermID(i+1) {
			t.Errorf("Encode(%v) = %d, want the dense id %d", tm, ids[i], i+1)
		}
	}
	for i, tm := range dictTerms {
		if got := d.Term(ids[i]); got != tm {
			t.Errorf("Term(%d) = %v, want %v", ids[i], got, tm)
		}
		if got := d.Rendered(ids[i]); got != tm.String() || got != d.Term(ids[i]).String() {
			t.Errorf("Rendered(%d) = %q, want %q", ids[i], got, tm.String())
		}
		id, ok := d.Lookup(tm)
		if !ok || id != ids[i] {
			t.Errorf("Lookup(%v) = %d,%v want %d,true", tm, id, ok, ids[i])
		}
		if again := d.Encode(tm); again != ids[i] {
			t.Errorf("re-Encode(%v) = %d, want %d", tm, again, ids[i])
		}
	}
	if d.Len() != len(dictTerms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(dictTerms))
	}
}

func TestDictKindsDisjoint(t *testing.T) {
	d := NewDict()
	a := d.Encode(NewIRI("x"))
	b := d.Encode(NewLiteral("x"))
	c := d.Encode(NewBlank("x"))
	if a == b || b == c || a == c {
		t.Errorf("IDs for iri/literal/blank %q collide: %d %d %d", "x", a, b, c)
	}
}

func TestDictStableReencode(t *testing.T) {
	d := NewDict()
	f := func(s string) bool {
		return d.Encode(NewIRI(s)) == d.Encode(NewIRI(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictLookupMissing(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup(NewIRI("nope")); ok {
		t.Error("Lookup of unseen term reported ok")
	}
}

func TestDictTermPanicsOnBadID(t *testing.T) {
	d := NewDict()
	d.EncodeIRI("only")
	for _, id := range []TermID{NoTerm, 2, ^TermID(0)} {
		for name, resolve := range map[string]func(TermID){
			"Term":     func(id TermID) { d.Term(id) },
			"Rendered": func(id TermID) { d.Rendered(id) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, id)
					}
				}()
				resolve(id)
			}()
		}
	}
}

// TestDictRejectsUnknownKind: a Term whose Kind is none of the three
// has no rendered form of its own (its bare Value would alias whatever
// term it spells), so Install refuses it with a typed error, Lookup
// never finds it and Encode — reachable only past the doors that
// return that error — panics with it.
func TestDictRejectsUnknownKind(t *testing.T) {
	d := NewDict()
	iri := d.EncodeIRI("x")
	bad := Term{Kind: 9, Value: "<x>"}
	var ke *KindError
	if err := bad.Check(); !errors.As(err, &ke) || ke.Term != bad {
		t.Errorf("Check(%v) = %v, want a KindError naming the term", bad, err)
	}
	for _, id := range []TermID{iri, TermID(d.Len() + 1)} {
		if err := d.Install(id, bad); !errors.As(err, &ke) {
			t.Errorf("Install(%d, %v) = %v, want a KindError", id, bad, err)
		}
	}
	if id, ok := d.Lookup(bad); ok {
		t.Errorf("Lookup(%v) found id %d (the IRI it spells is %d)", bad, id, iri)
	}
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.As(err, &ke) {
				t.Errorf("Encode(%v) panicked with %v, want a KindError", bad, err)
			}
		}()
		d.Encode(bad)
	}()
	if d.Len() != 1 {
		t.Errorf("Len = %d after refused terms, want 1", d.Len())
	}
	for _, good := range dictTerms {
		if err := good.Check(); err != nil {
			t.Errorf("Check(%v) = %v", good, err)
		}
	}
}

// manyTerms returns n distinct terms cycling through the three kinds.
func manyTerms(n int) []Term {
	out := make([]Term, n)
	for i := range out {
		v := fmt.Sprintf("http://example.org/term/%d", i)
		out[i] = Term{Kind: TermKind(i % 3), Value: v}
	}
	return out
}

func TestDictInstall(t *testing.T) {
	d := NewDict()
	terms := manyTerms(chunkLen + 10) // the dense run crosses a chunk boundary
	for i, tm := range terms {
		if err := d.Install(TermID(i+1), tm); err != nil {
			t.Fatalf("Install(%d): %v", i+1, err)
		}
	}
	// Idempotent over what is already there, on both sides of the boundary.
	for _, i := range []int{0, chunkLen - 1, chunkLen, len(terms) - 1} {
		if err := d.Install(TermID(i+1), terms[i]); err != nil {
			t.Errorf("re-Install(%d): %v", i+1, err)
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
	for i, tm := range terms {
		if got := d.Term(TermID(i + 1)); got != tm {
			t.Fatalf("Term(%d) = %v, want %v", i+1, got, tm)
		}
		if id, ok := d.Lookup(tm); !ok || id != TermID(i+1) {
			t.Fatalf("Lookup(%v) = %d,%v want %d,true", tm, id, ok, i+1)
		}
	}
	next := TermID(len(terms) + 1)
	for name, tc := range map[string]struct {
		id TermID
		t  Term
	}{
		"reserved id":   {NoTerm, NewIRI("z")},
		"gap":           {next + 1, NewIRI("z")},
		"value differs": {3, NewIRI("z")},
		"kind differs":  {1, Term{Kind: Literal, Value: terms[0].Value}},
	} {
		if err := d.Install(tc.id, tc.t); err == nil {
			t.Errorf("%s: Install(%d, %v) succeeded", name, tc.id, tc.t)
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d after refused installs, want %d", d.Len(), len(terms))
	}
	if id := d.Encode(NewIRI("z")); id != next {
		t.Errorf("Encode after Install = %d, want the next free id %d", id, next)
	}
}

func TestDictTermsAfter(t *testing.T) {
	d := NewDict()
	terms := manyTerms(2*chunkLen + 5)
	for _, tm := range terms {
		d.Encode(tm)
	}
	for _, after := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, len(terms) - 1} {
		got := d.TermsAfter(TermID(after))
		if !reflect.DeepEqual(got, terms[after:]) {
			t.Errorf("TermsAfter(%d): %d terms starting %v, want %d starting %v",
				after, len(got), got[0], len(terms)-after, terms[after])
		}
	}
	for _, after := range []int{len(terms), len(terms) + 1} {
		if got := d.TermsAfter(TermID(after)); got != nil {
			t.Errorf("TermsAfter(%d) = %d terms, want none", after, len(got))
		}
	}
}

// TestDictLookupDoesNotAllocate pins the probe: the key is rendered
// into a stack buffer, so neither a hit nor a miss allocates (the IRI
// is longer than the 32 bytes the runtime would have concatenated on
// the stack anyway).
func TestDictLookupDoesNotAllocate(t *testing.T) {
	d := NewDict()
	present := NewIRI("http://www.Department0.University0.edu/GraduateStudent42")
	absent := NewIRI("http://www.Department0.University0.edu/GraduateStudent43")
	want := d.Encode(present)
	if n := testing.AllocsPerRun(100, func() {
		if id, ok := d.Lookup(present); !ok || id != want {
			t.Errorf("Lookup(present) = %d,%v", id, ok)
		}
		if id := d.Encode(present); id != want {
			t.Errorf("Encode(present) = %d", id)
		}
	}); n != 0 {
		t.Errorf("Lookup + Encode of a present term: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := d.Lookup(absent); ok {
			t.Error("Lookup(absent) reported ok")
		}
	}); n != 0 {
		t.Errorf("Lookup of an absent term: %v allocs, want 0", n)
	}
}

// TestDictConcurrentGrowth runs writers encoding fresh terms across
// several chunk growths and page boundaries, a term longer than a page
// every thousand, beside readers that resolve, without a lock, every id
// a writer has handed them. Meaningful under -race.
func TestDictConcurrentGrowth(t *testing.T) {
	const writers, readers = 2, 2
	per := 2*chunkLen + 100 // per writer: the chunks grow ~4 times in all
	long := strings.Repeat("L", pageLen)
	d := NewDict()
	type handed struct {
		id TermID
		t  Term
	}
	ch := make(chan handed, 64) // lets writers run a little ahead of readers
	var ww, rw sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				tm := Term{Kind: TermKind(i % 3), Value: fmt.Sprintf("http://example.org/w%d/%d", w, i)}
				if i%1000 == 999 {
					tm.Value += long[:pageLen-i/1000] // a page of its own, or nearly a whole one
				}
				ch <- handed{d.Encode(tm), tm}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rw.Add(1)
		go func() {
			defer rw.Done()
			for h := range ch {
				if got := d.Term(h.id); got != h.t {
					t.Errorf("Term(%d) = %v, want %v", h.id, got, h.t)
				}
				if got := d.Rendered(h.id); got != h.t.String() {
					t.Errorf("Rendered(%d) = %q, want %q", h.id, got, h.t.String())
				}
				if n := d.Len(); n < int(h.id) {
					t.Errorf("Len = %d with id %d handed out", n, h.id)
				}
				if id, ok := d.Lookup(h.t); !ok || id != h.id {
					t.Errorf("Lookup(%v) = %d,%v want %d,true", h.t, id, ok, h.id)
				}
				if ts := d.TermsAfter(h.id - 1); len(ts) == 0 || ts[0] != h.t {
					t.Errorf("TermsAfter(%d) does not start with %v", h.id-1, h.t)
				}
			}
		}()
	}
	ww.Wait()
	close(ch)
	rw.Wait()
	if d.Len() != writers*per {
		t.Errorf("Len = %d, want %d", d.Len(), writers*per)
	}
	if len(*d.pages.Load()) < 32 {
		t.Errorf("%d pages: the page directory never doubled", d.npages)
	}
}

// TestDictEncodeAllocatesPerPage pins what encoding new terms
// allocates: pages, chunks, doubled id tables and a few directories —
// nothing per term.
func TestDictEncodeAllocatesPerPage(t *testing.T) {
	d := NewDict()
	terms := manyTerms(10_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tm := range terms {
		d.Encode(tm)
	}
	runtime.ReadMemStats(&m1)
	pages, chunks := 0, 0
	for _, p := range *d.pages.Load() {
		if p != nil {
			pages++
		}
	}
	for _, c := range *d.dir.Load() {
		if c != nil {
			chunks++
		}
	}
	doublings := bits.Len(uint(len(d.table)/64)) - 1
	allocs, limit := m1.Mallocs-m0.Mallocs, uint64(pages+chunks+doublings+8)
	if allocs > limit || pages < 4 {
		t.Errorf("%d terms: %d allocations, limit %d (%d pages, %d chunks, %d table doublings)", len(terms), allocs, limit, pages, chunks, doublings)
	}
}

// TestDictFullRefusesTerms: once a term needs a page past the last a
// span can address, Install returns an error and Encode panics, and the
// dictionary keeps every term it had and takes short terms still.
func TestDictFullRefusesTerms(t *testing.T) {
	defer func(n int) { maxPages = n }(maxPages)
	maxPages = 2
	d := NewDict()
	big := NewLiteral(strings.Repeat("x", pageLen)) // a page of its own
	d.Encode(big)
	d.Encode(NewIRI("a")) // the second page, to fill
	bigger := NewLiteral(strings.Repeat("y", pageLen))
	if err := d.Install(3, bigger); err == nil || !strings.Contains(err.Error(), "dictionary full") {
		t.Errorf("Install of a third page: %v, want a full dictionary", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Encode of a third page did not panic")
			}
		}()
		d.Encode(bigger)
	}()
	if id := d.Encode(NewIRI("b")); id != 3 || d.Len() != 3 || d.Term(1) != big || d.Rendered(2) != "<a>" {
		t.Errorf("after the refusals: Encode = %d, Len = %d, Term(1) = %.10v, Rendered(2) = %q", id, d.Len(), d.Term(1), d.Rendered(2))
	}
}

func TestGraphDeduplicates(t *testing.T) {
	g := NewGraph()
	tr := g.AddSPO("a", "p", "b")
	if !g.Contains(tr) {
		t.Fatal("graph does not contain inserted triple")
	}
	g.AddSPO("a", "p", "b")
	if g.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert, want 1", g.Len())
	}
	if g.Add(tr) {
		t.Error("Add reported a duplicate as new")
	}
}

func TestTripleAt(t *testing.T) {
	tr := Triple{S: 1, P: 2, O: 3}
	for _, tc := range []struct {
		pos  Pos
		want TermID
	}{{SPos, 1}, {PPos, 2}, {OPos, 3}} {
		if got := tr.At(tc.pos); got != tc.want {
			t.Errorf("At(%v) = %d, want %d", tc.pos, got, tc.want)
		}
	}
}

func TestTermString(t *testing.T) {
	for _, tc := range []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewLiteral("C1"), `"C1"`},
		{NewBlank("n1"), "_:n1"},
	} {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestReadNTriples(t *testing.T) {
	src := `
# a comment
<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://x/q> "lit with \"quote\" and \\slash" .
<http://x/a> <http://x/r> "x\ny\rz\tw" .
_:b0 <http://x/p> _:b1

<http://x/a> <http://x/p> <http://x/b> .
`
	g := NewGraph()
	n, err := ReadNTriples(g, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("read %d triples, want 5", n)
	}
	if g.Len() != 4 {
		t.Errorf("graph holds %d distinct triples, want 4", g.Len())
	}
	// Check the escaped literal decoded correctly.
	id, ok := g.Dict.Lookup(NewLiteral(`lit with "quote" and \slash`))
	if !ok {
		t.Error("escaped literal not found in dictionary")
	}
	_ = id
	if _, ok := g.Dict.Lookup(NewLiteral("x\ny\rz\tw")); !ok {
		t.Error(`\n, \r and \t escapes not decoded`)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	for _, bad := range []string{
		`<a> <b>`,             // two terms
		`<a <b> <c> .`,        // unterminated IRI
		`<a> <b> "oops .`,     // unterminated literal
		`<a> <b> <c> extra .`, // garbage
		`what <b> <c> .`,      // unknown term
		`<a> <b> "x\`,         // dangling escape
		`<a> <b> <c> . <d> .`, // trailing terms
		"<a\rb> <p> <o> .",    // line break in an IRI
		"_:a\rb <p> <o> .",    // line break in a blank label
	} {
		g := NewGraph()
		if _, err := ReadNTriples(g, strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph()
	g.AddSPO("http://x/a", "http://x/p", "http://x/b")
	g.AddSPOLit("http://x/a", "http://x/name", `say "hi" \ bye`)
	g.AddSPOLit("http://x/a", "http://x/text", "two\nlines\r\nand\ta tab")
	g.AddTerms(NewBlank("n0"), NewIRI("http://x/p"), NewBlank("n1"))

	var buf bytes.Buffer
	if err := WriteNTriples(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	if _, err := ReadNTriples(g2, &buf); err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip: %d triples, want %d", g2.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		s, p, o := g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O)
		sid, ok1 := g2.Dict.Lookup(s)
		pid, ok2 := g2.Dict.Lookup(p)
		oid, ok3 := g2.Dict.Lookup(o)
		if !ok1 || !ok2 || !ok3 || !g2.Contains(Triple{sid, pid, oid}) {
			t.Errorf("triple %v %v %v lost in round trip", s, p, o)
		}
	}
}

// TestWriteNTriplesRefusesUnwritableTerms: an IRI or blank label that
// would end early or break its line is an error, not a file that
// ReadNTriples rejects.
func TestWriteNTriplesRefusesUnwritableTerms(t *testing.T) {
	for _, bad := range []Term{
		NewIRI("http://x/a>b"),
		NewIRI("http://x/a\nb"),
		NewIRI("http://x/a\rb"),
		NewBlank("a b"),
		NewBlank("a\nb"),
	} {
		g := NewGraph()
		g.AddTerms(bad, NewIRI("http://x/p"), NewIRI("http://x/o"))
		if err := WriteNTriples(g, io.Discard); err == nil {
			t.Errorf("WriteNTriples accepted unwritable %v %q", bad.Kind, bad.Value)
		}
	}
}

// FuzzNTriplesRoundTrip: no input panics the reader, and whatever it
// accepts is written without error and read back as the same triples in
// the same order. The seed corpus is under testdata/fuzz/FuzzNTriplesRoundTrip.
func FuzzNTriplesRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		g := NewGraph()
		if _, err := ReadNTriples(g, strings.NewReader(src)); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteNTriples(g, &buf); err != nil {
			t.Fatalf("WriteNTriples of an accepted document: %v", err)
		}
		written := buf.String()
		g2 := NewGraph()
		if _, err := ReadNTriples(g2, &buf); err != nil {
			t.Fatalf("re-reading %q: %v", written, err)
		}
		a, b := g.Triples(), g2.Triples()
		if len(a) != len(b) {
			t.Fatalf("%d triples read back as %d from %q", len(a), len(b), written)
		}
		terms := func(g *Graph, tr Triple) [3]Term {
			return [3]Term{g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O)}
		}
		for i := range a {
			if x, y := terms(g, a[i]), terms(g2, b[i]); x != y {
				t.Fatalf("triple %d: %q read back as %q", i, x, y)
			}
		}
	})
}

func TestPosString(t *testing.T) {
	if SPos.String() != "s" || PPos.String() != "p" || OPos.String() != "o" {
		t.Error("Pos.String mismatch")
	}
}
