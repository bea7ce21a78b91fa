package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// graphModel drives g with a seeded stream of Add / Remove / RemoveBatch
// / Contains and checks every answer against a map-and-slice model. It
// owns the triples whose subject is ≡ owner (mod owners) and touches no
// other, so several of them can share one graph: what the others do may
// interleave with, but never reorder, an owner's own triples.
func graphModel(t *testing.T, g *Graph, seed int64, owner, owners, ops int) (size int) {
	rng := rand.New(rand.NewSource(seed))
	in := make(map[Triple]bool)
	var order []Triple
	pick := func() Triple {
		// A small universe: duplicates and absent triples are the rule.
		return Triple{S: TermID(owner + owners*rng.Intn(40) + 1), P: TermID(rng.Intn(6) + 1), O: TermID(rng.Intn(30) + 1)}
	}
	mine := func() []Triple {
		var out []Triple
		for _, tr := range g.Triples() {
			if (int(tr.S)-1)%owners == owner {
				out = append(out, tr)
			}
		}
		return out
	}
	remove := func(ts []Triple) (n int) {
		for _, tr := range ts {
			if in[tr] {
				delete(in, tr)
				n++
			}
		}
		order = slices.DeleteFunc(order, func(tr Triple) bool { return !in[tr] })
		return n
	}
	for i := 0; i < ops; i++ {
		// A snapshot taken before a mutation is what it was after it.
		snap := g.Triples()
		was := slices.Clone(snap)
		switch op := rng.Intn(10); {
		case op < 6:
			tr := pick()
			if got := g.Add(tr); got == in[tr] {
				t.Errorf("op %d: Add(%v) = %v with the triple present: %v", i, tr, got, in[tr])
				return 0
			}
			if !in[tr] {
				in[tr] = true
				order = append(order, tr)
			}
		case op < 7:
			tr := pick()
			had := in[tr]
			remove([]Triple{tr})
			if got := g.Remove(tr); got != had {
				t.Errorf("op %d: Remove(%v) = %v, want %v", i, tr, got, had)
				return 0
			}
		case op < 8:
			batch := make([]Triple, rng.Intn(40))
			for j := range batch {
				if batch[j] = pick(); j > 0 && rng.Intn(4) == 0 {
					batch[j] = batch[rng.Intn(j)] // listed twice
				}
			}
			want := remove(batch)
			if got := g.RemoveBatch(batch); got != want {
				t.Errorf("op %d: RemoveBatch of %d = %d, want %d", i, len(batch), got, want)
				return 0
			}
		default:
			if tr := pick(); g.Contains(tr) != in[tr] {
				t.Errorf("op %d: Contains(%v) = %v, want %v", i, tr, !in[tr], in[tr])
				return 0
			}
		}
		if !slices.Equal(snap, was) {
			t.Errorf("op %d: a Triples() snapshot changed under a mutation", i)
			return 0
		}
		if i%97 == 0 || i == ops-1 {
			if got := mine(); !slices.Equal(got, order) {
				t.Errorf("op %d: the graph holds %d of this owner's triples, the model %d, or their order differs", i, len(got), len(order))
				return 0
			}
			if owners == 1 && g.Len() != len(order) {
				t.Errorf("op %d: Len = %d, want %d", i, g.Len(), len(order))
				return 0
			}
		}
	}
	for tr := range in {
		if !g.Contains(tr) {
			t.Errorf("Contains(%v) = false for a triple of the model", tr)
			return 0
		}
	}
	return len(order)
}

// TestGraphAgainstModel crosses several table growths (8 slots to a few
// thousand) and rebuilds, alone and then with four owners sharing one
// graph (meaningful under -race).
func TestGraphAgainstModel(t *testing.T) {
	graphModel(t, NewGraph(), 1, 0, 1, 6000)
	// The zero value around a dictionary is an empty graph too.
	graphModel(t, &Graph{Dict: NewDict()}, 2, 0, 1, 2000)

	const owners = 4
	g := NewGraph()
	sizes := make([]int, owners)
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes[o] = graphModel(t, g, int64(10+o), o, owners, 2000)
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if g.Len() != total {
		t.Errorf("Len = %d after the concurrent run, the models hold %d", g.Len(), total)
	}
}

// dictModel drives d with a seeded stream of Encode / Lookup / Rendered /
// Term — and Install, when it is d's only writer — and checks every
// answer against a map model. Terms carry the owner's name, so several
// models can share one dictionary.
func dictModel(t *testing.T, d *Dict, seed int64, owner string, alone bool, ops int) (size int) {
	rng := rand.New(rand.NewSource(seed))
	ids := make(map[Term]TermID)
	var terms []Term // in the order this owner introduced them
	long := strings.Repeat("x", 2*probeLen)
	pick := func() Term {
		v := fmt.Sprintf("%s/%d", owner, rng.Intn(3000))
		if rng.Intn(8) == 0 {
			v += long // spills the probe buffer
		}
		return Term{Kind: TermKind(rng.Intn(3)), Value: v}
	}
	learn := func(tm Term, id TermID) {
		ids[tm] = id
		terms = append(terms, tm)
	}
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			tm := pick()
			id := d.Encode(tm)
			if want, ok := ids[tm]; ok && id != want {
				t.Errorf("op %d: Encode(%v) = %d, was %d", i, tm, id, want)
				return 0
			} else if !ok {
				if alone && int(id) != len(terms)+1 {
					t.Errorf("op %d: Encode of a new term = %d, want the next id %d", i, id, len(terms)+1)
					return 0
				}
				learn(tm, id)
			}
		case op < 7:
			tm := pick()
			id, ok := d.Lookup(tm)
			if want, known := ids[tm]; ok != known || id != want {
				t.Errorf("op %d: Lookup(%v) = %d,%v want %d,%v", i, tm, id, ok, want, known)
				return 0
			}
		case op < 9 && len(terms) > 0:
			tm := terms[rng.Intn(len(terms))]
			id := ids[tm]
			if got := d.Rendered(id); got != tm.String() {
				t.Errorf("op %d: Rendered(%d) = %q, want %q", i, id, got, tm.String())
				return 0
			}
			if got := d.Term(id); got != tm {
				t.Errorf("op %d: Term(%d) = %v, want %v", i, id, got, tm)
				return 0
			}
		case alone:
			tm, next := pick(), TermID(len(terms)+1)
			if id, known := ids[tm]; known {
				if err := d.Install(id, tm); err != nil {
					t.Errorf("op %d: Install(%d, %v) of what it holds: %v", i, id, tm, err)
					return 0
				}
				if other := terms[rng.Intn(len(terms))]; other != tm {
					if err := d.Install(id, other); err == nil {
						t.Errorf("op %d: Install(%d, %v) over %v succeeded", i, id, other, tm)
						return 0
					}
				}
				break
			}
			if err := d.Install(next+1, tm); err == nil {
				t.Errorf("op %d: Install(%d) with %d free left a gap", i, next+1, next)
				return 0
			}
			if err := d.Install(next, tm); err != nil {
				t.Errorf("op %d: Install(%d, %v): %v", i, next, tm, err)
				return 0
			}
			learn(tm, next)
		}
		if alone && d.Len() != len(terms) {
			t.Errorf("op %d: Len = %d, want %d", i, d.Len(), len(terms))
			return 0
		}
	}
	for tm, want := range ids {
		if id, ok := d.Lookup(tm); !ok || id != want {
			t.Errorf("Lookup(%v) = %d,%v want %d,true", tm, id, ok, want)
			return 0
		}
	}
	return len(terms)
}

// TestDictAgainstModel starts from a two-slot table, so every probe
// sequence collides until it has doubled a dozen times, alone and then
// with four owners sharing one dictionary (meaningful under -race).
func TestDictAgainstModel(t *testing.T) {
	d := newDict(2)
	n := dictModel(t, d, 1, "solo", true, 8000)
	if len(d.table) < 1024 || n*4 > len(d.table)*3 {
		t.Errorf("%d terms in a table of %d slots: it did not grow, or is past its load", n, len(d.table))
	}

	const owners = 4
	d = newDict(2)
	sizes := make([]int, owners)
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes[o] = dictModel(t, d, int64(10+o), fmt.Sprint("owner", o), false, 3000)
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if d.Len() != total {
		t.Errorf("Len = %d after the concurrent run, the models hold %d distinct terms", d.Len(), total)
	}
}

// FuzzDictRoundTrip: whatever bytes a term's value holds, and whether or
// not they fit the probe buffer, the term gets one id, the id gives the
// term back, the three kinds stay apart, and replaying TermsAfter into a
// new dictionary reproduces the assignment.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add(uint8(0), "http://www.University0.edu", "x")
	f.Add(uint8(1), "", "_:")
	f.Add(uint8(2), "b0", strings.Repeat("é", probeLen))
	f.Add(uint8(1), strings.Repeat("x", pageLen-2), "y")                           // a literal of exactly a page
	f.Add(uint8(1), strings.Repeat("ab", pageLen), strings.Repeat("c", 3*pageLen)) // pages of their own
	f.Fuzz(func(t *testing.T, kind uint8, a, b string) {
		d := newDict(2)
		terms := []Term{
			{Kind: TermKind(kind % 3), Value: a},
			{Kind: TermKind((kind + 1) % 3), Value: a},
			{Kind: TermKind(kind % 3), Value: b},
			{Kind: TermKind((kind + 2) % 3), Value: a + b},
		}
		ids := make(map[Term]TermID)
		for _, tm := range terms {
			id := d.Encode(tm)
			if was, ok := ids[tm]; ok && was != id {
				t.Fatalf("Encode(%v) = %d, then %d", tm, was, id)
			}
			ids[tm] = id
		}
		if d.Len() != len(ids) {
			t.Fatalf("%d distinct terms got %d ids", len(ids), d.Len())
		}
		replay := newDict(2)
		for i, tm := range d.TermsAfter(0) {
			if err := replay.Install(TermID(i+1), tm); err != nil {
				t.Fatal(err)
			}
		}
		for tm, id := range ids {
			for _, dd := range []*Dict{d, replay} {
				if got, ok := dd.Lookup(tm); !ok || got != id {
					t.Fatalf("Lookup(%v) = %d,%v want %d,true", tm, got, ok, id)
				}
				if got := dd.Term(id); got != tm {
					t.Fatalf("Term(%d) = %v, want %v", id, got, tm)
				}
				if got := dd.Rendered(id); got != tm.String() {
					t.Fatalf("Rendered(%d) = %q, want %q", id, got, tm.String())
				}
			}
		}
		if _, ok := d.Lookup(Term{Kind: TermKind(kind % 3), Value: a + b + "\x00absent"}); ok {
			t.Fatal("Lookup of a term never encoded reported ok")
		}
	})
}
