package sparql

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics throws random byte soup and random mutations of
// a valid query at the parser; it must return errors, never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	valid := `PREFIX ub: <http://x/> SELECT ?a ?b WHERE { ?a ub:p ?b . ?b <q> "lit" . ?b a ub:C }`
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b := []byte(valid)
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(3) {
			case 0: // delete a byte
				if len(b) > 1 {
					p := rng.Intn(len(b))
					b = append(b[:p], b[p+1:]...)
				}
			case 1: // flip a byte
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			case 2: // duplicate a chunk
				p := rng.Intn(len(b))
				b = append(b[:p], append([]byte(string(b[p:min(p+5, len(b))])), b[p:]...)...)
			}
		}
		_, _ = Parse(string(b)) // must not panic
	}
}

// TestParseRoundTripProperty: any query that parses renders (String)
// to something that reparses to the same rendering.
func TestParseRoundTripProperty(t *testing.T) {
	srcs := []string{
		`SELECT ?a WHERE { ?a <p> ?b }`,
		`SELECT ?a ?c WHERE { ?a <p> ?b . ?b <q> ?c . ?a <r> "x y z" }`,
		`PREFIX u: <http://u/> SELECT ?x WHERE { ?x a u:T . ?x u:p ?y }`,
		`SELECT ?s ?o WHERE { ?s ?p ?o . ?o <q> ?z }`,
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("round trip unstable:\n%s\n%s", q.String(), q2.String())
		}
	}
}

func TestTokenizerHandlesControlBytes(t *testing.T) {
	for _, s := range []string{"\x00", "SELECT \x01 ?a", strings.Repeat("{", 100), "\""} {
		_, _ = Parse(s)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FuzzParseRoundTrip: Parse never panics; a query that parses renders
// (String) to something that reparses to the same rendering; and the
// canonical Key is the same across that round trip and under a
// consistent renaming of the variables. It is deliberately not asked to
// survive a permutation of the patterns: symmetric ties fall back to
// input order by design (Canonicalize), and
// { ?x <> ?c . ?c <> ?a . ?x <> ?e . ?e <> ?a } is such a tie. The
// seeds are in testdata/fuzz/FuzzParseRoundTrip.
func FuzzParseRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		s := q.String()
		q2, err := Parse(s)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, s, err)
		}
		if s2 := q2.String(); s2 != s {
			t.Fatalf("%q renders as %q, which renders as %q", src, s, s2)
		}
		key := Canonicalize(q).Key
		if Canonicalize(q2).Key != key {
			t.Fatalf("%q: the Key changed across the round trip through %q", src, s)
		}
		if r := renamed(q); Canonicalize(r).Key != key {
			t.Fatalf("%q: the Key changed when its variables were renamed: %q", src, r)
		}
	})
}

// renamed returns q with its variables renamed consistently, numbered
// against their sorted order.
func renamed(q *Query) *Query {
	vars := q.Vars()
	to := make(map[string]string, len(vars))
	for i, v := range vars {
		to[v] = "r" + strconv.Itoa(len(vars)-i)
	}
	term := func(pt PatternTerm) PatternTerm {
		if pt.IsVar {
			return Variable(to[pt.Var])
		}
		return pt
	}
	r := &Query{}
	for _, v := range q.Select {
		r.Select = append(r.Select, to[v])
	}
	for _, tp := range q.Patterns {
		r.Patterns = append(r.Patterns, TriplePattern{S: term(tp.S), P: term(tp.P), O: term(tp.O)})
	}
	return r
}
