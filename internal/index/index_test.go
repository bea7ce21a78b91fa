package index

import (
	"fmt"
	"math/rand"
	"testing"

	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
)

func buildGraph() (*rdf.Graph, *Store) {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		g.AddSPO(fmt.Sprintf("s%d", rng.Intn(20)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(20)))
	}
	return g, Build(g.Triples())
}

func TestLookupAllPatterns(t *testing.T) {
	g, st := buildGraph()
	triples := g.Triples()
	sample := triples[7]
	cases := []struct{ s, p, o rdf.TermID }{
		{0, 0, 0},
		{sample.S, 0, 0},
		{0, sample.P, 0},
		{0, 0, sample.O},
		{sample.S, sample.P, 0},
		{sample.S, 0, sample.O},
		{0, sample.P, sample.O},
		{sample.S, sample.P, sample.O},
	}
	for _, c := range cases {
		got, touched := st.Lookup(c.s, c.p, c.o)
		want := 0
		for _, tr := range triples {
			if (c.s == 0 || tr.S == c.s) && (c.p == 0 || tr.P == c.p) && (c.o == 0 || tr.O == c.o) {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("Lookup(%d,%d,%d) = %d triples, want %d", c.s, c.p, c.o, len(got), want)
		}
		if touched < len(got) {
			t.Errorf("touched %d < results %d", touched, len(got))
		}
		for _, tr := range got {
			if (c.s != 0 && tr.S != c.s) || (c.p != 0 && tr.P != c.p) || (c.o != 0 && tr.O != c.o) {
				t.Errorf("Lookup(%d,%d,%d) returned non-matching %v", c.s, c.p, c.o, tr)
			}
		}
	}
}

// TestChoosePermLeadsWithBound is what lets Lookup return the sorted
// range of the bound prefix unfiltered: for every s/p/o boundness, the
// chosen permutation's first k positions are exactly the k bound ones.
func TestChoosePermLeadsWithBound(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		bound := map[rdf.Pos]bool{rdf.SPos: mask&1 != 0, rdf.PPos: mask&2 != 0, rdf.OPos: mask&4 != 0}
		k := 0
		for _, b := range bound {
			if b {
				k++
			}
		}
		ord := choosePerm(bound[rdf.SPos], bound[rdf.PPos], bound[rdf.OPos]).order()
		for i, pos := range ord {
			if bound[pos] != (i < k) {
				t.Errorf("s/p/o bound %v: permutation order %v does not lead with the %d bound positions", bound, ord, k)
				break
			}
		}
	}
}

func TestLookupSelectiveTouchesFew(t *testing.T) {
	_, st := buildGraph()
	full, _ := st.Lookup(0, 0, 0)
	if len(full) != st.Len() {
		t.Fatalf("full scan = %d, want %d", len(full), st.Len())
	}
	sel, touched := st.Lookup(full[0].S, full[0].P, 0)
	if touched >= st.Len()/2 {
		t.Errorf("selective lookup touched %d of %d triples", touched, st.Len())
	}
	if len(sel) == 0 {
		t.Error("selective lookup found nothing")
	}
}

func TestEvalBGPMatchesReference(t *testing.T) {
	g, st := buildGraph()
	for _, src := range []string{
		`SELECT ?a ?c WHERE { ?a <p0> ?b . ?b <p1> ?c }`,
		`SELECT ?a WHERE { ?a <p0> ?b . ?a <p1> ?c . ?a <p2> ?d }`,
		`SELECT ?a ?d WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d }`,
		`SELECT ?a WHERE { ?a <p0> <o1> . ?a <p1> ?b }`,
		`SELECT ?a WHERE { <s1> ?p ?a . ?a ?q ?b }`,
	} {
		q := sparql.MustParse(src)
		res := EvalBGP(st, g.Dict, q.Patterns)
		// Project to select vars and deduplicate, then compare counts.
		seen := make(map[string]bool)
		for _, row := range res.Rows {
			key := ""
			for _, v := range q.Select {
				key += fmt.Sprintf("%d,", row[res.Col(v)])
			}
			seen[key] = true
		}
		want := refeval.Count(g, q)
		if len(seen) != want {
			t.Errorf("%s: got %d distinct rows, want %d", src, len(seen), want)
		}
	}
}

func TestEvalBGPEmpty(t *testing.T) {
	g, st := buildGraph()
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <nosuch> ?b . ?b <p0> ?c }`)
	res := EvalBGP(st, g.Dict, q.Patterns)
	if len(res.Rows) != 0 {
		t.Errorf("got %d rows for unknown property, want 0", len(res.Rows))
	}
}

func TestEvalBGPRepeatedVar(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO("a", "p", "a")
	g.AddSPO("a", "p", "b")
	g.AddSPO("b", "p", "b")
	st := Build(g.Triples())
	q := &sparql.Query{Select: []string{"x"}, Patterns: []sparql.TriplePattern{{
		S: sparql.Variable("x"), P: sparql.Constant(rdf.NewIRI("p")), O: sparql.Variable("x"),
	}}}
	res := EvalBGP(st, g.Dict, q.Patterns)
	if len(res.Rows) != 2 {
		t.Errorf("?x p ?x matched %d rows, want 2", len(res.Rows))
	}
}

func TestEvalBGPTouchedAccounting(t *testing.T) {
	g, st := buildGraph()
	q := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <p0> ?b . ?b <p1> ?c }`)
	res := EvalBGP(st, g.Dict, q.Patterns)
	if res.Touched == 0 {
		t.Error("no work accounted")
	}
}
