package index

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
)

// buildGraph is 200 random triples from subjects to objects and 100
// between subjects, so that paths, cycles and self-loops occur.
func buildGraph() (*rdf.Graph, *Store) {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		o := fmt.Sprintf("o%d", rng.Intn(20))
		if i >= 200 {
			o = fmt.Sprintf("s%d", rng.Intn(20))
		}
		g.AddSPO(fmt.Sprintf("s%d", rng.Intn(20)), fmt.Sprintf("p%d", rng.Intn(4)), o)
	}
	return g, Build(g.Triples())
}

func compareTriples(a, b rdf.Triple) int {
	return compare(Cells{a.S, a.P, a.O}, Cells{b.S, b.P, b.O}, 3)
}

// TestLookupAllPatterns checks every boundness of every stored triple's
// components: Lookup returns, as a multiset, what a linear filter keeps,
// and a one-pattern EvalBGP with those constants touches exactly those
// triples and returns one row for each.
func TestLookupAllPatterns(t *testing.T) {
	g, st := buildGraph()
	triples := g.Triples()
	for _, sample := range triples {
		for mask := 0; mask < 8; mask++ {
			var c rdf.Triple
			tp := sparql.TriplePattern{S: sparql.Variable("s"), P: sparql.Variable("p"), O: sparql.Variable("o")}
			if mask&1 != 0 {
				c.S, tp.S = sample.S, sparql.Constant(g.Dict.Term(sample.S))
			}
			if mask&2 != 0 {
				c.P, tp.P = sample.P, sparql.Constant(g.Dict.Term(sample.P))
			}
			if mask&4 != 0 {
				c.O, tp.O = sample.O, sparql.Constant(g.Dict.Term(sample.O))
			}
			var want []rdf.Triple
			for _, tr := range triples {
				if (c.S == 0 || tr.S == c.S) && (c.P == 0 || tr.P == c.P) && (c.O == 0 || tr.O == c.O) {
					want = append(want, tr)
				}
			}
			perm, rows := st.Lookup(c.S, c.P, c.O)
			got := make([]rdf.Triple, len(rows))
			for i, r := range rows {
				got[i] = perm.Triple(r)
			}
			slices.SortFunc(got, compareTriples)
			slices.SortFunc(want, compareTriples)
			if !slices.Equal(got, want) {
				t.Fatalf("Lookup(%d,%d,%d) = %v, want %v", c.S, c.P, c.O, got, want)
			}
			res := EvalBGP(st, g.Dict, []sparql.TriplePattern{tp})
			if res.Touched != len(want) || res.Rows.N != len(want) {
				t.Fatalf("EvalBGP(%v): touched %d, %d rows, want %d of each", tp, res.Touched, res.Rows.N, len(want))
			}
		}
	}
}

// TestChoosePermLeadsWithBound is what lets Lookup return the sorted
// range of the bound prefix unfiltered: for every s/p/o boundness, the
// chosen permutation's first k positions are exactly the k bound ones.
// Every permutation the store sorts is chosen for some boundness.
func TestChoosePermLeadsWithBound(t *testing.T) {
	var chosen [3]bool
	for mask := 0; mask < 8; mask++ {
		bound := map[rdf.Pos]bool{rdf.SPos: mask&1 != 0, rdf.PPos: mask&2 != 0, rdf.OPos: mask&4 != 0}
		k := 0
		for _, b := range bound {
			if b {
				k++
			}
		}
		perm := choosePerm(bound[rdf.SPos], bound[rdf.PPos], bound[rdf.OPos])
		chosen[perm] = true
		ord := perm.order()
		for i, pos := range ord {
			if bound[pos] != (i < k) {
				t.Errorf("s/p/o bound %v: permutation order %v does not lead with the %d bound positions", bound, ord, k)
				break
			}
		}
	}
	if chosen != [3]bool{true, true, true} {
		t.Errorf("permutations chosen %v: the store sorts one no lookup reads", chosen)
	}
}

func TestLookupSelectiveTouchesFew(t *testing.T) {
	_, st := buildGraph()
	perm, full := st.Lookup(0, 0, 0)
	if len(full) != st.Len() {
		t.Fatalf("full scan = %d, want %d", len(full), st.Len())
	}
	first := perm.Triple(full[0])
	if _, sel := st.Lookup(first.S, first.P, 0); len(sel) >= st.Len()/2 {
		t.Errorf("selective lookup touched %d of %d triples", len(sel), st.Len())
	} else if len(sel) == 0 {
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
		// A variable repeated inside one pattern.
		`SELECT ?a ?b WHERE { ?a ?p ?a . ?a <p1> ?b }`,
		// Variables repeated across patterns in two positions: a cycle,
		// and a bound variable repeated in a later pattern.
		`SELECT ?a ?b WHERE { ?a <p0> ?b . ?b <p1> ?a }`,
		`SELECT ?a ?q WHERE { ?a <p0> ?b . ?a ?q ?a }`,
		// A triangle: the last pattern's two bound variables do not
		// both ascend down the bindings, so a lookup may follow one of a
		// higher key.
		`SELECT ?a ?b ?c WHERE { ?a <p1> ?b . ?a <p2> ?c . ?c <p2> ?b }`,
		// A constant subject.
		`SELECT ?p ?b ?c WHERE { <s3> ?p ?b . ?b <p2> ?c }`,
		// A constant missing from the dictionary.
		`SELECT ?a WHERE { ?a <p0> ?b . ?b <nosuch> ?c }`,
	} {
		q := sparql.MustParse(src)
		res := EvalBGP(st, g.Dict, q.Patterns)
		// Project to the select variables, sort and deduplicate.
		var got [][]rdf.TermID
		for i := 0; i < res.Rows.N; i++ {
			row := make([]rdf.TermID, len(q.Select))
			for k, v := range q.Select {
				row[k] = res.Rows.Row(i)[slices.Index(res.Vars, v)]
			}
			got = append(got, row)
		}
		slices.SortFunc(got, slices.Compare)
		got = slices.CompactFunc(got, slices.Equal)
		want := refeval.Eval(g, q)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s: got %d distinct rows %v, want %d %v", src, len(got), got, len(want), want)
		}
		if (len(want) == 0) != strings.Contains(src, "<nosuch>") {
			t.Errorf("%s: %d answers; every case but the missing constant's must have some", src, len(want))
		}
	}
}

func TestEvalBGPEmpty(t *testing.T) {
	g, st := buildGraph()
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <nosuch> ?b . ?b <p0> ?c }`)
	res := EvalBGP(st, g.Dict, q.Patterns)
	if res.Rows.N != 0 {
		t.Errorf("got %d rows for unknown property, want 0", res.Rows.N)
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
	if res.Rows.N != 2 {
		t.Errorf("?x p ?x matched %d rows, want 2", res.Rows.N)
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
