package vargraph

import (
	"math/rand"
	"testing"

	"cliquesquare/internal/qgen"
)

// TestLemmaBounds checks Lemmas 4.1 and 4.2 on random queries: a
// variable graph of n nodes has at most 2n+1 maximal cliques and at
// most 2^n - 1 partial cliques.
func TestLemmaBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		shape := qgen.Shapes[iter%len(qgen.Shapes)]
		n := 1 + rng.Intn(10)
		q := qgen.Generate(shape, n, rng)
		g := FromQuery(q)
		if got, bound := len(MaximalCliques(g)), 2*n+1; got > bound {
			t.Errorf("%s: %d maximal cliques > bound %d (Lemma 4.1)", q.Name, got, bound)
		}
		if got, bound := len(PartialCliques(g)), 1<<uint(n)-1; got > bound {
			t.Errorf("%s: %d partial cliques > bound %d (Lemma 4.2)", q.Name, got, bound)
		}
	}
}

// TestReductionShrinksGraph: every decomposition strictly reduces the
// node count (the |D| < |N| requirement of Definition 3.3), so
// Algorithm 1 terminates.
func TestReductionShrinksGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		q := qgen.Generate(qgen.Shapes[iter%len(qgen.Shapes)], 2+rng.Intn(5), rng)
		g := FromQuery(q)
		for _, m := range AllMethods {
			ds, _ := Decompositions(g, m, 50)
			for _, d := range ds {
				g2 := g.Reduce(d)
				if g2.Len() >= g.Len() {
					t.Fatalf("%s %v: reduction %d -> %d nodes", q.Name, m, g.Len(), g2.Len())
				}
				// Reduced nodes must partition-or-cover the original
				// pattern set exactly.
				pat := make(map[int]bool)
				for i := range g2.Nodes {
					for _, p := range g2.Nodes[i].Patterns {
						pat[p] = true
					}
				}
				if len(pat) != len(q.Patterns) {
					t.Fatalf("%s %v: reduction lost patterns: %d of %d", q.Name, m, len(pat), len(q.Patterns))
				}
			}
		}
	}
}

// TestMaximalCliquesSubsetOfPartial: the maximal pool is always
// contained in the partial pool (the basis of the Theorem 4.1
// inclusions).
func TestMaximalCliquesSubsetOfPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20; iter++ {
		q := qgen.Generate(qgen.Shapes[iter%len(qgen.Shapes)], 2+rng.Intn(6), rng)
		g := FromQuery(q)
		partial := make(map[string]bool)
		for _, c := range PartialCliques(g) {
			partial[c.Key()] = true
		}
		for _, c := range MaximalCliques(g) {
			if !partial[c.Key()] {
				t.Errorf("%s: maximal clique %v not in partial pool", q.Name, c.Nodes)
			}
		}
	}
}

// TestDecompositionsDeterministic: same graph, same method, same
// budget → identical decomposition lists.
func TestDecompositionsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := qgen.Generate(qgen.Dense, 6, rng)
	g := FromQuery(q)
	for _, m := range AllMethods {
		a, _ := Decompositions(g, m, 200)
		b, _ := Decompositions(g, m, 200)
		if len(a) != len(b) {
			t.Fatalf("%v: %d vs %d decompositions", m, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("%v: decomposition %d differs", m, i)
			}
			for j := range a[i] {
				if a[i][j].Key() != b[i][j].Key() {
					t.Fatalf("%v: decomposition %d clique %d differs", m, i, j)
				}
			}
		}
	}
}
