package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cliquesquare/internal/qgen"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// TestVariantInvariantsOnRandomQueries checks structural invariants of
// Algorithm 1 across random queries of every shape:
//
//  1. every plan projects exactly the SELECT variables;
//  2. every plan's join count is at most n-1 distinct joins per level
//     chain (joins never exceed patterns);
//  3. MSC's minimal height equals the overall optimal height (it is
//     HO-partial, Theorem 4.3) — compared against SC's minimum on
//     small queries where SC is exhaustive;
//  4. minimum-cover variants' plan spaces are subsets of their
//     all-covers counterparts (Theorem 4.1).
//
// The runs have the engine's count budgets, under which every variant
// completes on 2-4 patterns; a cut run fails the test rather than
// skipping checks 3 and 4.
func TestVariantInvariantsOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 12; iter++ {
		shape := qgen.Shapes[iter%len(qgen.Shapes)]
		n := 2 + rng.Intn(3) // keep SC exhaustive: 2-4 patterns
		q := qgen.Generate(shape, n, rng)
		q.Name = fmt.Sprintf("prop-%s-%d", shape, iter)

		results := make(map[vargraph.Method]*Result)
		for _, m := range vargraph.AllMethods {
			res, err := Optimize(q, Options{Method: m, MaxPlans: 20000, MaxCoversPerStep: 5000})
			if err != nil {
				t.Fatalf("%s %v: %v", q.Name, m, err)
			}
			if res.Truncated {
				t.Fatalf("%s %v: cut at %d plans; %d patterns must complete", q.Name, m, len(res.Plans), n)
			}
			results[m] = res
			for _, p := range res.Plans {
				if p.Root.Kind != OpProject {
					t.Fatalf("%s %v: plan root is %v", q.Name, m, p.Root.Kind)
				}
				if got := len(p.Root.Attrs); got != len(q.Select) {
					t.Fatalf("%s %v: projects %d vars, want %d", q.Name, m, got, len(q.Select))
				}
				// Tree plans need at most n-1 joins; DAG plans from
				// redundant simple covers can apply up to
				// Σ_{k=1}^{n-1} k = n(n-1)/2 cliques in total.
				n := len(q.Patterns)
				if p.Joins() > n*(n-1)/2 {
					t.Fatalf("%s %v: %d joins for %d patterns", q.Name, m, p.Joins(), n)
				}
			}
		}
		if hMSC, hSC := results[vargraph.MSC].MinHeight(), results[vargraph.SC].MinHeight(); hMSC != hSC {
			t.Errorf("%s: MSC min height %d != SC min height %d (HO-partial violated)",
				q.Name, hMSC, hSC)
		}
		subset := func(a, b vargraph.Method) {
			bs := make(map[string]bool)
			for _, p := range results[b].Unique {
				bs[p.Signature()] = true
			}
			for _, p := range results[a].Unique {
				if !bs[p.Signature()] {
					t.Errorf("%s: plan of %v missing from %v: %s", q.Name, a, b, p.Signature())
				}
			}
		}
		subset(vargraph.MSC, vargraph.SC)
		subset(vargraph.MSCPlus, vargraph.SCPlus)
		subset(vargraph.MXC, vargraph.XC)
		subset(vargraph.MXCPlus, vargraph.XCPlus)
	}
}

// TestStatesTraceMatchesPlanHeight checks that for minimum-cover
// variants (which never use pass-through-only levels trivially) the
// number of reductions along any plan's derivation bounds its height.
func TestStatesTraceMatchesPlanHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 8; iter++ {
		q := qgen.Generate(qgen.Thin, 3+rng.Intn(4), rng)
		res, err := Optimize(q, Options{Method: vargraph.MSC})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Plans {
			if p.Height() < 1 {
				t.Errorf("%s: plan height %d for multi-pattern query", q.Name, p.Height())
			}
			if p.Height() > len(q.Patterns) {
				t.Errorf("%s: height %d exceeds pattern count", q.Name, p.Height())
			}
		}
	}
}

// TestSignatureStableAcrossRuns: optimizing the same query twice must
// produce identical plan sets in identical order (full determinism).
func TestSignatureStableAcrossRuns(t *testing.T) {
	q := sparql.MustParse(`SELECT ?a WHERE {
		?a <p1> ?b . ?b <p2> ?c . ?a <p3> ?c . ?c <p4> ?d }`)
	var prev []string
	for run := 0; run < 3; run++ {
		res, err := Optimize(q, Options{Method: vargraph.SC})
		if err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, p := range res.Plans {
			sigs = append(sigs, p.Signature())
		}
		if prev != nil {
			if len(sigs) != len(prev) {
				t.Fatalf("run %d: %d plans vs %d", run, len(sigs), len(prev))
			}
			for i := range sigs {
				if sigs[i] != prev[i] {
					t.Fatalf("run %d: plan %d differs", run, i)
				}
			}
		}
		prev = sigs
	}
}

// TestDAGPlansShareOperators: simple covers with overlapping cliques
// must reuse the same operator instance, not clone it.
func TestDAGPlansShareOperators(t *testing.T) {
	// Chain of 4: SC builds a plan where the middle join {t2,t3} feeds
	// two second-level joins.
	q := sparql.MustParse(`SELECT ?x WHERE { ?u <p1> ?x . ?x <p2> ?y . ?y <p3> ?z . ?z <p4> ?w }`)
	res, err := Optimize(q, Options{Method: vargraph.SC})
	if err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, p := range res.Unique {
		parents := make(map[*Op]int)
		var walk func(op *Op, seen map[*Op]bool)
		walk = func(op *Op, seen map[*Op]bool) {
			for _, c := range op.Children {
				parents[c]++
				if !seen[c] {
					seen[c] = true
					walk(c, seen)
				}
			}
		}
		walk(p.Root, map[*Op]bool{p.Root: true})
		for op, n := range parents {
			if n > 1 && op.Kind == OpJoin {
				shared = true
			}
		}
	}
	if !shared {
		t.Error("no SC plan shares a join operator between two parents (expected DAG plans)")
	}
}
