package h2rdfsim

import (
	"fmt"
	"testing"

	"cliquesquare/internal/cost"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

func skewedGraph() *rdf.Graph {
	g := rdf.NewGraph()
	// p1 is huge, p2 medium, p3 tiny.
	for i := 0; i < 100; i++ {
		g.AddSPO(fmt.Sprintf("a%d", i), "p1", fmt.Sprintf("b%d", i%10))
	}
	for i := 0; i < 20; i++ {
		g.AddSPO(fmt.Sprintf("b%d", i%10), "p2", fmt.Sprintf("c%d", i%5))
	}
	g.AddSPO("c0", "p3", "d0")
	return g
}

func TestPlanOrderStartsSelectiveAndStaysConnected(t *testing.T) {
	g := skewedGraph()
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d }`)
	order := planOrder(q, cost.NewStats(g, q))
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// Most selective pattern (p3) first; each next pattern shares a
	// variable with the prefix.
	if order[0] != 2 {
		t.Errorf("order starts with pattern %d, want 2 (the tiny p3 scan)", order[0])
	}
	seen := map[string]bool{}
	for _, v := range q.Patterns[order[0]].Vars() {
		seen[v] = true
	}
	for _, pi := range order[1:] {
		connected := false
		for _, v := range q.Patterns[pi].Vars() {
			if seen[v] {
				connected = true
			}
			seen[v] = true
		}
		if !connected {
			t.Errorf("pattern %d not connected to prefix", pi)
		}
	}
}

func TestCentralizedThresholdSwitch(t *testing.T) {
	g := skewedGraph()
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <p1> ?b . ?b <p2> ?c }`)
	q.Name = "switch"

	hi := New(g, Config{Nodes: 4, Constants: mapreduce.DefaultConstants(), CentralThreshold: 1e6})
	r, err := hi.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 0 {
		t.Errorf("high threshold: %d jobs, want 0 (centralized)", r.Jobs)
	}
	lo := New(g, Config{Nodes: 4, Constants: mapreduce.DefaultConstants(), CentralThreshold: 1})
	r2, err := lo.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Jobs != 1 {
		t.Errorf("low threshold: %d jobs, want 1 (one join, one job)", r2.Jobs)
	}
	if r.Rows != r2.Rows {
		t.Errorf("rows differ across regimes: %d vs %d", r.Rows, r2.Rows)
	}
}

// TestScanPatternConstantsAndRepeats holds a pattern's scan — a
// one-pattern EvalBGP over the global index — to its constants and to a
// variable it repeats.
func TestScanPatternConstantsAndRepeats(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO("a", "p", "a")
	g.AddSPO("a", "p", "b")
	e := New(g, DefaultConfig())
	q := &sparql.Query{Select: []string{"x"}, Patterns: []sparql.TriplePattern{{
		S: sparql.Variable("x"), P: sparql.Constant(rdf.NewIRI("p")), O: sparql.Variable("x"),
	}}}
	r := e.scan(q, 0)
	if len(r.Vars) != 1 || r.Vars[0] != "x" {
		t.Errorf("vars = %v", r.Vars)
	}
	if r.Nodes[0].N != 1 {
		t.Errorf("repeated-variable scan returned %d rows, want 1", r.Nodes[0].N)
	}
	// Unknown constant: empty scan.
	q2 := sparql.MustParse(`SELECT ?x WHERE { ?x <nosuch> ?y }`)
	if r := e.scan(q2, 0); r.Nodes[0].N != 0 {
		t.Errorf("unknown property scan returned %d rows", r.Nodes[0].N)
	}
}
