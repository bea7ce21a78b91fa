package physical

import (
	"fmt"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// chainData builds a graph where a 4-hop chain query has wide
// intermediate results.
func chainData() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 40; i++ {
		g.AddSPO(fmt.Sprintf("a%d", i), "p1", fmt.Sprintf("b%d", i%8))
		g.AddSPO(fmt.Sprintf("b%d", i%8), "p2", fmt.Sprintf("c%d", i%4))
		g.AddSPO(fmt.Sprintf("c%d", i%4), "p3", fmt.Sprintf("d%d", i%2))
		g.AddSPO(fmt.Sprintf("d%d", i%2), "p4", fmt.Sprintf("e%d", i%5))
	}
	return g
}

func TestProjectionPushdownReducesShuffleVolume(t *testing.T) {
	g := chainData()
	q := sparql.MustParse(`SELECT ?a ?e WHERE {
		?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d . ?d <p4> ?e }`)
	q.Name = "pushdown"
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Unique[0]
	want := refeval.Eval(g, q)

	run := func(p *core.Plan) (rows, cells int) {
		x := newExec(g, 5)
		pp, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := x.Execute(pp)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range r.Jobs {
			cells += j.ShuffledCells
		}
		return len(r.Rows), cells
	}
	rowsPlain, cellsPlain := run(plan)
	rowsTrim, cellsTrim := run(core.PushProjections(plan))

	if rowsPlain != len(want) || rowsTrim != len(want) {
		t.Fatalf("rows: plain %d, trimmed %d, want %d", rowsPlain, rowsTrim, len(want))
	}
	if cellsPlain == 0 {
		t.Skip("plan shuffled nothing; query too small to compare volumes")
	}
	if cellsTrim >= cellsPlain {
		t.Errorf("pushdown did not reduce shuffle volume: %d vs %d cells", cellsTrim, cellsPlain)
	}
}

func TestLevelSkippingMapShuffler(t *testing.T) {
	// Build a plan where a level-1 reduce join feeds a level-3 reduce
	// join directly (its output must be re-read by a map shuffler two
	// jobs later): E = RJ(B, F) with B at level 1 and F at level 2.
	g := chainData()
	q := sparql.MustParse(`SELECT ?a ?g WHERE {
		?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d . ?d <p4> ?g . ?a <p1> ?x . ?x <p2> ?y }`)
	q.Name = "skip"
	m := func(i int) *core.Op { return core.NewMatch(q, i) }
	join := func(children ...*core.Op) *core.Op {
		op, err := core.NewJoinOp(children)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	// Left branch: a left-deep chain over t1..t4, reduce joins at
	// levels 1 and 2. Right branch: (t5 ⋈ t6) ⋈ t1, a reduce join at
	// level 1. The top join is then at level 3 and must re-read the
	// right branch's output with a map shuffler two jobs after it was
	// produced.
	j1 := join(m(0), m(1)) // map join
	j2 := join(j1, m(2))   // RJ level 1
	j3 := join(j2, m(3))   // RJ level 2
	b := join(join(m(4), m(5)), m(0))
	e := join(j3, b) // RJ level 3; b skips level 2
	plan := core.NewPlan(q, e)

	pp, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.NumJobs(); got != 3 {
		t.Fatalf("expected 3 jobs (level skip), got %d:\n%s", got, pp.Describe())
	}
	x := newExec(g, 4)
	r, err := x.Execute(pp)
	if err != nil {
		t.Fatal(err)
	}
	want := refeval.Eval(g, q)
	if len(r.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(want))
	}
}

// TestRepeatedVariableSurvivesPushdown checks that a pattern repeating a
// variable keeps its filter when projection pushdown trims that
// variable from the scan's schema: `?x ?p ?x` matches only triples
// whose subject is their object, whatever the scan outputs.
func TestRepeatedVariableSurvivesPushdown(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO("a", "loops", "a")
	g.AddSPO("a", "links", "b")
	g.AddSPO("b", "links", "c")
	q := sparql.MustParse(`SELECT ?p WHERE { ?x ?p ?x }`)
	q.Name = "loop"
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Compile(core.PushProjections(res.Unique[0]))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newExec(g, 3).Execute(pp)
	if err != nil {
		t.Fatal(err)
	}
	if want := refeval.Eval(g, q); len(r.Rows) != len(want) || len(want) != 1 {
		t.Fatalf("got %d rows, want %d (the reference's), and it has 1", len(r.Rows), len(want))
	}
}
