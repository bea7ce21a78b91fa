package binplan

import (
	"fmt"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
)

func testData() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 30; i++ {
		g.AddSPO(fmt.Sprintf("a%d", i), "p1", fmt.Sprintf("b%d", i%10))
		g.AddSPO(fmt.Sprintf("b%d", i%10), "p2", fmt.Sprintf("c%d", i%5))
		g.AddSPO(fmt.Sprintf("c%d", i%5), "p3", fmt.Sprintf("d%d", i%3))
		g.AddSPO(fmt.Sprintf("a%d", i), "p4", fmt.Sprintf("e%d", i%2))
	}
	return g
}

func model(g *rdf.Graph, q *sparql.Query) *cost.Model {
	return cost.NewModel(mapreduce.DefaultConstants(), cost.NewStats(g, q))
}

// checkBinary asserts every join in the plan has exactly two inputs and
// that leftDeep joins keep a match on the right.
func checkBinary(t *testing.T, op *core.Op, leftDeep bool) {
	t.Helper()
	if op.Kind == core.OpJoin {
		if len(op.Children) != 2 {
			t.Fatalf("join has %d children, want 2", len(op.Children))
		}
		if leftDeep && op.Children[1].Kind != core.OpMatch && op.Children[0].Kind != core.OpMatch {
			t.Fatalf("linear plan has a join with two non-match children")
		}
	}
	for _, c := range op.Children {
		checkBinary(t, c, leftDeep)
	}
}

func TestBestBushyStructureAndResults(t *testing.T) {
	g := testData()
	q := sparql.MustParse(`SELECT ?a ?d WHERE { ?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d . ?a <p4> ?e }`)
	q.Name = "bushy"
	p, err := BestBushy(q, model(g, q))
	if err != nil {
		t.Fatal(err)
	}
	checkBinary(t, p.Root, false)
	execMatchesRef(t, g, q, p)
}

func TestBestLinearStructureAndResults(t *testing.T) {
	g := testData()
	q := sparql.MustParse(`SELECT ?a ?d WHERE { ?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d . ?a <p4> ?e }`)
	q.Name = "linear"
	p, err := BestLinear(q, model(g, q))
	if err != nil {
		t.Fatal(err)
	}
	checkBinary(t, p.Root, true)
	execMatchesRef(t, g, q, p)
}

func execMatchesRef(t *testing.T, g *rdf.Graph, q *sparql.Query, p *core.Plan) {
	t.Helper()
	store := dstore.NewStore(4)
	part := partition.LoadWithPolicy(store, g, partition.ThreeReplica, nil)
	pp, err := physical.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var r *physical.Result
	err = physical.NewExecContext(1, mapreduce.DefaultConstants()).Run(pp, part.Current(), g.Dict, nil, func(res *physical.Result, rows physical.Rows) error {
		res.Rows, r = rows.Materialise(), res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := refeval.Eval(g, q)
	if len(r.Rows) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", q.Name, len(r.Rows), len(want))
	}
}

func TestLinearHeightAtLeastBushy(t *testing.T) {
	g := testData()
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d . ?a <p4> ?e }`)
	m := model(g, q)
	bushy, err := BestBushy(q, m)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := BestLinear(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if linear.Height() < bushy.Height() {
		t.Errorf("linear height %d < bushy height %d", linear.Height(), bushy.Height())
	}
	// A 4-pattern left-deep plan has height 3.
	if linear.Height() != 3 {
		t.Errorf("linear height = %d, want 3", linear.Height())
	}
	if linear.Joins() != 3 || bushy.Joins() != 3 {
		t.Errorf("joins: linear %d bushy %d, want 3 each", linear.Joins(), bushy.Joins())
	}
}

func TestSinglePattern(t *testing.T) {
	g := testData()
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <p1> ?b }`)
	m := model(g, q)
	for _, f := range []func(*sparql.Query, *cost.Model) (*core.Plan, error){BestBushy, BestLinear} {
		p, err := f(q, m)
		if err != nil {
			t.Fatal(err)
		}
		if p.Joins() != 0 || p.Height() != 0 {
			t.Errorf("single-pattern plan has joins=%d height=%d", p.Joins(), p.Height())
		}
	}
}

func TestRejectsDisconnected(t *testing.T) {
	g := testData()
	q := &sparql.Query{Select: []string{"a"}, Patterns: []sparql.TriplePattern{
		{S: sparql.Variable("a"), P: sparql.Constant(rdf.NewIRI("p1")), O: sparql.Variable("b")},
		{S: sparql.Variable("x"), P: sparql.Constant(rdf.NewIRI("p2")), O: sparql.Variable("y")},
	}}
	m := model(g, q)
	if _, err := BestBushy(q, m); err == nil {
		t.Error("BestBushy accepted a cartesian query")
	}
	if _, err := BestLinear(q, m); err == nil {
		t.Error("BestLinear accepted a cartesian query")
	}
}

func TestRejectsEmptyAndHuge(t *testing.T) {
	g := testData()
	empty := &sparql.Query{}
	if _, err := BestBushy(empty, model(g, sparql.MustParse(`SELECT ?a WHERE { ?a <p1> ?b }`))); err == nil {
		t.Error("accepted empty query")
	}
}
