package physical

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// testGraph builds a small social-style graph exercising s-s, s-o and
// o-o joins, constants, and rdf:type.
func testGraph() *rdf.Graph {
	g := rdf.NewGraph()
	people := []string{"alice", "bob", "carol", "dave", "eve"}
	for i, p := range people {
		g.AddSPO(p, sparql.RDFType, "Person")
		g.AddSPO(p, "livesIn", fmt.Sprintf("city%d", i%2))
		if i+1 < len(people) {
			g.AddSPO(p, "knows", people[i+1])
		}
		g.AddSPOLit(p, "name", strings.ToUpper(p))
	}
	g.AddSPO("alice", "knows", "carol")
	g.AddSPO("city0", sparql.RDFType, "City")
	g.AddSPO("city1", sparql.RDFType, "City")
	return g
}

// testExec is a graph partitioned for a test and the context its plans
// run through, on the current epoch, with the result cache given (nil
// for none).
type testExec struct {
	part  *partition.Partitioner
	dict  *rdf.Dict
	ctx   *ExecContext
	cache *rescache.Cache
}

// newExecMode partitions g over n nodes under mode and policy (nil:
// modulo) and returns a one-lane testExec over it.
func newExecMode(g *rdf.Graph, n int, mode partition.Mode, policy partition.Policy) *testExec {
	part := partition.LoadWithPolicy(dstore.NewStore(n), g, mode, policy)
	return &testExec{part: part, dict: g.Dict, ctx: NewExecContext(1, mapreduce.DefaultConstants())}
}

// newExec partitions g over n nodes with three replicas.
func newExec(g *rdf.Graph, n int) *testExec { return newExecMode(g, n, partition.ThreeReplica, nil) }

// Run runs pp as ExecContext.Run does.
func (x *testExec) Run(pp *Plan, use func(*Result, Rows) error) error {
	return x.ctx.Run(pp, x.part.Current(), x.dict, x.cache, use)
}

// Execute runs pp and returns its result with the rows copied out.
func (x *testExec) Execute(pp *Plan) (res *Result, err error) {
	err = x.Run(pp, func(r *Result, rows Rows) error {
		r.Rows, res = rows.Materialise(), r
		return nil
	})
	return res, err
}

// runBest optimizes q with MSC, picks the first plan, and executes it.
func runBest(t *testing.T, x *testExec, q *sparql.Query) (*Result, *Plan) {
	t.Helper()
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unique) == 0 {
		t.Fatal("no plans")
	}
	pp, err := Compile(res.Unique[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := x.Execute(pp)
	if err != nil {
		t.Fatal(err)
	}
	return r, pp
}

// assertMatchesRef compares execution output against the reference
// evaluator.
func assertMatchesRef(t *testing.T, g *rdf.Graph, q *sparql.Query, r *Result) {
	t.Helper()
	want := refeval.Eval(g, q)
	if len(r.Rows) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", q.Name, len(r.Rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if r.Rows[i][j] != want[i][j] {
				t.Fatalf("%s: row %d = %v, want %v", q.Name, i, r.Rows[i], want[i])
			}
		}
	}
}

func TestExecuteSinglePattern(t *testing.T) {
	g := testGraph()
	x := newExec(g, 4)
	q := sparql.MustParse(`SELECT ?p WHERE { ?p <knows> ?q }`)
	r, pp := runBest(t, x, q)
	if !pp.MapOnly() {
		t.Errorf("single-pattern plan not map-only: %s", pp.Describe())
	}
	assertMatchesRef(t, g, q, r)
}

func TestExecuteStarMapOnly(t *testing.T) {
	// A pure subject-star query is PWOC: one map-only job.
	g := testGraph()
	x := newExec(g, 4)
	q := sparql.MustParse(`SELECT ?p ?c WHERE {
		?p a <Person> . ?p <livesIn> ?c . ?p <knows> ?q }`)
	r, pp := runBest(t, x, q)
	if !pp.MapOnly() {
		t.Errorf("star plan not map-only:\n%s", pp.Describe())
	}
	if len(r.Jobs) != 1 || !r.Jobs[0].MapOnly {
		t.Errorf("jobs = %+v, want one map-only job", r.Jobs)
	}
	assertMatchesRef(t, g, q, r)
}

func TestExecuteTwoPatternChainIsMapOnly(t *testing.T) {
	// With three-replica partitioning even an s-o join is co-located:
	// t1 reads the object replica, t2 the subject replica, both hashed
	// on ?b. This is the paper's "Q1(2|MMM)" behaviour.
	g := testGraph()
	x := newExec(g, 4)
	q := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`)
	r, pp := runBest(t, x, q)
	if !pp.MapOnly() {
		t.Error("single-level s-o join should be map-only under 3-replica partitioning")
	}
	assertMatchesRef(t, g, q, r)
}

func TestExecuteChainNeedsReduce(t *testing.T) {
	g := testGraph()
	x := newExec(g, 4)
	// Two join levels: the second-level join consumes a map join, so
	// it must be a reduce join (one MapReduce job with a shuffle).
	q := sparql.MustParse(`SELECT ?a ?d WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <knows> ?d }`)
	r, pp := runBest(t, x, q)
	if pp.MapOnly() {
		t.Error("two-level chain executed map-only; it requires a shuffle")
	}
	assertMatchesRef(t, g, q, r)
	if r.Time <= 0 || r.Work <= 0 {
		t.Errorf("time=%v work=%v, want positive", r.Time, r.Work)
	}
}

func TestExecuteWithConstants(t *testing.T) {
	g := testGraph()
	x := newExec(g, 4)
	for _, src := range []string{
		`SELECT ?p WHERE { ?p <livesIn> <city0> . ?p a <Person> }`,
		`SELECT ?p WHERE { ?p <name> "ALICE" . ?p <knows> ?q }`,
		`SELECT ?p ?q WHERE { ?p <knows> ?q . ?q <livesIn> <city1> }`,
	} {
		q := sparql.MustParse(src)
		q.Name = src
		r, _ := runBest(t, x, q)
		assertMatchesRef(t, g, q, r)
		if len(r.Rows) == 0 {
			t.Errorf("%s: no results; test graph should produce some", src)
		}
	}
}

func TestExecuteEmptyResult(t *testing.T) {
	g := testGraph()
	x := newExec(g, 3)
	q := sparql.MustParse(`SELECT ?p WHERE { ?p <livesIn> <nowhere> . ?p a <Person> }`)
	r, _ := runBest(t, x, q)
	if len(r.Rows) != 0 {
		t.Errorf("got %d rows for impossible constant, want 0", len(r.Rows))
	}
}

func TestExecuteVariablePredicate(t *testing.T) {
	g := testGraph()
	x := newExec(g, 4)
	q := sparql.MustParse(`SELECT ?p ?r WHERE { <alice> ?r ?x . ?x ?p ?y }`)
	r, _ := runBest(t, x, q)
	assertMatchesRef(t, g, q, r)
}

func TestAllMSCPlansAgree(t *testing.T) {
	// Every MSC plan of a 4-pattern query must compute the same result.
	g := testGraph()
	q := sparql.MustParse(`SELECT ?a ?c WHERE {
		?a <knows> ?b . ?b <knows> ?c . ?c <livesIn> ?t . ?a <livesIn> ?t }`)
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	want := refeval.Eval(g, q)
	for pi, p := range res.Unique {
		x := newExec(g, 5)
		pp, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := x.Execute(pp)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("plan %d: %d rows, want %d\n%s", pi, len(r.Rows), len(want), p)
		}
	}
}

func TestJobCountEqualsReduceLevels(t *testing.T) {
	g := testGraph()
	x := newExec(g, 4)
	q := sparql.MustParse(`SELECT ?a ?d WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <knows> ?d }`)
	r, pp := runBest(t, x, q)
	if got := len(r.Jobs); got != pp.NumJobs() {
		t.Errorf("executed %d jobs, plan says %d", got, pp.NumJobs())
	}
	if pp.JobLabel() == "M" {
		t.Error("reduce plan labelled map-only")
	}
}

func TestDescribeMentionsOperators(t *testing.T) {
	g := testGraph()
	_ = g
	q := sparql.MustParse(`SELECT ?a ?c WHERE {
		?a <knows> ?b . ?a <livesIn> ?t . ?b <knows> ?c . ?c <livesIn> ?u }`)
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Compile(res.Unique[0])
	if err != nil {
		t.Fatal(err)
	}
	d := pp.Describe()
	if !strings.Contains(d, "RJ_") && !strings.Contains(d, "MJ_") {
		t.Errorf("description lacks joins:\n%s", d)
	}
}

func TestCompileRejectsBadRoot(t *testing.T) {
	p := &core.Plan{Query: sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y }`),
		Root: &core.Op{Kind: core.OpMatch}}
	if _, err := Compile(p); err == nil {
		t.Error("Compile accepted a plan without projection root")
	}
}

// TestCompileRefusesShuffleOverflow pins the bound of a shuffled
// record's 16-bit tag and key count: a reduce join of up to
// mapreduce.MaxInputs inputs on up to mapreduce.MaxKeyCells attributes
// compiles, one more of either fails with a *ShuffleWidthError.
func TestCompileRefusesShuffleOverflow(t *testing.T) {
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y . ?x <q> ?z }`)
	scans := []*core.Op{{Kind: core.OpMatch, Pattern: 0, Attrs: []string{"x", "y"}}, {Kind: core.OpMatch, Pattern: 1, Attrs: []string{"x", "z"}}}
	never := func(*core.Op, *sparql.Query) bool { return false } // every join reduce-side
	compile := func(inputs, keyWidth int) error {
		join := &core.Op{Kind: core.OpJoin, Attrs: []string{"x"}}
		for i := 0; i < inputs; i++ {
			join.Children = append(join.Children, scans[i%2])
		}
		for i := 0; i < keyWidth; i++ {
			join.JoinAttrs = append(join.JoinAttrs, fmt.Sprintf("v%d", i))
		}
		root := &core.Op{Kind: core.OpProject, Attrs: []string{"x"}, Children: []*core.Op{join}}
		_, err := CompileWith(&core.Plan{Query: q, Root: root}, never)
		return err
	}
	for _, c := range []struct {
		inputs, keyWidth int
		ok               bool
	}{
		{mapreduce.MaxInputs, 1, true},
		{mapreduce.MaxInputs + 1, 1, false},
		{2, mapreduce.MaxKeyCells, true},
		{2, mapreduce.MaxKeyCells + 1, false},
	} {
		err := compile(c.inputs, c.keyWidth)
		var we *ShuffleWidthError
		switch {
		case c.ok && err != nil:
			t.Errorf("%d inputs on %d attributes: %v", c.inputs, c.keyWidth, err)
		case !c.ok && (!errors.As(err, &we) || we.Inputs != c.inputs || we.KeyWidth != c.keyWidth):
			t.Errorf("%d inputs on %d attributes: err = %v, want a *ShuffleWidthError naming them", c.inputs, c.keyWidth, err)
		}
	}
}

func TestRandomQueriesMatchReference(t *testing.T) {
	// Property-style test: random small graphs and random connected
	// chain/star queries must match the reference evaluator.
	rng := rand.New(rand.NewSource(7))
	preds := []string{"p0", "p1", "p2"}
	for iter := 0; iter < 20; iter++ {
		g := rdf.NewGraph()
		for i := 0; i < 60; i++ {
			s := fmt.Sprintf("n%d", rng.Intn(12))
			o := fmt.Sprintf("n%d", rng.Intn(12))
			g.AddSPO(s, preds[rng.Intn(len(preds))], o)
		}
		var q *sparql.Query
		if iter%2 == 0 { // chain of length 3
			q = sparql.MustParse(fmt.Sprintf(
				`SELECT ?a ?d WHERE { ?a <%s> ?b . ?b <%s> ?c . ?c <%s> ?d }`,
				preds[rng.Intn(3)], preds[rng.Intn(3)], preds[rng.Intn(3)]))
		} else { // star with 3 branches
			q = sparql.MustParse(fmt.Sprintf(
				`SELECT ?a ?b ?c WHERE { ?x <%s> ?a . ?x <%s> ?b . ?x <%s> ?c }`,
				preds[rng.Intn(3)], preds[rng.Intn(3)], preds[rng.Intn(3)]))
		}
		q.Name = fmt.Sprintf("rand%d", iter)
		checkRootReducesAlone(t, q)
		x := newExec(g, 1+rng.Intn(6))
		r, _ := runBest(t, x, q)
		want := refeval.Eval(g, q)
		if len(r.Rows) != len(want) {
			t.Fatalf("iter %d (%s): got %d rows, want %d", iter, q, len(r.Rows), len(want))
		}
	}
}

// checkRootReducesAlone pins, for every MSC plan of q, what
// levelReduce relies on to fill one block at a time at the bottom of a
// lane's arena: the root's groups (ID 0) sort before every other join's
// in the shuffle's key order, and the last job, the one with a sink,
// reduces the root alone. So the sink's block never fills beside
// another join's rows.
func checkRootReducesAlone(t *testing.T, q *sparql.Query) {
	t.Helper()
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Unique {
		pp, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if pp.MapOnly() {
			continue
		}
		root := pp.Infos[0]
		if root.Op != pp.Root || root.ID != 0 {
			t.Fatalf("%s plan %d: Infos[0] is not the root", q.Name, i)
		}
		if last := pp.Levels[len(pp.Levels)-1]; len(last) != 1 || last[0] != root {
			t.Fatalf("%s plan %d: the last job reduces %d joins, want the root alone:\n%s", q.Name, i, len(last), pp.Describe())
		}
		for _, in := range pp.Infos[1:] {
			if in.Kind == KindReduceJoin && mapreduce.EncodeKey(root.ID, nil) >= mapreduce.EncodeKey(in.ID, nil) {
				t.Fatalf("%s plan %d: join %d's groups sort before the root's", q.Name, i, in.ID)
			}
		}
	}
}

// TestRootReducesAlone checks checkRootReducesAlone over every MSC plan
// of the 14 LUBM queries (TestRandomQueriesMatchReference checks it over
// its random chains and stars).
func TestRootReducesAlone(t *testing.T) {
	for _, q := range lubm.Queries() {
		checkRootReducesAlone(t, q)
	}
}

func TestDeterministicTiming(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`)
	var times []float64
	for i := 0; i < 3; i++ {
		x := newExec(g, 4)
		r, _ := runBest(t, x, q)
		times = append(times, r.Time)
	}
	if times[0] != times[1] || times[1] != times[2] {
		t.Errorf("simulated times differ across runs: %v", times)
	}
}
