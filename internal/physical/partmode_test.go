package physical

import (
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

func subjOnlyExec(g *rdf.Graph, n int) *testExec {
	return newExecMode(g, n, partition.SubjectOnly, nil)
}

func mscPlan(t *testing.T, q *sparql.Query) *core.Plan {
	t.Helper()
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	return res.Unique[0]
}

func TestSubjectOnlyStarStaysMapOnly(t *testing.T) {
	g := testGraph()
	q := sparql.MustParse(`SELECT ?p ?c WHERE { ?p <livesIn> ?c . ?p <knows> ?q }`)
	q.Name = "subj-star"
	pp, err := CompileWith(mscPlan(t, q), SubjectOnlyCoLocator())
	if err != nil {
		t.Fatal(err)
	}
	if !pp.MapOnly() {
		t.Fatalf("s-s star not map-only under subject-only partitioning:\n%s", pp.Describe())
	}
	x := subjOnlyExec(g, 4)
	r, err := x.Execute(pp)
	if err != nil {
		t.Fatal(err)
	}
	if want := refeval.Count(g, q); len(r.Rows) != want {
		t.Errorf("got %d rows, want %d", len(r.Rows), want)
	}
}

func TestSubjectOnlyChainNeedsShuffle(t *testing.T) {
	// An s-o join is co-located under three-replica partitioning but
	// NOT under subject-only partitioning: the same logical plan
	// compiles to a map-only job in one mode and a reduce job in the
	// other — the paper's argument for the three-replica layout.
	g := testGraph()
	q := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`)
	q.Name = "subj-chain"
	plan := mscPlan(t, q)

	three, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !three.MapOnly() {
		t.Error("three-replica: s-o join should be map-only")
	}
	subj, err := CompileWith(plan, SubjectOnlyCoLocator())
	if err != nil {
		t.Fatal(err)
	}
	if subj.MapOnly() {
		t.Error("subject-only: s-o join cannot be map-only")
	}
	// Both must compute the correct answer on their stores.
	want := refeval.Count(g, q)
	xs := subjOnlyExec(g, 4)
	rs, err := xs.Execute(subj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != want {
		t.Errorf("subject-only: got %d rows, want %d", len(rs.Rows), want)
	}
	x3 := newExec(g, 4)
	r3, err := x3.Execute(three)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Rows) != want {
		t.Errorf("three-replica: got %d rows, want %d", len(r3.Rows), want)
	}
	// And the subject-only run must be slower (extra job + shuffle).
	if rs.Time <= r3.Time {
		t.Errorf("subject-only time %.0f <= three-replica %.0f", rs.Time, r3.Time)
	}
}

func TestSubjectOnlyStorageIsOneReplica(t *testing.T) {
	g := testGraph()
	store := dstore.NewStore(3)
	partition.LoadWithPolicy(store, g, partition.SubjectOnly, nil)
	stored, snap := 0, store.Current()
	for i := 0; i < snap.N(); i++ {
		for _, f := range snap.Node(i).Files() {
			stored += f.NumRows()
		}
	}
	if stored != g.Len() {
		t.Errorf("subject-only stored %d rows, want %d (one replica)", stored, g.Len())
	}
	if got := partition.SubjectOnly.String(); got != "subject-only" {
		t.Errorf("mode name = %q", got)
	}
}
