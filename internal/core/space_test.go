package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// sameOps reports whether two operator trees are equal field for field,
// children in order: what physical.Plan.Key renders of them.
func sameOps(a, b *Op) bool {
	if a.Kind != b.Kind || a.Pattern != b.Pattern || !slices.Equal(a.JoinAttrs, b.JoinAttrs) ||
		!slices.Equal(a.Residual, b.Residual) || !slices.Equal(a.Attrs, b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameOps(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// checkSpaceMatches requires candidate i of sp, materialised for q, to
// be the i-th unique plan of res, a fresh enumeration for q: same
// signature, height and operators in order, and a DAG of as many
// distinct operators.
func checkSpaceMatches(t *testing.T, sp *Space, q *sparql.Query, res *Result) {
	t.Helper()
	if sp.Candidates() != len(res.Unique) || sp.Explored != len(res.Plans) || sp.Truncated != res.Truncated {
		t.Fatalf("%s: space of %d candidates (%d explored, truncated %v), enumeration of %d (%d, %v)",
			q.Name, sp.Candidates(), sp.Explored, sp.Truncated, len(res.Unique), len(res.Plans), res.Truncated)
	}
	for i, want := range res.Unique {
		got, err := sp.Plan(q, i)
		if err != nil {
			t.Fatalf("%s candidate %d: %v", q.Name, i, err)
		}
		if got.Signature() != want.Signature() || got.Height() != want.Height() || got.Joins() != want.Joins() ||
			!sameOps(got.Root, want.Root) {
			t.Fatalf("%s candidate %d materialises as\n%swant\n%s", q.Name, i, got, want)
		}
		if got.Query != q || !reflect.DeepEqual(got.Root.Attrs, q.Select) {
			t.Fatalf("%s candidate %d: not a plan of the query it was materialised for", q.Name, i)
		}
	}
}

func TestSpaceMatchesOptimize(t *testing.T) {
	opts := Options{MaxPlans: 20000, MaxCoversPerStep: 5000}
	for _, q := range lubm.Queries() {
		res, err := Optimize(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkSpaceMatches(t, res.Space(), q, res)
	}
	// Every variant, DAG plans of the overlapping covers included.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 16; iter++ {
		q := qgen.Generate(qgen.Shapes[iter%len(qgen.Shapes)], 2+rng.Intn(4), rng)
		for _, m := range vargraph.AllMethods {
			res, err := Optimize(q, Options{Method: m, MaxPlans: 2000})
			if err != nil {
				t.Fatal(err)
			}
			checkSpaceMatches(t, res.Space(), q, res)
		}
	}
}

// TestSpaceSharedByVariants is the reason a Space exists: the queries of
// one template, whatever constant they name, have one written shape and
// one Space, and a candidate materialised from another variant's Space is
// the plan the variant's own enumeration puts at that index.
func TestSpaceSharedByVariants(t *testing.T) {
	opts := Options{MaxPlans: 20000, MaxCoversPerStep: 5000}
	base := lubm.UniversityVariants(0)
	for c := 1; c <= 3; c++ {
		for k, q := range lubm.UniversityVariants(c) {
			if WrittenShape(q) != WrittenShape(base[k]) {
				t.Fatalf("%s: university %d has a written shape of its own", q.Name, c)
			}
			res, err := Optimize(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := Optimize(base[k], opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Space(), bres.Space()) {
				t.Errorf("%s: universities 0 and %d enumerate different spaces", q.Name, c)
			}
			checkSpaceMatches(t, bres.Space(), q, res)
		}
	}
	// Not the canonical shape: a renamed query is planned under its own
	// variable names.
	a := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y . ?y <q> <c> }`)
	for _, src := range []string{
		`SELECT ?a WHERE { ?a <p> ?y . ?y <q> <c> }`,
		`SELECT ?x WHERE { ?y <q> <c> . ?x <p> ?y }`,
		`SELECT ?x WHERE { ?x <p> ?y . ?y ?q <c> }`,
	} {
		if b := sparql.MustParse(src); WrittenShape(a) == WrittenShape(b) {
			t.Errorf("%s and %s share a written shape", a, b)
		}
	}
	if b := sparql.MustParse(`SELECT ?y WHERE { ?x <p2> ?y . ?y <q2> "d" }`); WrittenShape(a) != WrittenShape(b) {
		t.Errorf("%s and %s differ in constants and SELECT only, yet not in written shape", a, b)
	}
}

// TestSpaceKeepsEqualOperatorsApart builds the plan a redundant simple
// cover yields — the join of t1 and t2 formed twice, at two levels, as
// two operators the executor runs twice — and requires both to survive
// interning, in this plan only.
func TestSpaceKeepsEqualOperatorsApart(t *testing.T) {
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?a . ?x <p2> ?b . ?x <p3> ?c . ?x <p4> ?d . ?x <p5> ?e }`)
	x := []string{"x"}
	g0 := vargraph.FromQuery(q)
	g1 := g0.Reduce(vargraph.Decomposition{{Nodes: []int{0, 1}, Vars: x}, {Nodes: []int{0}}, {Nodes: []int{1}}, {Nodes: []int{2, 3, 4}, Vars: x}})
	g2 := g1.Reduce(vargraph.Decomposition{{Nodes: []int{1, 2}, Vars: x}, {Nodes: []int{0, 3}, Vars: x}})
	g3 := g2.Reduce(vargraph.Decomposition{{Nodes: []int{0, 1}, Vars: x}})
	twice, err := CreateQueryPlans(q, []*vargraph.Graph{g0, g1, g2, g3})
	if err != nil {
		t.Fatal(err)
	}
	h1 := g0.Reduce(vargraph.Decomposition{{Nodes: []int{0, 1}, Vars: x}, {Nodes: []int{2, 3, 4}, Vars: x}})
	h2 := h1.Reduce(vargraph.Decomposition{{Nodes: []int{0, 1}, Vars: x}})
	once, err := CreateQueryPlans(q, []*vargraph.Graph{g0, h1, h2})
	if err != nil {
		t.Fatal(err)
	}
	if twice.Joins() != 5 || once.Joins() != 3 {
		t.Fatalf("the hand-built plans have %d and %d joins, the test assumes 5 and 3", twice.Joins(), once.Joins())
	}
	sp := SpaceOf([]*Plan{once, twice, once})
	for i, want := range []*Plan{once, twice, once} {
		got, err := sp.Plan(q, i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Joins() != want.Joins() || got.Signature() != want.Signature() {
			t.Errorf("candidate %d materialises with %d joins as %s, want %d as %s", i, got.Joins(), got.Signature(), want.Joins(), want.Signature())
		}
	}
	if sp.Root(0) != sp.Root(2) {
		t.Error("one plan interned twice has two roots")
	}
	// 5 matches; once: 3 joins; twice adds the second t1⋈t2, the join
	// over it and its own root.
	if sp.Ops() != 5+3+3 {
		t.Errorf("%d operators interned, want 11", sp.Ops())
	}
}

// TestSpaceRefusesMalformedPlans: what physical.CompileWith refuses is a
// candidate without a root, and does not disturb its neighbours.
func TestSpaceRefusesMalformedPlans(t *testing.T) {
	q := chain3()
	res := optimize(t, q, vargraph.MSC)
	good := res.Unique[0]
	noProject := &Plan{Query: q, Root: good.Root.Children[0]}
	nested := NewPlan(q, good.Root)
	sp := SpaceOf([]*Plan{noProject, good, nested})
	if sp.Root(0) >= 0 || sp.Root(1) < 0 || sp.Root(2) >= 0 {
		t.Errorf("roots %d %d %d, want only the middle candidate rooted", sp.Root(0), sp.Root(1), sp.Root(2))
	}
	if _, err := sp.Plan(q, 0); err == nil {
		t.Error("a rootless candidate materialised")
	}
	if _, err := sp.Plan(paperQ1(), 1); err == nil {
		t.Error("a candidate materialised for a query of another shape")
	}
}
