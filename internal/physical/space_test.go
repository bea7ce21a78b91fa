package physical

import (
	"math/rand"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// TestSpaceClassificationMatchesClassify: a core.Space classifies each
// interned operator once, by the rule CompileWith applies per plan under
// the nil co-locator. Every candidate of every space must agree with a
// compile of its own materialisation, operator for operator: scan or
// join kind, reduce-join level, job count.
func TestSpaceClassificationMatchesClassify(t *testing.T) {
	queries := lubm.Queries()
	rng := rand.New(rand.NewSource(17))
	for _, sh := range qgen.Shapes {
		for _, n := range []int{3, 5, 7} {
			queries = append(queries, qgen.Generate(sh, n, rng))
		}
	}
	for _, q := range queries {
		for _, m := range []vargraph.Method{vargraph.MSC, vargraph.SC} {
			res, err := core.Optimize(q, core.Options{Method: m, MaxPlans: 1000, MaxCoversPerStep: 5000})
			if err != nil {
				t.Fatal(err)
			}
			sp := res.Space()
			for i := 0; i < sp.Candidates(); i++ {
				checkCandidate(t, sp, q, i)
			}
		}
	}
}

func checkCandidate(t *testing.T, sp *core.Space, q *sparql.Query, i int) {
	t.Helper()
	p, err := sp.Plan(q, i)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := CompileWith(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pp.NumJobs() != sp.Jobs(i) {
		t.Fatalf("%s candidate %d: %d jobs by CompileWith, %d by the space", q.Name, i, pp.NumJobs(), sp.Jobs(i))
	}
	var walk func(in *Info, id int32)
	walk = func(in *Info, id int32) {
		op := in.Op
		kind := KindReduceJoin
		switch {
		case sp.Pattern(id) >= 0:
			kind = KindScan
		case sp.Level(id) == 0:
			kind = KindMapJoin
		}
		if in.Kind != kind || in.Level != sp.Level(id) || (kind == KindScan && op.Pattern != sp.Pattern(id)) {
			t.Fatalf("%s candidate %d: CompileWith says %v at level %d, the space %v at level %d", q.Name, i, in.Kind, in.Level, kind, sp.Level(id))
		}
		for k, c := range sp.Children(id) {
			walk(in.children[k], c)
		}
	}
	walk(pp.Infos[0], sp.Root(i))
}
