package physical

import (
	"reflect"
	"slices"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/vargraph"
)

// TestStaleRangeBlocksNeverLeak runs, on one pooled 3-lane context, a
// three-job LUBM plan that leaves rows in every (node, range) block of
// its non-final reduce joins, and then the same plan under a reversed
// SELECT list through the same result cache: a different answer, so one
// cache miss that runs all three jobs in the dirty context. The
// context's range blocks from the first run must not reach the second:
// rows and JobStats equal the one-lane uncached pin.
func TestStaleRangeBlocksNeverLeak(t *testing.T) {
	const lanes = 3
	g := lubm.Generate(lubm.DefaultConfig(1))
	q, err := lubm.Query("Q12")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	// filled reports whether the run through ctx, while it lends its rows,
	// holds rows in every range block of pp's non-final reduce joins.
	filled := func(ctx *ExecContext, pp *Plan) bool {
		for _, in := range pp.Infos {
			if in.Kind != KindReduceJoin || in.Op == pp.Root {
				continue
			}
			for _, rngs := range ctx.interm[in.ID] {
				if len(rngs) != lanes || slices.ContainsFunc(rngs, func(b mapreduce.Block) bool { return b.N == 0 }) {
					return false
				}
			}
		}
		return true
	}

	ctx := NewExecContext(lanes, mapreduce.DefaultConstants())
	var (
		pp    *Plan
		plan  *core.Plan
		cache *rescache.Cache
	)
	for _, p := range res.Unique {
		cand, err := Compile(p)
		if err != nil || cand.NumJobs() != 3 {
			continue
		}
		cache = rescache.New(64 << 20)
		x := newExec(g, 3)
		x.ctx, x.cache = ctx, cache
		full := false
		if err := x.Run(cand, func(*Result, Rows) error { full = filled(ctx, cand); return nil }); err != nil {
			t.Fatal(err)
		}
		if full {
			pp, plan = cand, p
			break
		}
	}
	if pp == nil {
		t.Fatal("no three-job plan of Q12 fills every range block")
	}

	q2 := *q
	q2.Select = slices.Clone(q.Select)
	slices.Reverse(q2.Select)
	root := *plan.Root
	root.Attrs = q2.Select
	pp2, err := Compile(&core.Plan{Query: &q2, Root: &root})
	if err != nil {
		t.Fatal(err)
	}
	if pp2.NumJobs() != pp.NumJobs() || pp.Key() == pp2.Key() {
		t.Fatalf("want a three-job plan pair with distinct keys:\n%s", pp.Describe())
	}
	pin, err := newExec(g, 3).Execute(pp2)
	if err != nil {
		t.Fatal(err)
	}

	before := cache.Stats()
	x2 := newExec(g, 3)
	x2.ctx, x2.cache = ctx, cache
	got, err := x2.Execute(pp2)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits || after.Misses-before.Misses != 1 {
		t.Fatalf("cache hits %d, misses %d: want the execution run as one miss",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if !reflect.DeepEqual(got.Rows, pin.Rows) {
		t.Errorf("rows diverge from the one-lane uncached pin (%d vs %d)", len(got.Rows), len(pin.Rows))
	}
	if !reflect.DeepEqual(got.Jobs, pin.Jobs) {
		t.Errorf("JobStats diverge from the one-lane uncached pin:\n got %+v\npin %+v", got.Jobs, pin.Jobs)
	}
}
