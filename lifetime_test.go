package cliquesquare

// Lifetime tests for the flat data plane. An ExecContext recycles, in
// place, every block of cells an execution computed in — so anything
// that outlives the execution (Result.Rows, a result-cache entry) must
// own its memory. These tests keep results and entries alive across
// reuses of the context that produced them and require them to still
// hash to the golden pins; run under -race they also catch a reader of
// an old result racing the context's next execution.

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"cliquesquare/internal/binplan"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
)

// lifetimeFixture is the golden workload's data, partitioned, with its
// flat and linear plans and their pinned answers.
type lifetimeFixture struct {
	cfg    csq.Config
	g      *Graph
	store  *dstore.Store
	part   *partition.Partitioner
	golden goldenWorkload
	flat   map[string]*physical.Plan
	linear map[string]*physical.Plan
}

// linearPlan compiles q's best binary linear plan: one reduce level per
// join, the multi-job shape whose intermediates cross the context's
// per-node blocks and the cache's intermediate entries.
func (f *lifetimeFixture) linearPlan(t *testing.T, q *sparql.Query) *physical.Plan {
	t.Helper()
	linear, err := binplan.BestLinear(q, cost.NewModel(f.cfg.Constants, cost.NewStats(f.g, q)))
	if err != nil {
		t.Fatalf("%s: linear plan: %v", q.Name, err)
	}
	pp, err := physical.Compile(linear)
	if err != nil {
		t.Fatalf("%s: compile linear: %v", q.Name, err)
	}
	return pp
}

func newLifetimeFixture(t *testing.T) *lifetimeFixture {
	t.Helper()
	f := &lifetimeFixture{
		cfg:    csq.DefaultConfig(),
		g:      lubm.Generate(lubm.DefaultConfig(2)),
		flat:   make(map[string]*physical.Plan),
		linear: make(map[string]*physical.Plan),
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &f.golden); err != nil {
		t.Fatal(err)
	}
	pol, _ := partition.PolicyByName(f.cfg.Placement)
	f.store = dstore.NewStore(f.cfg.Nodes)
	f.part = partition.LoadWithPolicy(f.store, f.g, f.cfg.Partitioning, pol)
	planner := csq.New(f.g, f.cfg)
	for _, q := range lubm.Queries() {
		_, pp, _, err := planner.Plan(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		f.flat[q.Name] = pp
		if len(q.Patterns) >= 2 {
			f.linear[q.Name] = f.linearPlan(t, q)
		}
	}
	return f
}

// execute runs pp through ctx — on a fresh cluster clock, as the engine
// does — with the given result cache (nil for none).
func (f *lifetimeFixture) execute(t *testing.T, ctx *physical.ExecContext, rc *rescache.Cache, pp *physical.Plan) *physical.Result {
	t.Helper()
	x := &physical.Executor{
		Cluster:     mapreduce.NewCluster(f.store, f.cfg.Constants),
		Part:        f.part,
		Dict:        f.g.Dict,
		Ctx:         ctx,
		ResultCache: rc,
	}
	r, err := x.Execute(pp)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return r
}

// kept is a result held on to while its context moves on.
type kept struct {
	name string
	res  *physical.Result
	want goldenQuery
}

func (k kept) check(t *testing.T, when string) {
	t.Helper()
	if len(k.res.Rows) != k.want.Rows || hashRows(k.res.Rows) != k.want.RowHash {
		t.Fatalf("%s, %s: the kept result no longer hashes to its golden value (%d rows, golden %d)",
			k.name, when, len(k.res.Rows), k.want.Rows)
	}
}

// TestResultOutlivesContextReuse executes a large plan through one
// context, keeps its Result, then pushes other plans through the same
// context — larger and smaller ones, map-only and multi-level — and
// after each requires every result kept so far to still hash to its
// golden value: at one lane and four, without and with a result cache
// (where the kept rows are the cache entry's view).
func TestResultOutlivesContextReuse(t *testing.T) {
	f := newLifetimeFixture(t)
	// Q1 is the workload's largest answer, Q3 its largest map-only
	// shape beside it; the linear plans run three to eight jobs whose
	// intermediates dwarf their answers; Q4 and Q10 are tiny.
	sequence := []struct {
		variant string
		name    string
	}{
		{"flat", "Q1"}, {"linear", "Q12"}, {"flat", "Q4"}, {"flat", "Q3"},
		{"linear", "Q8"}, {"flat", "Q14"}, {"linear", "Q1"}, {"flat", "Q10"}, {"linear", "Q14"},
	}
	for _, lanes := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			ctx := physical.NewExecContext(lanes)
			var rc *rescache.Cache
			if cached {
				rc = rescache.New(64 << 20)
			}
			var held []kept
			for _, step := range sequence {
				plans, pins := f.flat, f.golden.Flat
				if step.variant == "linear" {
					plans, pins = f.linear, f.golden.Linear
				}
				k := kept{name: step.variant + "/" + step.name, res: f.execute(t, ctx, rc, plans[step.name]), want: pins[step.name]}
				held = append(held, k)
				for _, h := range held {
					h.check(t, "after "+k.name)
				}
			}
			ctx.Close()
		}
	}
}

// TestCachedViewReadWhileContextExecutes has several goroutines hash a
// cached final view over and over while the context that admitted it
// executes other plans: under -race any write the context makes into
// memory the view can reach is a reported race, and either way the
// hashes must stay golden.
func TestCachedViewReadWhileContextExecutes(t *testing.T) {
	f := newLifetimeFixture(t)
	ctx := physical.NewExecContext(4)
	defer ctx.Close()
	rc := rescache.New(64 << 20)
	k := kept{name: "flat/Q1", res: f.execute(t, ctx, rc, f.flat["Q1"]), want: f.golden.Flat["Q1"]}

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if hashRows(k.res.Rows) != k.want.RowHash {
					t.Error("a reader saw the cached view change under it")
					return
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		for _, name := range []string{"Q3", "Q8", "Q12", "Q1"} {
			f.execute(t, ctx, rc, f.linear[name])
			f.execute(t, ctx, nil, f.flat[name])
		}
	}
	close(stop)
	wg.Wait()
	// A hit hands out the very view the readers held.
	again := f.execute(t, ctx, rc, f.flat["Q1"])
	if len(again.Rows) == 0 || &again.Rows[0] != &k.res.Rows[0] {
		t.Error("a result-cache hit did not serve the entry's own view")
	}
	k.check(t, "after the readers")
}

// TestIntermediateEntryOutlivesAdmittingContext admits a multi-job
// plan's intermediate entries through one context, reuses that context
// for every other linear plan — twice over, so each of its per-node
// intermediate blocks is rewritten in place by larger and by smaller
// relations — and then serves the entries to an execution whose last
// job is not cached: the same query with its SELECT list reversed
// shares every job but the final projection, so the restored
// intermediate blocks are actually joined again. The answer must be the
// uncached one.
func TestIntermediateEntryOutlivesAdmittingContext(t *testing.T) {
	f := newLifetimeFixture(t)
	for _, name := range []string{"Q8", "Q9", "Q12"} {
		q, err := lubm.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		rev := *q
		rev.Select = nil
		for i := len(q.Select) - 1; i >= 0; i-- {
			rev.Select = append(rev.Select, q.Select[i])
		}
		pp, revPP := f.linear[name], f.linearPlan(t, &rev)
		jobs := pp.NumJobs()
		if jobs < 3 || revPP.NumJobs() != jobs || len(q.Select) < 2 {
			t.Fatalf("%s: the test needs a multi-job plan that keeps its shape under a reversed SELECT (%d and %d jobs, %d variables)",
				name, jobs, revPP.NumJobs(), len(q.Select))
		}
		want := f.execute(t, nil, nil, revPP)

		for _, lanes := range []int{1, 4} {
			rc := rescache.New(64 << 20)
			admitting := physical.NewExecContext(lanes)
			k := kept{name: "linear/" + name, res: f.execute(t, admitting, rc, pp), want: f.golden.Linear[name]}
			for round := 0; round < 2; round++ {
				for _, other := range lubm.Queries() {
					if opp := f.linear[other.Name]; opp != nil && other.Name != name {
						f.execute(t, admitting, nil, opp)
					}
				}
			}
			before := rc.Stats()
			for _, ctx := range []*physical.ExecContext{admitting, physical.NewExecContext(lanes)} {
				got := f.execute(t, ctx, rc, revPP)
				if hashRows(got.Rows) != hashRows(want.Rows) || len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s, lanes %d: an execution over restored intermediate entries answers %d rows, the uncached one %d, or different ones",
						name, lanes, len(got.Rows), len(want.Rows))
				}
				ctx.Close()
			}
			after := rc.Stats()
			if hits := int(after.Hits - before.Hits); hits != 2*jobs-1 {
				t.Errorf("%s, lanes %d: %d cache hits, want every intermediate job of both runs and the second run's last (%d)", name, lanes, hits, 2*jobs-1)
			}
			if misses := int(after.Misses - before.Misses); misses != 1 {
				t.Errorf("%s, lanes %d: %d cache misses, want only the first run's last job", name, lanes, misses)
			}
			k.check(t, "after serving its intermediates")
		}
	}
}
