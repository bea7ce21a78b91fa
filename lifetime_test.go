package cliquesquare

// Lifetime tests for the flat data plane. An ExecContext recycles, in
// place, every block of cells an execution computed in — the finished
// rows included, which ExecContext.Run only lends to its callback — so
// anything that outlives the execution (Execute's Result.Rows, a
// result-cache entry, a facade Result) must own its memory. These tests
// keep results and entries alive across reuses of the context that
// produced them and require them to still hash to the golden pins; run
// under -race they also catch a reader of an old result racing the
// context's next execution.

import (
	"reflect"
	"runtime"
	"slices"
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
// per-(node, range) blocks.
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

// newPlanFixture partitions g and compiles the flat plan of every query
// and the best linear plan of every query with a join.
func newPlanFixture(t *testing.T, g *Graph, queries []*sparql.Query) *lifetimeFixture {
	t.Helper()
	f := &lifetimeFixture{
		cfg:    csq.DefaultConfig(),
		g:      g,
		flat:   make(map[string]*physical.Plan),
		linear: make(map[string]*physical.Plan),
	}
	pol, _ := partition.PolicyByName(f.cfg.Placement)
	f.store = dstore.NewStore(f.cfg.Nodes)
	f.part = partition.LoadWithPolicy(f.store, f.g, f.cfg.Partitioning, pol)
	planner := csq.New(f.g, f.cfg)
	for _, q := range queries {
		p, err := planner.Prepare(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		f.flat[q.Name] = p.Physical
		if len(q.Patterns) >= 2 {
			f.linear[q.Name] = f.linearPlan(t, q)
		}
	}
	return f
}

// newLifetimeFixture is the golden workload: LUBM at 2 universities,
// its 14 queries and their pins.
func newLifetimeFixture(t *testing.T) *lifetimeFixture {
	t.Helper()
	f := newPlanFixture(t, lubm.Generate(lubm.DefaultConfig(2)), lubm.Queries())
	f.golden = readGolden(t)
	return f
}

// run runs pp through ctx — nil is a fresh one-lane context — on the
// current epoch, with the given result cache (nil for none), and lends
// use its rows.
func (f *lifetimeFixture) run(ctx *physical.ExecContext, rc *rescache.Cache, pp *physical.Plan, use func(*physical.Result, physical.Rows) error) error {
	if ctx == nil {
		ctx = physical.NewExecContext(1, f.cfg.Constants)
	}
	return ctx.Run(pp, f.part.Current(), f.g.Dict, rc, use)
}

// execute runs pp as run does and returns the result with its rows
// copied out.
func (f *lifetimeFixture) execute(t *testing.T, ctx *physical.ExecContext, rc *rescache.Cache, pp *physical.Plan) *physical.Result {
	t.Helper()
	var r *physical.Result
	err := f.run(ctx, rc, pp, func(res *physical.Result, rows physical.Rows) error {
		res.Rows, r = rows.Materialise(), res
		return nil
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return r
}

// hashSource digests the rows of a borrowed source as hashRows does
// materialised ones, reading each in place.
func hashSource(rows physical.Rows) string {
	view := make([]mapreduce.Row, rows.Len())
	rows.Each(0, rows.Len(), func(i int, row mapreduce.Row) { view[i] = slices.Clone(row) })
	return hashRows(view)
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
// (where the kept rows are decoded from the cache entry's packed rows).
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
			ctx := physical.NewExecContext(lanes, f.cfg.Constants)
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
		}
	}
}

// TestCachedViewReadWhileContextExecutes pins what a result-cache hit
// lends: rows decoded from the entry's own packed bytes — never the
// admitting context's memory, never a copy. Several readers each hold a
// hit's borrowed source open and hash it over and over, through
// contexts of their own, while the context that admitted the entry
// executes other plans and while the entry is purged from the cache:
// under -race any write into memory the source can reach is a reported
// race, and either way the hashes must stay golden.
func TestCachedViewReadWhileContextExecutes(t *testing.T) {
	f := newLifetimeFixture(t)
	ctx := physical.NewExecContext(4, f.cfg.Constants)
	rc := rescache.New(64 << 20)
	pp, want := f.flat["Q1"], f.golden.Flat["Q1"]
	k := kept{name: "flat/Q1", res: f.execute(t, ctx, rc, pp), want: want}
	ent, hit := rc.Do(rescache.Key(f.part.Current().Version(), pp.Key()), func() *rescache.Entry {
		t.Error("the answer of the plan just executed is not cached")
		return &rescache.Entry{}
	})
	if !hit || ent.Rows.N != want.Rows || len(ent.Rows.Data) == 0 {
		t.Fatalf("probing the plan's entry: hit %v", hit)
	}

	const readers = 4
	stop, reading := make(chan struct{}), make(chan struct{}, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := physical.NewExecContext(1, f.cfg.Constants)
			err := f.run(own, rc, pp, func(res *physical.Result, rows physical.Rows) error {
				if p := rows.Packed(); res.N != want.Rows || p != &ent.Rows || &p.Data[0] != &ent.Rows.Data[0] {
					t.Error("a result-cache hit did not lend the entry's own packed rows")
				}
				reading <- struct{}{}
				for {
					select {
					case <-stop:
						return nil
					default:
					}
					if hashSource(rows) != want.RowHash {
						t.Error("a reader saw the cached block change under it")
						return nil
					}
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		<-reading
	}
	for round := 0; round < 3; round++ {
		for _, name := range []string{"Q3", "Q8", "Q12", "Q1"} {
			f.execute(t, ctx, rc, f.linear[name])
			f.execute(t, ctx, nil, f.flat[name])
		}
		if round == 1 {
			rc.Purge() // the readers' sources outlive the entry's residency
		}
	}
	close(stop)
	wg.Wait()
	k.check(t, "after the readers")
}

// TestFacadeResultOutlivesItsContext takes a decoded answer from the
// facade and digests it again after the engine's pooled contexts — the
// one that computed it among them — served a hundred other queries from
// four goroutines: a facade Result holds its own index and slab and
// dictionary-owned strings, nothing of the context the ids were decoded
// from, with the result cache off and on.
func TestFacadeResultOutlivesItsContext(t *testing.T) {
	f := newLifetimeFixture(t)
	ids := renderedIDs(f.g.Dict)
	for _, cacheBytes := range []int64{0, 64 << 20} {
		eng, err := NewEngine(f.g, Options{Parallelism: 4, ResultCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		q1, _ := lubm.Query("Q1")
		res, err := eng.Query(q1.String())
		if err != nil {
			t.Fatal(err)
		}
		want := f.golden.Flat["Q1"]
		if got := hashRows(encodeRows(t, ids, res.Rows)); got != want.RowHash {
			t.Fatalf("cache %d: Q1 decoded to other rows than the golden ones", cacheBytes)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				qs := lubm.Queries()
				for i := 0; i < 25; i++ {
					q := qs[(w+3*i)%len(qs)]
					if _, err := eng.Query(q.String()); err != nil {
						t.Errorf("%s: %v", q.Name, err)
					}
				}
			}(w)
		}
		wg.Wait()
		if got := hashRows(encodeRows(t, ids, res.Rows)); got != want.RowHash || len(res.Rows) != want.Rows {
			t.Errorf("cache %d: the kept answer changed while its context served other queries", cacheBytes)
		}
		eng.Close()
	}
}

// TestPanickingConsumerLeavesContextClean has the callback of a borrowed
// result panic on a worker lane, in the middle of a parallel pass over
// the rows: the panic reaches the caller, the pinned epoch and the
// context are released all the same — no second context is spawned for
// the next query — and that query, through the very context, answers as
// before. Every buffer the execution borrowed went back to the context's
// pool: its bytes are what they were before the call, and a buffer still
// lent would have made the release panic in place of the consumer.
func TestPanickingConsumerLeavesContextClean(t *testing.T) {
	cfg := csq.DefaultConfig()
	cfg.Parallelism = 4
	eng := csq.New(lubm.Generate(lubm.DefaultConfig(6)), cfg)
	defer eng.Close()
	q1, _ := lubm.Query("Q1")
	p, err := eng.Prepare(q1)
	if err != nil {
		t.Fatal(err)
	}
	var before *physical.Result
	for i := 0; i < 3; i++ { // builds the one context and grows its scratch
		if before, err = eng.ExecutePrepared(p); err != nil {
			t.Fatal(err)
		}
	}
	goroutines, pooled := runtime.NumGoroutine(), eng.UpdateStats()
	func() {
		defer func() {
			if r := recover(); r != "consumer gave up" {
				t.Errorf("recovered %v, want the consumer's panic", r)
			}
		}()
		eng.RunPlan(p.Physical, func(_ *physical.Result, rows physical.Rows) error {
			if rows.Lanes() != 4 {
				t.Errorf("a %d-row answer is cut into %d ranges, the test needs the worker lanes", rows.Len(), rows.Lanes())
			}
			rows.EachRange(func(lo, hi int) {
				if lo > 0 {
					panic("consumer gave up")
				}
			})
			return nil
		})
		t.Error("the consumer's panic did not reach the caller")
	}()
	if us := eng.UpdateStats(); us.Contexts != pooled.Contexts || us.ScratchBytes != pooled.ScratchBytes {
		t.Errorf("after the panic %d contexts hold %d B of scratch, before it %d held %d B",
			us.Contexts, us.ScratchBytes, pooled.Contexts, pooled.ScratchBytes)
	}
	for i := 0; i < 2; i++ {
		after, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatal(err)
		}
		if hashRows(after.Rows) != hashRows(before.Rows) || !reflect.DeepEqual(after.Jobs, before.Jobs) {
			t.Fatalf("execution %d after the panic answers differently", i)
		}
	}
	waitGoroutines(t, goroutines, "after the panic")
}
