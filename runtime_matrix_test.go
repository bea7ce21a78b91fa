package cliquesquare

// Determinism matrix for the morsel-driven runtime: the LUBM workload
// must produce the seed's rows AND JobStats (the golden pins) at every
// unit bound M and parallelism level, through reused and fresh
// (per-query) execution contexts alike. Run under -race this also shakes out
// data races between concurrent morsel lanes. A companion test drives
// bursts of clients through one engine: executions are admitted, and no
// lane outlives its batch.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/systems/csq"
)

func TestMorselDeterminismMatrix(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))
	cfg := csq.DefaultConfig()
	planEng := csq.New(g, cfg)
	golden := readGolden(t).Flat

	// Compile every query's plan once; all configurations execute the
	// exact same physical plans.
	queries := lubm.Queries()
	plans := make([]*physical.Plan, len(queries))
	for i, q := range queries {
		p, err := planEng.Prepare(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		plans[i] = p.Physical
	}

	// A private store/partitioner (identical to the engine's layout) so
	// the test controls the execution context directly.
	store := dstore.NewStore(cfg.Nodes)
	part := partition.LoadWithPolicy(store, g, cfg.Partitioning, nil)
	execute := func(ctx *physical.ExecContext, pp *physical.Plan) *physical.Result {
		t.Helper()
		var r *physical.Result
		err := ctx.Run(pp, part.Current(), g.Dict, nil, func(res *physical.Result, rows physical.Rows) error {
			res.Rows, r = rows.Materialise(), res
			return nil
		})
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		return r
	}

	// At every lane count, through a reused and through fresh contexts,
	// every unit bound M — one row, a few, the production bound, none —
	// must reproduce the seed pins.
	var d pinDrift
	for _, lanes := range []int{1, 2, 3, 4} {
		for _, mode := range []string{"pooled", "fresh"} {
			t.Run(fmt.Sprintf("par=%d/%s", lanes, mode), func(t *testing.T) {
				for _, bound := range []int{1, 7, mapreduce.UnitRows, math.MaxInt} {
					name := fmt.Sprintf("M=%d", bound)
					if bound == math.MaxInt {
						name = "M=unbounded"
					}
					t.Run(name, func(t *testing.T) {
						defer func(m int) { mapreduce.UnitRows = m }(mapreduce.UnitRows)
						mapreduce.UnitRows = bound
						var shared *physical.ExecContext
						if mode == "pooled" {
							shared = physical.NewExecContext(lanes, cfg.Constants)
						}
						for i, pp := range plans {
							ctx := shared
							if ctx == nil {
								ctx = physical.NewExecContext(lanes, cfg.Constants)
							}
							r, pin := execute(ctx, pp), golden[queries[i].Name]
							if h := hashRows(r.Rows); len(r.Rows) != pin.Rows || h != pin.RowHash {
								t.Errorf("%s: %d rows, hash %s; pinned %d rows, hash %s", queries[i].Name, len(r.Rows), h, pin.Rows, pin.RowHash)
							}
							if err := d.check(r.Jobs, pin.Jobs); err != nil {
								t.Errorf("%s: %v", queries[i].Name, err)
							}
						}
					})
				}
			})
		}
	}
}

// waitGoroutines polls for the goroutine count to drop back to the
// baseline (the runtime unwinds exiting goroutines asynchronously).
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, baseline %d", what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecutionBurstIsAdmitted drives bursts of 1, 16 and 64 clients
// through one engine at 1, 2 and 4 lanes, each client executing a plan
// whose consumer holds the rows for about a millisecond: no more than
// GOMAXPROCS executions are ever in flight, no more than GOMAXPROCS
// contexts are kept, and once a burst is over the goroutine count falls
// back to what it was before the engine was built, the engine still
// open — no lane outlives its batch.
func TestExecutionBurstIsAdmitted(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	q, _ := lubm.Query("Q8") // 200 rows at one university
	slots := runtime.GOMAXPROCS(0)
	for _, par := range []int{1, 2, 4} {
		base := runtime.NumGoroutine()
		cfg := csq.DefaultConfig()
		cfg.Parallelism = par
		eng := csq.New(g, cfg)
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.ExecuteStats(p.Physical)
		if err != nil {
			t.Fatal(err)
		}
		for _, clients := range []int{1, 16, 64} {
			var inFlight, peak atomic.Int32
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := eng.RunPlan(p.Physical, func(_ *physical.Result, rows physical.Rows) error {
						n := inFlight.Add(1)
						defer inFlight.Add(-1)
						for m := peak.Load(); n > m; m = peak.Load() {
							if peak.CompareAndSwap(m, n) {
								break
							}
						}
						if rows.Len() != want.N {
							t.Errorf("%d lanes, %d clients: %d rows, want %d", par, clients, rows.Len(), want.N)
						}
						time.Sleep(time.Millisecond)
						return nil
					})
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			what := fmt.Sprintf("%d lanes, %d clients", par, clients)
			if n := int(peak.Load()); n > slots {
				t.Errorf("%s: %d executions in flight at once, GOMAXPROCS %d", what, n, slots)
			}
			us := eng.UpdateStats()
			if us.Contexts > uint64(slots) {
				t.Errorf("%s: %d contexts kept, GOMAXPROCS %d", what, us.Contexts, slots)
			}
			waitGoroutines(t, base, what)
			t.Logf("%s: at most %d in flight, %d contexts kept (%d B of scratch), goroutines back to %d",
				what, peak.Load(), us.Contexts, us.ScratchBytes, base)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
