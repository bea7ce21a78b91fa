package cliquesquare

// Determinism matrix for the morsel-driven runtime: the LUBM workload
// must produce byte-identical rows AND JobStats at every parallelism
// level, through reused and fresh (per-query) execution contexts alike,
// all matching the one-lane pin. Run under -race this also shakes out
// data races between concurrent morsel lanes. A companion test drives
// bursts of clients through one engine: executions are admitted, and no
// lane outlives its batch.

import (
	"fmt"
	"reflect"
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

	// The pin: one inline lane.
	type pin struct {
		hash string
		jobs []mapreduce.JobStats
	}
	pins := make([]pin, len(plans))
	for i, pp := range plans {
		r := execute(physical.NewExecContext(1, cfg.Constants), pp)
		pins[i] = pin{hash: hashRows(r.Rows), jobs: r.Jobs}
	}

	pars := []int{1, 2, 3}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 3 {
		pars = append(pars, p)
	}
	for _, par := range pars {
		for _, mode := range []string{"pooled", "fresh"} {
			t.Run(fmt.Sprintf("par=%d/%s", par, mode), func(t *testing.T) {
				var shared *physical.ExecContext
				if mode == "pooled" {
					shared = physical.NewExecContext(par, cfg.Constants)
				}
				for i, pp := range plans {
					ctx := shared
					if ctx == nil {
						ctx = physical.NewExecContext(par, cfg.Constants)
					}
					r := execute(ctx, pp)
					if h := hashRows(r.Rows); h != pins[i].hash {
						t.Errorf("%s: row hash %s, one-lane pin %s", queries[i].Name, h, pins[i].hash)
					}
					if !reflect.DeepEqual(r.Jobs, pins[i].jobs) {
						t.Errorf("%s: job stats differ from the one-lane pin:\ngot %+v\npin %+v",
							queries[i].Name, r.Jobs, pins[i].jobs)
					}
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
