package cliquesquare

// Determinism matrix for the morsel-driven runtime: the LUBM workload
// must produce byte-identical rows AND JobStats at every parallelism
// level, through pooled (persistent-worker) and fresh (per-query)
// execution contexts alike, all matching the one-lane pin. Run under
// -race this also shakes out data races between concurrent morsel
// lanes. A companion test checks that closing a context (and an
// engine) reaps its parked pool workers.

import (
	"fmt"
	"reflect"
	"runtime"
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
		x := &physical.Executor{
			Cluster: mapreduce.NewCluster(store, cfg.Constants),
			Part:    part,
			Dict:    g.Dict,
			Ctx:     ctx,
		}
		r, err := x.Execute(pp)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		return r
	}

	// The pin: one inline lane, which is what a nil context means.
	type pin struct {
		hash string
		jobs []mapreduce.JobStats
	}
	pins := make([]pin, len(plans))
	for i, pp := range plans {
		r := execute(nil, pp)
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
					shared = physical.NewExecContext(par)
					defer shared.Close()
				}
				for i, pp := range plans {
					ctx := shared
					if ctx == nil {
						ctx = physical.NewExecContext(par)
					}
					r := execute(ctx, pp)
					if h := hashRows(r.Rows); h != pins[i].hash {
						t.Errorf("%s: row hash %s, one-lane pin %s", queries[i].Name, h, pins[i].hash)
					}
					if !reflect.DeepEqual(r.Jobs, pins[i].jobs) {
						t.Errorf("%s: job stats differ from the one-lane pin:\ngot %+v\npin %+v",
							queries[i].Name, r.Jobs, pins[i].jobs)
					}
					if shared == nil {
						ctx.Close()
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

// TestPoolWorkerReaping checks that ExecContext.Close and Engine.Close
// terminate the persistent morsel workers they own: no goroutine
// outlives the close.
func TestPoolWorkerReaping(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	q := lubm.Queries()[1]

	base := runtime.NumGoroutine()

	// Context-level: a pooled context spawns workers on first parallel
	// execution; Close must reap them.
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	p, err := eng.Prepare(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	store := dstore.NewStore(cfg.Nodes)
	part := partition.LoadWithPolicy(store, g, cfg.Partitioning, nil)
	ctx := physical.NewExecContext(4)
	x := &physical.Executor{
		Cluster: mapreduce.NewCluster(store, cfg.Constants),
		Part:    part,
		Dict:    g.Dict,
		Ctx:     ctx,
	}
	if _, err := x.Execute(p.Physical); err != nil {
		t.Fatalf("execute: %v", err)
	}
	ctx.Close()
	waitGoroutines(t, base, "after ExecContext.Close")

	// Engine-level: queries through the facade draw pooled contexts;
	// Engine.Close must reap every pooled context's workers.
	base = runtime.NumGoroutine()
	feng, err := NewEngine(g, Options{Nodes: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feng.Run(q); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := feng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, base, "after Engine.Close")
}
