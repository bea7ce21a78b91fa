package cliquesquare

// Benchmarks regenerating the paper's tables and figures (see
// EXPERIMENTS.md for the mapping and cmd/csq-bench for the printable
// versions). Custom metrics carry the figure's quantity of interest:
//
//	Figure 16  plans/query           BenchmarkFig16PlanSpaces
//	Figure 17  optimality ratio      (same bench, ho-ratio metric)
//	Figure 18  optimization time     BenchmarkFig18OptimizationTime
//	Figure 19  uniqueness ratio      (Fig16 bench, uniq-ratio metric)
//	Figure 20  plan execution time   BenchmarkFig20PlanExecution
//	Figure 21  system comparison     BenchmarkFig21Systems
//	Figure 22  workload cardinality  BenchmarkFig22Workload
//	Figure 8   decomposition bounds  BenchmarkFig8Bounds
//	Ablations                        BenchmarkAblation*
import (
	"fmt"
	"testing"

	"cliquesquare/internal/binplan"
	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/experiments"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/systems"
	"cliquesquare/internal/systems/csq"
	"cliquesquare/internal/systems/h2rdfsim"
	"cliquesquare/internal/systems/shapesim"
	"cliquesquare/internal/vargraph"
)

// benchPlanSpaceConfig keeps the 8-variant sweep benchable.
func benchPlanSpaceConfig() experiments.PlanSpaceConfig {
	cfg := experiments.DefaultPlanSpaceConfig()
	cfg.PerShape = 10
	cfg.MaxPlans = 2000
	cfg.CoversPerStep = 1000
	return cfg
}

// BenchmarkFig16PlanSpaces runs the variant × shape sweep of Figures
// 16, 17 and 19, reporting plans/query, optimality ratio and
// uniqueness ratio as custom metrics.
func BenchmarkFig16PlanSpaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.PlanSpaces(benchPlanSpaceConfig())
		if i == b.N-1 {
			for _, c := range cells {
				prefix := c.Method.String() + "/" + c.Shape.String()
				b.ReportMetric(c.AvgPlans, prefix+":plans")
				b.ReportMetric(c.OptimalityRatio, prefix+":ho-ratio")
				b.ReportMetric(c.UniquenessRatio, prefix+":uniq-ratio")
			}
		}
	}
}

// BenchmarkFig18OptimizationTime times one optimizer pass per variant
// over a representative 8-pattern query of each shape.
func BenchmarkFig18OptimizationTime(b *testing.B) {
	workload := qgen.Workload(2015, 10)
	for _, m := range vargraph.AllMethods {
		for _, sh := range qgen.Shapes {
			q := workload[sh][7] // the 8-pattern query
			b.Run(fmt.Sprintf("%s/%s", m, sh), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := core.Optimize(q, core.Options{Method: m, MaxPlans: 2000, MaxCoversPerStep: 1000})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// lubmFixture caches the Figure 20/21 dataset across benchmarks.
var lubmFixture = struct {
	univ int
	g    *Graph
}{}

func lubmGraph(univ int) *Graph {
	if lubmFixture.g == nil || lubmFixture.univ != univ {
		lubmFixture.univ = univ
		lubmFixture.g = lubm.Generate(lubm.DefaultConfig(univ))
	}
	return lubmFixture.g
}

// BenchmarkFig20PlanExecution executes, per workload query, the
// MSC-chosen plan vs the best binary bushy vs the best binary linear
// plan, reporting simulated seconds (the figure's y-axis) as a metric.
func BenchmarkFig20PlanExecution(b *testing.B) {
	g := lubmGraph(6)
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	for _, q := range lubm.Queries() {
		model := cost.NewModel(cfg.Constants, cost.NewStats(g, q))
		msc, err := eng.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		bushy, err := binplan.BestBushy(q, model)
		if err != nil {
			b.Fatal(err)
		}
		linear, err := binplan.BestLinear(q, model)
		if err != nil {
			b.Fatal(err)
		}
		bushyPP, err := physical.Compile(bushy)
		if err != nil {
			b.Fatal(err)
		}
		linearPP, err := physical.Compile(linear)
		if err != nil {
			b.Fatal(err)
		}
		for _, variant := range []struct {
			name string
			pp   *physical.Plan
		}{{"msc", msc.Physical}, {"bushy", bushyPP}, {"linear", linearPP}} {
			b.Run(q.Name+"/"+variant.name, func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					r, err := eng.ExecutePlan(variant.pp)
					if err != nil {
						b.Fatal(err)
					}
					sim = r.Time / 1e6
				}
				b.ReportMetric(sim, "sim-seconds")
			})
		}
	}
}

// BenchmarkFig21Systems runs the 14-query workload under the three
// systems, reporting simulated seconds per query.
func BenchmarkFig21Systems(b *testing.B) {
	g := lubmGraph(6)
	cs := csq.New(g, csq.DefaultConfig())
	sh := shapesim.New(g, shapesim.DefaultConfig())
	h2 := h2rdfsim.New(g, h2rdfsim.DefaultConfig())
	for _, sys := range []systems.System{cs, sh, h2} {
		for _, q := range lubm.Queries() {
			b.Run(sys.Name()+"/"+q.Name, func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					r, err := sys.Run(q)
					if err != nil {
						b.Fatal(err)
					}
					sim = r.Time / 1e6
				}
				b.ReportMetric(sim, "sim-seconds")
			})
		}
	}
}

// BenchmarkFig22Workload measures end-to-end evaluation of the whole
// workload (the Figure 22 cardinality column is printed by
// cmd/csq-bench -exp=workload).
func BenchmarkFig22Workload(b *testing.B) {
	g := lubmGraph(6)
	eng := csq.New(g, csq.DefaultConfig())
	qs := lubm.Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchExecuteWorkload pre-plans the LUBM workload once and times plan
// execution only, on the given number of lanes (0 = GOMAXPROCS).
func benchExecuteWorkload(b *testing.B, lanes int) {
	g := lubmGraph(6)
	cfg := csq.DefaultConfig()
	cfg.Parallelism = lanes
	eng := csq.New(g, cfg)
	var plans []*physical.Plan
	for _, q := range lubm.Queries() {
		p, err := eng.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p.Physical)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pp := range plans {
			if _, err := eng.ExecutePlan(pp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelVsSequential measures the wall-clock speedup of
// GOMAXPROCS lanes ("parallel") over one lane ("sequential") on the
// LUBM workload at 7 nodes (the simulated results are identical; only
// real execution time differs).
func BenchmarkParallelVsSequential(b *testing.B) {
	b.Run("parallel", func(b *testing.B) { benchExecuteWorkload(b, 0) })
	b.Run("sequential", func(b *testing.B) { benchExecuteWorkload(b, 1) })
}

// shuffleHeavyPlan compiles the LUBM workload's most shuffle-intensive
// plan: the best binary *linear* plan with the most reduce-join levels,
// so every level re-shuffles the previous job's intermediate result (a
// multi-level reduce-join pipeline, the data path the paper's height
// argument is about).
func shuffleHeavyPlan(b *testing.B, cfg csq.Config, g *Graph) *physical.Plan {
	b.Helper()
	var best *physical.Plan
	for _, q := range lubm.Queries() {
		if len(q.Patterns) < 2 {
			continue
		}
		model := cost.NewModel(cfg.Constants, cost.NewStats(g, q))
		linear, err := binplan.BestLinear(q, model)
		if err != nil {
			b.Fatal(err)
		}
		pp, err := physical.Compile(linear)
		if err != nil {
			b.Fatal(err)
		}
		if best == nil || len(pp.Levels) > len(best.Levels) {
			best = pp
		}
	}
	return best
}

// BenchmarkShuffleHeavy measures the per-record shuffle data path:
// executing a multi-level reduce-join LUBM plan, where nearly all real
// CPU goes to keying, routing, grouping and joining shuffled records.
func BenchmarkShuffleHeavy(b *testing.B) {
	g := lubmGraph(6)
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	pp := shuffleHeavyPlan(b, cfg, g)
	b.ReportMetric(float64(len(pp.Levels)), "levels")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecutePlan(pp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareColdVsCached measures what the per-query plan cache
// still buys on the LUBM workload, one op being the whole 14-query
// workload. "uncached" prepares every query with that cache off: a
// statistics snapshot of patterns the catalog keeps, one pricing walk
// over the shape's shared plan space and a bind of the winner — no
// optimizer run and no compile after the first op. "cached" serves the
// same queries from the plan cache: a canonicalization and a probe.
// "variant" is the shape in between, the benchmark's plan_cold: the plan
// cache is on, but every op names a university no plan has been cached
// for, so each of the six constant-bearing templates is planned cold
// while the statistics of the patterns it shares with earlier plans are
// already resident. README.md records the three per-op timings.
func BenchmarkPrepareColdVsCached(b *testing.B) {
	g := lubmGraph(6)
	qs := lubm.Queries()
	b.Run("uncached", func(b *testing.B) {
		cfg := csq.DefaultConfig()
		cfg.PlanCacheSize = -1
		eng := csq.New(g, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := eng.Prepare(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := csq.New(g, csq.DefaultConfig())
		for _, q := range qs {
			if _, _, err := eng.PrepareCached(q); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				p, hit, err := eng.PrepareCached(q)
				if err != nil || !hit || p == nil {
					b.Fatalf("warm lookup missed: hit=%v err=%v", hit, err)
				}
			}
		}
	})
	b.Run("variant", benchPrepareVariant)
}

// benchPrepareVariant is BenchmarkPrepareColdVsCached's "variant": one
// op cold-prepares the six constant-bearing templates for a university
// never seen before, after one warm pass. Building the op's queries is
// kept off the clock and out of the allocation count.
func benchPrepareVariant(b *testing.B) {
	eng := csq.New(lubmGraph(6), csq.DefaultConfig())
	pass := func(c int) {
		b.StopTimer()
		qs := lubm.UniversityVariants(c)
		b.StartTimer()
		for _, q := range qs {
			if _, hit, err := eng.PrepareCached(q); err != nil || hit {
				b.Fatalf("%s for university %d: hit=%v err=%v, want a cold prepare", q.Name, c, hit, err)
			}
		}
	}
	pass(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(1 + i)
	}
}

// BenchmarkFig8Bounds evaluates the closed-form decomposition bounds.
func BenchmarkFig8Bounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Bounds(10)
	}
}

// BenchmarkAblationJobInit sweeps the per-job initialization cost to
// show where the flat-plan advantage comes from: with free job starts
// the MSC and linear plans converge; with Hadoop-like init the flat
// plan wins by the job-count gap (a design-choice ablation from
// DESIGN.md).
func BenchmarkAblationJobInit(b *testing.B) {
	g := lubmGraph(6)
	q, err := lubm.Query("Q12")
	if err != nil {
		b.Fatal(err)
	}
	for _, init := range []float64{0, 1e5, 5e6} {
		cfg := csq.DefaultConfig()
		cfg.Constants.JobInit = init
		eng := csq.New(g, cfg)
		model := cost.NewModel(cfg.Constants, cost.NewStats(g, q))
		linear, err := binplan.BestLinear(q, model)
		if err != nil {
			b.Fatal(err)
		}
		linearPP, err := physical.Compile(linear)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("init=%.0e", init), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				msc, err := eng.Prepare(q)
				if err != nil {
					b.Fatal(err)
				}
				rm, err := eng.ExecutePlan(msc.Physical)
				if err != nil {
					b.Fatal(err)
				}
				rl, err := eng.ExecutePlan(linearPP)
				if err != nil {
					b.Fatal(err)
				}
				ratio = rl.Time / rm.Time
			}
			b.ReportMetric(ratio, "linear/msc-time")
		})
	}
}

// BenchmarkAblationNaryWidth compares optimization cost of maximal
// (MSC+) vs partial (MSC) clique pools — the plan-space/quality
// trade-off Section 4.3 discusses.
func BenchmarkAblationNaryWidth(b *testing.B) {
	q := qgen.Workload(2015, 10)[qgen.Thin][9]
	for _, m := range []vargraph.Method{vargraph.MSCPlus, vargraph.MSC} {
		b.Run(m.String(), func(b *testing.B) {
			var plans int
			for i := 0; i < b.N; i++ {
				res, err := core.Optimize(q, core.Options{Method: m})
				if err != nil {
					b.Fatal(err)
				}
				plans = len(res.Plans)
			}
			b.ReportMetric(float64(plans), "plans")
		})
	}
}

// BenchmarkOptimizeMSCQ1 micro-benchmarks the optimizer on the paper's
// running example (Figure 1's 11-pattern query).
func BenchmarkOptimizeMSCQ1(b *testing.B) {
	q, err := Parse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h .
		?g <p9> ?i . ?i <p10> ?j . ?j <p11> "C1" }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(q, core.Options{Method: vargraph.MSC}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionLoad measures the Section 5.1 partitioner.
func BenchmarkPartitionLoad(b *testing.B) {
	g := lubmGraph(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := csq.New(g, csq.DefaultConfig())
		_ = eng
	}
	b.ReportMetric(float64(g.Len()), "triples")
}

// BenchmarkEndToEnd runs the facade on a small graph (allocation
// profile of the whole pipeline; the plan cache is off, so every
// iteration parses, snapshots, prices, binds and executes — the plan
// space and the statistics are shared from the first iteration on).
func BenchmarkEndToEnd(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 500; i++ {
		g.AddSPO(fmt.Sprintf("s%d", i%50), fmt.Sprintf("p%d", i%3), fmt.Sprintf("s%d", (i+1)%50))
	}
	eng, err := NewEngine(g, Options{Nodes: 4, PlanCacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(`SELECT ?a ?c WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d }`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontEnd measures what a request pays before a plan is run,
// one op per LUBM query: "parse" is sparql.Parse of its text, "hit" a
// facade PrepareQuery the plan cache serves — validate, canonicalize,
// probe and the Prepared handle — on a one-lane engine.
func BenchmarkFrontEnd(b *testing.B) {
	var srcs []string
	var qs []*Query
	for _, q := range lubm.Queries() {
		src, err := lubm.Text(q.Name)
		if err != nil {
			b.Fatal(err)
		}
		srcs, qs = append(srcs, src), append(qs, q)
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(srcs[i%len(srcs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng, err := NewEngine(lubmGraph(6), Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, q := range qs {
		if _, err := eng.PrepareQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p, err := eng.PrepareQuery(qs[i%len(qs)]); err != nil || !p.PlanCached() {
				b.Fatalf("warm prepare missed: %v", err)
			}
		}
	})
}

// BenchmarkDecodeCached measures the result boundary on its own: a
// warmed, result-cached facade Query, where the request is parse, cache
// probes, replay and decode — of the cache entry's packed rows, decoded
// as they are read, on the context's lanes when the answer is large. Q1 answers ≈10.5k
// rows, Q6 and Q14 a few dozen; B/op is the row index plus the cell
// slab (24 B/row + 16 B/cell), allocs/op does not depend on the row
// count.
func BenchmarkDecodeCached(b *testing.B) {
	eng, err := NewEngine(lubmGraph(6), Options{ResultCacheBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"Q1", "Q6", "Q14"} {
		q, err := lubm.Query(name)
		if err != nil {
			b.Fatal(err)
		}
		src := q.String()
		res, err := eng.Query(src) // warms the plan and result caches
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows)), "rows")
		})
	}
}

// BenchmarkExecuteUncached measures a facade Query that executes: plan
// cached, result cache off, so every request scans, joins, shuffles,
// canonicalizes and decodes. Q1 answers ≈10.5k rows from a map-only
// plan, Q5 a few hundred through a reduce join, Q11 none from two jobs.
// B/op is what the public result requires — the decoded [][]string,
// filled straight from the merge order over the last job's output —
// plus a few KB of per-job bookkeeping; nothing between scan and
// decoded answer allocates per row or copies the ids out.
func BenchmarkExecuteUncached(b *testing.B) {
	eng, err := NewEngine(lubmGraph(6), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"Q1", "Q5", "Q11"} {
		q, err := lubm.Query(name)
		if err != nil {
			b.Fatal(err)
		}
		src := q.String()
		res, err := eng.Query(src) // warms the plan cache and the context's scratch
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows)), "rows")
		})
	}
}

// BenchmarkAblationProjectionPushdown measures the shuffle-volume
// saving of the Section 4.2 projection push-down rewrite on a chain
// query (reported as shuffled cells with and without the rewrite): the
// flattest plan of the query's space, compiled once as optimized and
// once rewritten, run on one engine.
func BenchmarkAblationProjectionPushdown(b *testing.B) {
	g := lubmGraph(6)
	q, err := lubm.Query("Q12")
	if err != nil {
		b.Fatal(err)
	}
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	res, err := core.Optimize(q, core.Options{Method: cfg.Method, MaxPlans: cfg.MaxPlans, MaxCoversPerStep: cfg.MaxCoversPerStep})
	if err != nil {
		b.Fatal(err)
	}
	flat := res.Best(func(p *core.Plan) float64 { return float64(p.Height()) })
	for _, push := range []bool{false, true} {
		plan, name := flat, "without"
		if push {
			plan, name = core.PushProjections(flat), "with"
		}
		pp, err := physical.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var cells float64
			for i := 0; i < b.N; i++ {
				r, err := eng.ExecutePlan(pp)
				if err != nil {
					b.Fatal(err)
				}
				cells = 0
				for _, j := range r.Jobs {
					cells += float64(j.ShuffledCells)
				}
			}
			b.ReportMetric(cells, "shuffled-cells")
		})
	}
}

// BenchmarkAblationPartitioning compares the paper's three-replica
// partitioning against single-replica subject-hash partitioning on the
// workload's o-o join query Q1 (worksFor ⋈ memberOf on the department,
// both at object position): with one replica the join loses
// co-location and needs a full shuffle job instead of running
// map-only.
func BenchmarkAblationPartitioning(b *testing.B) {
	g := lubmGraph(6)
	q, err := lubm.Query("Q1")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []partition.Mode{partition.ThreeReplica, partition.SubjectOnly} {
		cfg := csq.DefaultConfig()
		cfg.Partitioning = mode
		eng := csq.New(g, cfg)
		b.Run(mode.String(), func(b *testing.B) {
			var sim, reduceJobs float64
			for i := 0; i < b.N; i++ {
				p, err := eng.Prepare(q)
				if err != nil {
					b.Fatal(err)
				}
				r, err := eng.ExecutePlan(p.Physical)
				if err != nil {
					b.Fatal(err)
				}
				sim = r.Time / 1e6
				reduceJobs = 0
				for _, j := range r.Jobs {
					if !j.MapOnly {
						reduceJobs++
					}
				}
			}
			b.ReportMetric(sim, "sim-seconds")
			b.ReportMetric(reduceJobs, "reduce-jobs")
		})
	}
}
