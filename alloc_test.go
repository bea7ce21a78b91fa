package cliquesquare

// Allocation-regression pins for the columnar data plane: executing the
// LUBM workload must stay under fixed allocs/op and B/op ceilings. The
// seed's executor sat around 21k allocs/op on the full workload; the
// slab/CSR data plane brought it under 4k and 5.5 MB, the flat
// relations (no []Row between scan and result) under 1k and 0.7 MB,
// and these ceilings (with headroom for scheduler noise) keep it from
// creeping back. They skip under -race, so CI runs them un-raced:
// go test -count=1 -run TestAlloc .

import (
	"runtime"
	"strings"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
)

const (
	// workloadAllocCeiling bounds allocs per execution of the whole
	// 14-query LUBM workload (measured 99–128 at 1–32 lanes once the
	// executor, its cluster clock and the job callbacks were the pooled
	// context's, 261–264 before; 471 before a map join took its input list
	// from the lane's arena; 497–499 at 1–8 lanes with integer meters in
	// the scratch; 539 when each run allocated its phase meters and logged
	// float charges; ≈3k when every relation was a []Row; the seed was
	// ≈21k).
	workloadAllocCeiling = 180
	// workloadBytesCeiling bounds the bytes the same execution allocates
	// (measured ≈0.63 MB: ExecutePlan copies each answer out — 14 blocks
	// and the []Row views over them, Rows.Materialise — beside a few KB of
	// bookkeeping per job; 5.48 MB when scans, joins, projections and
	// outputs each grew a []Row by appending).
	workloadBytesCeiling = 1 << 20
	// shuffleHeavyAllocCeiling bounds allocs per execution of the
	// deepest multi-level reduce-join plan (measured 21–22 at 1–32 lanes,
	// 1.6 KB, with the executor, cluster clock, run closures and job
	// callbacks the pooled context's; 94 and 7.2 KB before, 117 and
	// 9.3 KB before that; 141 and 15 KB with per-run phase meters and
	// charge logs; the seed was ≈6.2k).
	shuffleHeavyAllocCeiling = 30
	// uncachedQueryAllocCeiling bounds the objects one facade Query
	// allocates when it executes (plan cached, result cache off),
	// whatever the size of the answer (measured 150–410: the count
	// follows the plan's jobs and morsels, never its rows).
	uncachedQueryAllocCeiling = 600
	// cachedServeAllocCeiling bounds the objects one facade Query
	// allocates when the result cache serves it, whatever the size of
	// the answer (measured 140–190: parse, canonicalize, cache probes,
	// replay, and two for the decode — row index and cell slab; two more,
	// the range closures, when a large answer is decoded on several
	// lanes. When each cell was rendered afresh, Q1's 10.5k rows cost
	// ≈21k).
	cachedServeAllocCeiling = 300
	// preparedHitAllocCeiling bounds the objects a facade PrepareQuery
	// allocates when the plan cache serves it (measured 3: the cache key,
	// the Prepared and its SELECT names; 36–103 when validation built
	// maps and canonicalization grew an encoding buffer).
	preparedHitAllocCeiling = 3
	// uncachedQueryFixedBytes is what one executing facade Query may
	// allocate beyond its answer — the [][]string the public Result is:
	// 24 B per row and 16 B per cell, with 2% for the allocator's size
	// classes (measured 7.5 KB above those 591 KB for map-only Q1 on one
	// lane of a 2-core Xeon — 7.8 or 19.3 KB from run to run on two —,
	// 6.5 KB of it the page rounding of the answer's two arrays: ≈ 0.9 KB
	// of parse, canonicalize, the plan-cache probe and the job's
	// bookkeeping; 1.3 KB when every execution allocated its executor,
	// cluster clock and job callbacks, 2.8 KB more when the parser built
	// a token slice and canonicalization grew an encoding buffer. The
	// finished ids are decoded where the execution left them;
	// when they were first copied into a final block under a []Row view,
	// Q1's 10.5k rows cost 0.34 MB more).
	uncachedQueryFixedBytes = 24 << 10
	// variantPrepareBytesCeiling bounds the bytes one pass of
	// BenchmarkPrepareColdVsCached/variant allocates: six cold prepares
	// for a university no plan is cached for: 1.1× the 5.78 KB (84
	// allocs) measured when the plan cache held the catalog's patterns;
	// 5.66–5.75 KB (72) since the catalog keeps them itself, a resident
	// pattern costing its map a slot of two words. Parse aside, a miss
	// allocates only what it keeps: the plan-cache key and entry, the
	// snapshot's per-pattern numbers, the new patterns with their own
	// copy of their constants, and a bind of the winner's compiled
	// candidate, its two plan headers; the pricing walk borrows pooled
	// scratch and the result-cache key is rendered only when a result
	// cache asks. It was 25.6 KB (195 allocs) when every walk made its
	// scratch, every bind rendered its key and every snapshot copied the
	// query's variable order; 47.5 KB when validation built maps and
	// canonicalization grew an encoding buffer; 141.5 KB when every miss
	// materialised, pushed down, compiled and keyed the winner anew;
	// ≈14 MB when every miss enumerated its plan space again and
	// classified each candidate into a map to price it.
	variantPrepareBytesCeiling = 6_360
	// coldPassAllocCeiling bounds the objects a pass of the same six cold
	// prepares allocates (TestAllocColdPrepareStages): 1.15× the measured
	// 82–85 (a collection empties the pricer pool), 79 since a prepare
	// takes no hold on the catalog's patterns; 202 before pricing
	// scratch was pooled, keys rendered on demand and the catalog's
	// layout kept per written shape.
	coldPassAllocCeiling = 95
	// passAfterCommitRatioCeiling bounds what the 14-query pass right
	// after a commit allocates, relative to a warm pass: its 14
	// revalidations snapshot and re-price, whatever the size of the
	// query's plan space (measured 0.96 at 6 universities — the deletes
	// shrink the answers; 9.8 when Q12, Q13 and Q14, whose spaces were
	// too large to retain, were enumerated again: +15 MB on a 1.7 MB
	// pass, 1.76 at the benchmark's 100 universities).
	passAfterCommitRatioCeiling = 1.15
	// residentCeiling bounds the live heap an engine adds per triple once
	// its caller has dropped the graph it was built from: 1.1× the
	// measured 35.5 at 100 universities, 158,849 triples — the stored
	// replicas' slabs and file tables, and the dictionary: 17.9 B/triple
	// of term pages, 8-byte spans and a 4 B-a-slot id table. The slabs'
	// payload is 16 B: a file stores only the cells its name does not
	// fix, so each row is (s, o), 8 B, and the store holds the subject
	// and object replicas alone — the property replica is placed, not
	// stored. It read 43.1 when the store held the property replica too
	// (23.25 B of cells: 24 B less 4 B for each rdf:type triple in a
	// class file); 46.8 when the dictionary held each term as a string
	// of its own, 21.3 B/triple; 59.8 with three 12-byte rows.
	// residentWithGraphCeiling is the same reading with the caller's graph
	// kept: its triple slice and 4 B a slot of position table more
	// (measured 57.0, ceiling 1.1× it; 64.6 with the property replica
	// stored, 68.2 with string terms, 32 B/triple more when the graph
	// keyed a Go map by the triple and the dictionary one by the string).
	residentCeiling          = 39.1
	residentWithGraphCeiling = 62.7
	// residentWarmCeiling bounds the same engine, graph dropped, after
	// three passes of the 14 LUBM queries on two lanes: 1.05× the
	// measured 42.6 — the idle 35.5, the execution context's buffer pool
	// (what the hungriest query occupied, 0.88 MB: 5.5 B/triple), and
	// under 2 of cached plans and statistics catalog, whose 20 patterns
	// keep counts, not bindings: 12.7 KB, 0.08 B/triple, at any scale.
	// Since every unit is bounded it reads 40.4, the pool 0.52 MB.
	// Reads build nothing in the store, whose files are sorted and carry
	// no index. It read 47.3, the pool 1.60 MB, while a shuffled tuple had
	// a 24-byte record and the last job's raw rows waited for the final
	// merge; 52.2–52.3 while the catalog held the 20 patterns'
	// 91,931 bindings in sorted (id, count) arrays, 5.0 B/triple; 55.6
	// (54.4–55.6), the pool about 2.0 MB, before map joins merged their
	// sorted inputs and built no hash tables; 56.6–56.7 when scans and
	// presence tests built column indexes on the files; 65.2 (64.1–65.2)
	// with the property replica stored; 71.0–71.9, the pool 3.1 MB, when
	// arena scratch lived until the end of the execution, freed pieces
	// went to power-of-two classes without merging and the final merge
	// kept a 4-byte order per surviving row; 79.9–81.0 with the
	// catalog's bindings in maps; 89.3–90.1 when a
	// shuffled tuple had a record in its bucket and a copy in its
	// destination's array, the final merge sorted row numbers beside
	// their order and a map-only root join wrote a block the projection
	// copied; 125.2 when every scratch position kept its own largest-ever
	// array and every single-slot pattern a binding map.
	residentWarmCeiling = 44.7
	// unaccountedCeiling bounds the bytes a two-lane engine holds, once
	// it has answered the 14 LUBM queries, that no UpdateStats account
	// counts: its plan-cache entries, compiled candidates and
	// execution-context metadata (join plans, per-lane file lists, bucket
	// headers), which do not grow with the data — measured 145,000–176,300
	// B at 20 and at 50 universities and GOMAXPROCS 1–8, 7–9% and 3–4% of
	// what the engine adds; 158,000–189,000 B since the engine runs with
	// the result cache on, whose probes render every plan's key once
	// (about 10 KB for the 14 plans); 166,600–172,700 B at GOMAXPROCS 2
	// and 8 since the scratch's arrays are counted at their size class
	// (177,700–184,100 B before).
	unaccountedCeiling = 192 << 10
)

// raceEnabled is set by race_test.go under -race: the detector's
// instrumentation allocates on its own, so the ceilings only hold for
// uninstrumented builds.
var raceEnabled bool

func measureAllocs(t *testing.T, run func()) testing.BenchmarkResult {
	t.Helper()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

func TestAllocRegressionWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a benchmark run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := lubmGraph(6)
	eng := csq.New(g, csq.DefaultConfig())
	var plans []*physical.Plan
	for _, q := range lubm.Queries() {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p.Physical)
	}
	got := measureAllocs(t, func() {
		for _, pp := range plans {
			if _, err := eng.ExecutePlan(pp); err != nil {
				t.Error(err)
			}
		}
	})
	t.Logf("LUBM workload execution = %d allocs/op, %d B/op", got.AllocsPerOp(), got.AllocedBytesPerOp())
	if n := got.AllocsPerOp(); n > workloadAllocCeiling {
		t.Errorf("LUBM workload execution = %d allocs/op, ceiling %d", n, workloadAllocCeiling)
	}
	if n := got.AllocedBytesPerOp(); n > workloadBytesCeiling {
		t.Errorf("LUBM workload execution = %d B/op, ceiling %d", n, workloadBytesCeiling)
	}
}

func TestAllocRegressionShuffleHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a benchmark run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := lubmGraph(6)
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	var pp *physical.Plan
	res := testing.Benchmark(func(b *testing.B) {
		if pp == nil {
			pp = shuffleHeavyPlan(b, cfg, g)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ExecutePlan(pp); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("shuffle-heavy execution = %d allocs/op, %d B/op", res.AllocsPerOp(), res.AllocedBytesPerOp())
	if got := float64(res.AllocsPerOp()); got > shuffleHeavyAllocCeiling {
		t.Errorf("shuffle-heavy execution = %.0f allocs/op, ceiling %d", got, shuffleHeavyAllocCeiling)
	}
}

// TestAllocCachedHitCopiesNoKey: a bound plan keeps its result-cache
// key — the data epoch's version before the plan key — and builds it
// again only when the epoch served moves, so a warm hit through RunPlan
// on an unchanged epoch probes without a copy of the key. It allocates
// the Result, its Schema and its Jobs alone, fewer bytes than the key of
// the LUBM query whose key is longest (320 B against 2,175). When every
// probe built the versioned key and every replay formatted its job
// names, the same hit allocated 8 objects, 2,672 B.
func TestAllocCachedHitCopiesNoKey(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	cfg := csq.DefaultConfig()
	cfg.ResultCacheBytes = 64 << 20
	eng := csq.New(lubmGraph(2), cfg)
	var pp *physical.Plan
	for _, q := range lubm.Queries() {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if pp == nil || len(p.Physical.Key()) > len(pp.Key()) {
			pp = p.Physical
		}
	}
	run := func() {
		if err := eng.RunPlan(pp, func(*physical.Result, physical.Rows) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run() // the miss that admits the answer
	const runs = 200
	hits := eng.ResultCacheStats().Hits
	allocs := testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := eng.ResultCacheStats().Hits - hits; got != 2*runs+1 {
		t.Fatalf("%d of %d warm runs were hits", got, 2*runs+1)
	}
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a warm hit = %.0f allocs, %d B; the plan key is %d B", allocs, bytes, len(pp.Key()))
	if allocs > 3 || bytes >= uint64(len(pp.Key())) {
		t.Errorf("a warm hit = %.0f allocs, %d B: want the Result, its Schema and its Jobs, under the %d-byte key", allocs, bytes, len(pp.Key()))
	}
}

// TestAllocFrontEnd pins what the text front end allocates per LUBM
// query: Parse only the Query, its pattern and SELECT slices and one
// string per expanded prefixed name; Validate and Key nothing; and a
// facade PrepareQuery the plan cache serves only the cache key, the
// Prepared handle and its copy of the SELECT names. When the parser
// built a token slice, Validate a map per pattern and Canonicalize a
// growing encoding buffer and refinement maps, they took 25–91, 11–52,
// 22–48 (Canonicalize) and 36–103 allocs.
func TestAllocFrontEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, err := NewEngine(lubmGraph(6), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range lubm.Queries() {
		src, err := lubm.Text(q.Name)
		if err != nil {
			t.Fatal(err)
		}
		prefixed := strings.Count(src, "ub:") - 1 // the PREFIX declaration names it once
		if got := testing.AllocsPerRun(10, func() { _, _ = sparql.Parse(src) }); got > float64(3+prefixed) {
			t.Errorf("%s: Parse = %.0f allocs, ceiling 3 + %d prefixed names", q.Name, got, prefixed)
		}
		if got := testing.AllocsPerRun(10, func() { _ = q.Validate() }); got != 0 {
			t.Errorf("%s: Validate = %.0f allocs, want 0", q.Name, got)
		}
		if got := testing.AllocsPerRun(10, func() { _ = sparql.Key(q) }); got != 0 {
			t.Errorf("%s: sparql.Key = %.0f allocs, want 0", q.Name, got)
		}
		if _, err := eng.PrepareQuery(q); err != nil { // plans it
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			if p, err := eng.PrepareQuery(q); err != nil || !p.PlanCached() {
				t.Errorf("%s: warm prepare missed the plan cache: %v", q.Name, err)
			}
		})
		if got > preparedHitAllocCeiling {
			t.Errorf("%s: PrepareQuery served by the plan cache = %.0f allocs, ceiling %d", q.Name, got, preparedHitAllocCeiling)
		}
	}
}

// TestAllocCachedServeIndependentOfRows pins the result boundary: a
// request the result cache serves costs a fixed number of objects — a
// decoded cell is a header copy of a dictionary-owned string and the
// cached ids are decoded into one row buffer as they are read — so a ten-row
// answer and a ten-thousand-row one sit under the same small ceiling.
func TestAllocCachedServeIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, err := NewEngine(lubmGraph(6), Options{ResultCacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		minRows, maxRows int
	}{{"Q4", 5, 20}, {"Q1", 5000, 1 << 30}} {
		q, err := lubm.Query(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		src := q.String()
		res, err := eng.Query(src) // warms the plan and result caches
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Rows); n < tc.minRows || n > tc.maxRows {
			t.Fatalf("%s answers %d rows, the test assumes %d..%d", tc.name, n, tc.minRows, tc.maxRows)
		}
		hits := eng.ResultCacheStats().Hits
		got := testing.AllocsPerRun(10, func() {
			if _, err := eng.Query(src); err != nil {
				t.Error(err)
			}
		})
		if eng.ResultCacheStats().Hits == hits {
			t.Fatalf("%s: repeats were not served from the result cache", tc.name)
		}
		if got > cachedServeAllocCeiling {
			t.Errorf("%s (%d rows) served from the result cache = %.0f allocs/op, ceiling %d",
				tc.name, len(res.Rows), got, cachedServeAllocCeiling)
		}
	}
}

// TestAllocUncachedExecuteIndependentOfRows is the executing side of the
// same boundary: between scan and result the executor moves cells in
// recycled flat blocks, so what one uncached Query allocates in objects
// follows the shape of its plan — a ten-row answer and a
// ten-thousand-row one sit under the same ceiling (the bytes do grow,
// with the decoded answer and nothing else: TestAllocUncachedQueryBytes).
func TestAllocUncachedExecuteIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, err := NewEngine(lubmGraph(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		minRows, maxRows int
	}{{"Q4", 5, 20}, {"Q1", 5000, 1 << 30}} {
		q, err := lubm.Query(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		src := q.String()
		res, err := eng.Query(src) // warms the plan cache and the context's scratch
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Rows); n < tc.minRows || n > tc.maxRows {
			t.Fatalf("%s answers %d rows, the test assumes %d..%d", tc.name, n, tc.minRows, tc.maxRows)
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := eng.Query(src); err != nil {
				t.Error(err)
			}
		})
		if got > uncachedQueryAllocCeiling {
			t.Errorf("%s (%d rows) executed uncached = %.0f allocs/op, ceiling %d",
				tc.name, len(res.Rows), got, uncachedQueryAllocCeiling)
		}
	}
}

// TestAllocUncachedQueryBytes pins the bytes of the same boundary: an
// executing Query allocates its public answer — row index and cell slab
// — and a fixed few KB; the ids it decodes are never copied out of the
// context that computed them.
func TestAllocUncachedQueryBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, err := NewEngine(lubmGraph(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := lubm.Query("Q1")
	if err != nil {
		t.Fatal(err)
	}
	src := q.String()
	res, err := eng.Query(src) // warms the plan cache and the context's scratch
	if err != nil {
		t.Fatal(err)
	}
	rows := len(res.Rows)
	if rows < 5000 {
		t.Fatalf("Q1 answers %d rows, the test assumes thousands", rows)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	got := (m1.TotalAlloc - m0.TotalAlloc) / runs
	answer := uint64(24*rows + 16*rows*len(res.Vars))
	if ceiling := answer + answer/50 + uncachedQueryFixedBytes; got > ceiling {
		t.Errorf("Q1 (%d rows) executed uncached = %d B/query, ceiling %d: its [][]string is %d B", rows, got, ceiling, answer)
	} else {
		t.Logf("Q1 (%d rows) executed uncached = %d B/query, its [][]string %d B", rows, got, answer)
	}
}

// TestAllocPrepareVariantBytes pins what a plan-cache miss costs when
// the statistics of the shared patterns are resident: candidates are
// priced from their classification and a pass fills only the patterns
// that carry the new constant.
func TestAllocPrepareVariantBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a benchmark run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	if got := testing.Benchmark(benchPrepareVariant).AllocedBytesPerOp(); got > variantPrepareBytesCeiling {
		t.Errorf("unseen-constant pass of the six templates = %d B/op, ceiling %d", got, variantPrepareBytesCeiling)
	}
}

// TestAllocColdPrepareStages pins what the stages of a cold prepare
// allocate, in objects: pricing a resident plan space draws its scratch
// from a pool (none once warm), a bind allocates the two plan headers —
// the physical plan's and its logical plan's — and no key, and a pass
// of the six templates for a university no plan is cached for, on an
// engine without a result cache, stays under coldPassAllocCeiling.
func TestAllocColdPrepareStages(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := lubmGraph(6)
	eng := csq.New(g, csq.DefaultConfig())
	cfg := csq.DefaultConfig()
	for i, q := range lubm.UniversityVariants(0) {
		res, err := core.Optimize(q, core.Options{Method: cfg.Method, MaxPlans: cfg.MaxPlans, MaxCoversPerStep: cfg.MaxCoversPerStep})
		if err != nil {
			t.Fatal(err)
		}
		sp, st := res.Space(), cost.NewStats(g, q)
		cost.NewModel(cfg.Constants, st).ChooseSpace(sp)
		if got := testing.AllocsPerRun(20, func() { cost.NewModel(cfg.Constants, st).ChooseSpace(sp) }); got != 0 {
			t.Errorf("%s: pricing its resident plan space = %.0f allocs, want 0", q.Name, got)
		}
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		var bound *physical.Plan
		other := lubm.UniversityVariants(1)[i]
		if got := testing.AllocsPerRun(20, func() { bound = p.Physical.Bind(other) }); got > 2 {
			t.Errorf("%s: Bind = %.0f allocs, want at most the 2 plan headers", q.Name, got)
		}
		if bound.Logical.Query != other {
			t.Fatalf("%s: the bound plan is not the other university's", q.Name)
		}
	}
	// Universities 1 to 5: the data has them, and their winners are
	// compiled candidates already, so each pass is statistics, pricing
	// and binds, with the three fills a new university costs.
	var passes [][]*sparql.Query
	for c := 1; c <= 5; c++ {
		passes = append(passes, lubm.UniversityVariants(c))
	}
	compiles := eng.UpdateStats().Compiles
	got := testing.AllocsPerRun(len(passes)-1, func() { // and once to warm up
		for _, q := range passes[0] {
			if _, hit, err := eng.PrepareCached(q); err != nil || hit {
				t.Fatalf("%s: hit=%v err=%v, want a cold prepare", q.Name, hit, err)
			}
		}
		passes = passes[1:]
	})
	if n := eng.UpdateStats().Compiles - compiles; n != 0 {
		t.Fatalf("the cold passes compiled %d candidates, want none", n)
	}
	t.Logf("a cold pass of the six templates = %.0f allocs", got)
	if got > coldPassAllocCeiling {
		t.Errorf("a cold pass of the six templates = %.0f allocs, ceiling %d", got, coldPassAllocCeiling)
	}
}

// TestAllocPassAfterCommit pins what a commit costs its readers: the
// first pass of the workload after it revalidates every cached plan, and
// that is statistics and pricing — never an enumeration — so the pass
// allocates about what a warm one does.
func TestAllocPassAfterCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over a 6-university dataset")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := lubm.Generate(lubm.DefaultConfig(6)) // its own: deleteSome removes from it
	eng, err := NewEngine(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	qs := lubm.Queries()
	passBytes := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		queryAll(t, eng, qs)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	for i := 0; i < 3; i++ {
		passBytes() // plans cached, pooled scratch grown
	}
	warm := passBytes()
	deleteSome(t, eng, g, 200, 37)
	after := passBytes()
	if us := eng.UpdateStats(); us.Revalidations != uint64(len(qs)) || us.Enumerations != uint64(len(qs)) {
		t.Fatalf("the pass after the commit: %+v; want %d revalidations and no enumeration beyond the first %d", us, len(qs), len(qs))
	}
	if ratio := float64(after) / float64(warm); ratio > passAfterCommitRatioCeiling {
		t.Errorf("pass after a commit = %d B, warm pass %d B: ratio %.2f, ceiling %.2f", after, warm, ratio, passAfterCommitRatioCeiling)
	} else {
		t.Logf("pass after a commit = %d B, warm pass %d B: ratio %.3f", after, warm, ratio)
	}
}

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestAllocResidentAccount holds UpdateStats' DictBytes, StatsBytes and
// StoreBytes, which count from lengths and capacities, to the heap: at
// 20 and at 50 universities each is within 5% of the live heap that
// building its structure adds — a dictionary of the data's terms,
// catalogs filled for the 14 LUBM queries, the partitioned store of the
// data — and an engine over the data, once it has answered those
// queries, reports the same dictionary and catalog and exactly the same
// store. The engine runs with the result cache on, so that holds the 14
// answers too. Its whole account — those three, ScratchBytes,
// SpaceBytes and the result cache's Bytes — never exceeds the live heap
// the engine adds, its graph dropped, by more than 5%, falls short of it
// by at most unaccountedCeiling, and at 50 universities is within 5% of
// it.
//
// A filled catalog is small (12,668 B), and a few KB of heap that has
// nothing to do with it may land in the window around it (at
// GOMAXPROCS=8 a single catalog read 0.44–0.70× in 8 of 20 runs), so the
// window holds statsCatalogs independent catalogs, alive together, and
// their summed account is held to the heap they add.
func TestAllocResidentAccount(t *testing.T) {
	if testing.Short() {
		t.Skip("residency measurement over a 50-university dataset")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	for _, univ := range []int{20, 50} {
		g := lubm.Generate(lubm.DefaultConfig(univ))
		terms, qs := g.Dict.TermsAfter(0), lubm.Queries()
		base := liveHeap()
		d := rdf.NewDict()
		for _, tm := range terms {
			d.Encode(tm)
		}
		dictHeap := liveHeap() - base
		runtime.KeepAlive(terms) // in base
		const statsCatalogs = 64
		cats := make([]*cost.Catalog, statsCatalogs)
		base = liveHeap()
		var statsBytes int64
		for i := range cats {
			cats[i] = cost.NewCatalog(g, 1)
			for _, q := range qs {
				cats[i].Snapshot(g.Dict, q)
			}
			statsBytes += cats[i].Bytes()
		}
		statsHeap := liveHeap() - base
		c := cats[0]
		runtime.KeepAlive(cats)
		base = liveHeap()
		store := dstore.NewStore(csq.DefaultConfig().Nodes)
		partition.LoadWithPolicy(store, g, partition.ThreeReplica, nil)
		slabs, slabHeap := store.Current().Bytes(), liveHeap()-base
		runtime.KeepAlive(store)
		for _, m := range []struct {
			name    string
			account int64
			heap    uint64
		}{
			{"DictBytes", d.Bytes(), dictHeap}, {"StatsBytes", statsBytes, statsHeap}, {"StoreBytes", slabs, slabHeap},
		} {
			if r := float64(m.account) / float64(m.heap); r < 0.95 || r > 1.05 {
				t.Errorf("%d universities: %s = %d, the heap holds %d: %.3f×", univ, m.name, m.account, m.heap, r)
			} else {
				t.Logf("%d universities: %s = %d, the heap holds %d: %.3f×", univ, m.name, m.account, m.heap, r)
			}
		}
		base = liveHeap()
		eng := func() *Engine { // the engine's own graph does not outlive this function
			eng, err := NewEngine(lubm.Generate(lubm.DefaultConfig(univ)), Options{Parallelism: 2, ResultCacheBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}()
		queryAll(t, eng, qs)
		engineHeap := liveHeap() - base
		us, rc := eng.UpdateStats(), eng.ResultCacheStats()
		if rc.Entries != len(qs) || rc.Evictions != 0 {
			t.Fatalf("%d universities: the result cache holds %d entries (%d evicted), want the %d answers", univ, rc.Entries, rc.Evictions, len(qs))
		}
		if us.DictBytes != uint64(d.Bytes()) || us.StatsBytes != uint64(c.Bytes()) || us.StoreBytes != uint64(slabs) {
			t.Errorf("%d universities: the engine reports DictBytes %d, StatsBytes %d and StoreBytes %d, the structures built alone %d, %d and %d",
				univ, us.DictBytes, us.StatsBytes, us.StoreBytes, d.Bytes(), c.Bytes(), slabs)
		}
		sum := us.DictBytes + us.StatsBytes + us.StoreBytes + us.ScratchBytes + us.SpaceBytes + uint64(rc.Bytes)
		r, rest := float64(sum)/float64(engineHeap), int64(engineHeap)-int64(sum)
		if r > 1.05 || rest > unaccountedCeiling || univ >= 50 && r < 0.95 {
			t.Errorf("%d universities: the engine accounts for %d B (%+v, result cache %d), the heap holds %d: %.3f×, %d B unaccounted",
				univ, sum, us, rc.Bytes, engineHeap, r, rest)
		} else {
			t.Logf("%d universities: the engine accounts for %d B (result cache %d), the heap holds %d: %.3f×, %d B unaccounted", univ, sum, rc.Bytes, engineHeap, r, rest)
		}
		eng.Close()
	}
}

// TestStatsBytesIndependentOfSize: the statistics catalog keeps counts,
// not bindings, so what it holds once it has answered the 14 LUBM
// queries — their 20 patterns, with their constants, and 14 layouts —
// is the same number of bytes at 5 universities as at 20. When the
// patterns kept binding arrays it grew with the data, 5 B a triple.
func TestStatsBytesIndependentOfSize(t *testing.T) {
	var bytes [2]uint64
	for i, univ := range []int{5, 20} {
		eng, err := NewEngine(lubm.Generate(lubm.DefaultConfig(univ)), Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		queryAll(t, eng, lubm.Queries())
		us := eng.UpdateStats()
		if bytes[i] = us.StatsBytes; us.StatsPatterns != 20 {
			t.Errorf("%d universities: %d patterns resident, want 20", univ, us.StatsPatterns)
		}
		eng.Close()
	}
	if bytes[0] != bytes[1] {
		t.Errorf("StatsBytes %d at 5 universities, %d at 20: the catalog grows with the data", bytes[0], bytes[1])
	}
}

// TestStoreBytesFlatUnderReads: reading the store adds nothing to it. At
// 20 universities, after three passes of the 14 LUBM queries on two
// lanes and a batch whose 1,000 inserts are present and whose 1,000
// deletes are absent — the writer's presence test probes each, and the
// batch commits nothing — StoreBytes is what it was right after the
// load, and so is the store's epoch.
func TestStoreBytesFlatUnderReads(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(20))
	eng, err := NewEngine(g, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	loaded, version := eng.UpdateStats().StoreBytes, eng.DataVersion()
	for i := 0; i < 3; i++ {
		queryAll(t, eng, lubm.Queries())
	}
	ts, b := g.Triples(), new(Batch)
	for i := 0; i < 1000; i++ {
		tr := ts[i*len(ts)/1000]
		b.Insert(g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O))
		absent := rdf.Triple{S: tr.O, P: tr.P, O: tr.S} // an object as subject
		if g.Contains(absent) {
			t.Fatalf("%v is stored: not an absent probe", absent)
		}
		b.Delete(g.Dict.Term(absent.S), g.Dict.Term(absent.P), g.Dict.Term(absent.O))
	}
	if res, err := eng.ApplyBatch(b); err != nil || res.Inserted != 0 || res.Deleted != 0 {
		t.Fatalf("a batch of present inserts and absent deletes: %+v, err %v; want no change", res, err)
	}
	if got := eng.UpdateStats().StoreBytes; got != loaded || eng.DataVersion() != version {
		t.Errorf("StoreBytes %d at epoch %d after the reads, %d at epoch %d after the load", got, eng.DataVersion(), loaded, version)
	}
}

// TestAllocResidentPerTriple is the standing residency guard: what an
// idle engine keeps alive per triple, with the caller's graph dropped —
// the partitioned store is the engine's only copy of the data — and with
// it kept; and what the same engine keeps once warm, after three passes
// of the 14 LUBM queries on two lanes: its caches and its pooled
// execution context's scratch.
func TestAllocResidentPerTriple(t *testing.T) {
	if testing.Short() {
		t.Skip("residency measurement over a 100-university dataset")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	live := liveHeap
	base := live()
	var triples, kept float64
	eng := func() *Engine { // the graph does not outlive this function
		g := lubm.Generate(lubm.DefaultConfig(100))
		eng, err := NewEngine(g, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		triples = float64(g.Len())
		kept = float64(live()-base) / triples
		runtime.KeepAlive(g)
		return eng
	}()
	defer eng.Close()
	dropped := float64(live()-base) / triples
	t.Logf("%.0f triples: %.1f B/triple resident with the caller's graph kept, %.1f with it dropped", triples, kept, dropped)
	if dropped > residentCeiling {
		t.Errorf("%.1f B/triple resident with the graph dropped, ceiling %.1f", dropped, residentCeiling)
	}
	if kept > residentWithGraphCeiling {
		t.Errorf("%.1f B/triple resident with the graph kept, ceiling %.1f", kept, residentWithGraphCeiling)
	}
	for i := 0; i < 3; i++ {
		queryAll(t, eng, lubm.Queries())
	}
	warm := float64(live()-base) / triples
	t.Logf("%.1f B/triple resident once warm (%d B of context scratch)", warm, eng.UpdateStats().ScratchBytes)
	if warm > residentWarmCeiling {
		t.Errorf("%.1f B/triple resident once warm, ceiling %.1f", warm, residentWarmCeiling)
	}
}
