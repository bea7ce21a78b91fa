package cliquesquare

// Concurrent serving correctness: many goroutines issuing a mix of
// repeated and distinct queries against one engine must each observe
// results and simulated statistics byte-identical to a single-threaded
// uncached run, and the plan cache must have planned every unique
// fingerprint exactly once (singleflight). Run under -race in CI.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
)

// baselineResult is one query's uncached single-threaded outcome.
type baselineResult struct {
	rows []mapreduce.Row
	jobs []mapreduce.JobStats
}

func captureBaseline(t *testing.T, eng *csq.Engine, qs []*sparql.Query) map[string]baselineResult {
	t.Helper()
	base := make(map[string]baselineResult, len(qs))
	for _, q := range qs {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		r, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
		base[q.Name] = baselineResult{rows: r.Rows, jobs: r.Jobs}
	}
	return base
}

func sameResult(got *physical.Result, want baselineResult) error {
	if len(got.Rows) != len(want.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.rows))
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.rows[i]) {
			return fmt.Errorf("row %d = %v, want %v", i, got.Rows[i], want.rows[i])
		}
	}
	if !reflect.DeepEqual(got.Jobs, want.jobs) {
		return fmt.Errorf("job stats %+v, want %+v", got.Jobs, want.jobs)
	}
	return nil
}

// TestConcurrentServingDeterminism drives one cached engine from many
// goroutines with a rotating mix of the LUBM queries (every goroutine
// re-issues every query several times, so the workload mixes cold
// plans, singleflight collisions and steady-state cache hits) and
// checks every response against the uncached single-threaded baseline.
func TestConcurrentServingDeterminism(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))
	qs := lubm.Queries()

	uncached := csq.DefaultConfig()
	uncached.PlanCacheSize = -1
	base := captureBaseline(t, csq.New(g, uncached), qs)

	eng := csq.New(g, csq.DefaultConfig())
	const goroutines = 8
	const rounds = 3
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds*len(qs); i++ {
				q := qs[(w+i)%len(qs)] // staggered: repeats and distinct shapes interleave
				p, _, err := eng.PrepareCached(q)
				if err != nil {
					errs <- fmt.Errorf("%s: prepare: %v", q.Name, err)
					return
				}
				r, err := eng.ExecutePrepared(p)
				if err != nil {
					errs <- fmt.Errorf("%s: execute: %v", q.Name, err)
					return
				}
				if err := sameResult(r, base[q.Name]); err != nil {
					errs <- fmt.Errorf("%s: %v", q.Name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Distinct cache keys (canonical fingerprint + name) among the LUBM
	// queries: singleflight must have planned each exactly once,
	// however the goroutines raced.
	unique := make(map[string]bool)
	for _, q := range qs {
		unique[sparql.Canonicalize(q).Key+"\x00"+q.Name] = true
	}
	st := eng.CacheStats()
	if st.Misses != uint64(len(unique)) {
		t.Errorf("cache planned %d times, want exactly %d (one per unique fingerprint)", st.Misses, len(unique))
	}
	wantHits := uint64(goroutines*rounds*len(qs)) - st.Misses
	if st.Hits != wantHits {
		t.Errorf("cache hits = %d, want %d", st.Hits, wantHits)
	}
	if st.Entries != len(unique) {
		t.Errorf("cache entries = %d, want %d", st.Entries, len(unique))
	}
}

// TestFacadeServing exercises the public Prepare/Run surface: repeated
// Prepare calls hit the cache, alpha-equivalent queries share one plan,
// results are identical and PlanCached/CacheStats report it.
func TestFacadeServing(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`
	p1, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1.PlanCached() {
		t.Error("first Prepare reported a cache hit")
	}
	r1, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCached {
		t.Error("cold result claims PlanCached")
	}
	// Alpha-equivalent text: renamed variables, reordered patterns.
	p2, err := eng.Prepare(`SELECT ?x ?z WHERE { ?y <knows> ?z . ?x <knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.PlanCached() {
		t.Error("alpha-equivalent query missed the cache")
	}
	r2, err := p2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCached {
		t.Error("cached result does not report PlanCached")
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Errorf("cached rows differ: %v vs %v", r1.Rows, r2.Rows)
	}
	if !reflect.DeepEqual(r2.Vars, []string{"x", "z"}) {
		t.Errorf("cached result vars = %v, want the caller's names [x z]", r2.Vars)
	}
	if st := eng.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, 1 hit", st)
	}

	// Concurrent facade queries of the same text: identical answers.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Query(src)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Rows, r1.Rows) {
				errs <- fmt.Errorf("concurrent rows = %v, want %v", res.Rows, r1.Rows)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestColdPreparedConcurrentRun runs one freshly prepared plan from
// many goroutines with no prior execution: the Prepared (including the
// logical plan's memoized height/signature) must already be fully
// materialized when Prepare returns, so concurrent first Runs only
// read shared state. This is the regression test for the lazy Height
// memo data race.
func TestColdPreparedConcurrentRun(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare(`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run()
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != 2 || res.PlanHeight != 1 {
				errs <- fmt.Errorf("rows=%d height=%d, want 2, 1", len(res.Rows), res.PlanHeight)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInvalidQueryNeverServedFromCache guards the validation order: a
// hand-built query whose SELECT variable occurs in no pattern must be
// rejected even when a valid query of the same shape has already
// warmed the cache (PrepareCached validates before consulting it).
func TestInvalidQueryNeverServedFromCache(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	valid := sparql.MustParse(`SELECT ?a WHERE { ?a <knows> ?b }`)
	if _, err := eng.Run(valid); err != nil {
		t.Fatal(err)
	}
	bogus := &Query{Select: []string{"zz"}, Patterns: valid.Patterns}
	if _, err := eng.Run(bogus); err == nil {
		t.Error("unvalidated query with an unbound SELECT variable was served from the cache")
	}
}

// TestCacheKeyIncludesName pins the byte-identical JobStats contract
// across names: two structurally identical queries with different
// Names must plan separately, because simulated job names derive from
// the query Name and a shared plan would leak the first name into the
// second query's statistics.
func TestCacheKeyIncludesName(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := csq.New(g, csq.DefaultConfig())
	q1 := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#advisor> ?y }`)
	q1.Name = "first"
	q2 := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#advisor> ?y }`)
	q2.Name = "second"
	for _, q := range []*sparql.Query{q1, q2} {
		p, hit, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Errorf("%s: renamed query hit the other name's plan", q.Name)
		}
		r, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range r.Jobs {
			if want := q.Name + "-map-only"; js.Name != want {
				t.Errorf("%s: job stats carry name %q, want %q", q.Name, js.Name, want)
			}
		}
	}
	if st := eng.CacheStats(); st.Misses != 2 {
		t.Errorf("planned %d times, want 2 (one per name)", st.Misses)
	}
}

// TestCacheDisabled checks the escape hatch: with a negative cache
// size every Prepare plans afresh and stats stay zero.
func TestCacheDisabled(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 2, PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT ?a WHERE { ?a <knows> ?b }`
	for i := 0; i < 2; i++ {
		p, err := eng.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if p.PlanCached() {
			t.Errorf("prepare %d hit a disabled cache", i)
		}
	}
	if st := eng.CacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache reported stats %+v", st)
	}
}

// TestCachedRowsAreTheCallersOwn pins that the shared view a
// result-cache hit serves inside the engine never reaches a public
// caller: scribbling over every cell of a cached Query's Rows, then
// reordering, truncating and extending them, leaves the next identical
// Query byte-equal to an uncached engine's answer, and the engine-level
// rows under the facade (the view itself) read the same on every
// execution.
func TestCachedRowsAreTheCallersOwn(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cached, err := NewEngine(g, Options{ResultCacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(g, Options{PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range lubm.Queries() {
		src := q.String()
		want, err := plain.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for round := 0; round < 3; round++ { // a miss, then hits
			got, err := cached.Query(src)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s round %d: rows differ from the uncached engine's after the previous answer was overwritten", q.Name, round)
			}
			for _, row := range got.Rows {
				for i := range row {
					row[i] = "scribbled"
				}
			}
			if n := len(got.Rows); n > 1 {
				got.Rows[0], got.Rows[n-1] = got.Rows[n-1], got.Rows[0]
				got.Rows[0] = append(got.Rows[0][:1], "spilled", "over")
			}
			got.Rows = append(got.Rows[:len(got.Rows)/2], []string{"extra"})
		}
		p, _, err := cached.inner.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2][]mapreduce.Row
		for i := range runs {
			r, err := cached.inner.ExecutePrepared(p)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = r.Rows
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: two executions of the cached plan returned different rows", q.Name)
		}
		if len(runs[0]) != len(want.Rows) {
			t.Errorf("%s: cached plan returned %d rows, uncached answer has %d", q.Name, len(runs[0]), len(want.Rows))
		}
	}
	if st := cached.ResultCacheStats(); st.Hits == 0 {
		t.Error("no request was served from the result cache")
	}
}
