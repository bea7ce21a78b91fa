package csq

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/wal"
)

const testRescacheBytes = 256 << 20

// runWorkload prepares and executes every query on e, returning the
// results in workload order.
func runWorkload(t *testing.T, e *Engine) []*physical.Result {
	t.Helper()
	qs := oracleQueries(t)
	out := make([]*physical.Result, len(qs))
	for i, q := range qs {
		p, _, err := e.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		r, err := e.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
		out[i] = r
	}
	return out
}

// compareResults asserts rows AND JobStats are deeply identical.
func compareResults(t *testing.T, label string, got, want []*physical.Result) {
	t.Helper()
	qs := oracleQueries(t)
	for i := range want {
		if !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
			t.Errorf("%s %s: rows diverge (%d vs %d)", label, qs[i].Name, len(got[i].Rows), len(want[i].Rows))
		}
		if !reflect.DeepEqual(got[i].Jobs, want[i].Jobs) {
			t.Errorf("%s %s: JobStats diverge:\n got %+v\nwant %+v", label, qs[i].Name, got[i].Jobs, want[i].Jobs)
		}
	}
}

// uniquePlans counts the distinct plan keys one pass of the workload
// probes and its probes: one per execution.
func uniquePlans(t *testing.T, e *Engine) (unique, probes int) {
	t.Helper()
	seen := make(map[string]bool)
	for _, q := range oracleQueries(t) {
		p, _, err := e.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		seen[p.Physical.Key()] = true
		probes++
	}
	return len(seen), probes
}

// TestResultCacheDeterminism is the cache-invisibility oracle: with
// the subplan result cache enabled, the serving workload's rows and
// simulated JobStats are byte-identical to an uncached engine at every
// parallelism level, repeated executions are served from cache, every
// execution probes the cache once, and exactly one execution misses per
// distinct plan key — including under concurrent serving, where
// singleflight must collapse racing cold probes into one compute. Run
// under -race in CI.
func TestResultCacheDeterminism(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))

	// The uncached one-lane run pins the golden answers; every other
	// configuration must reproduce them bit for bit.
	refCfg := DefaultConfig()
	refCfg.Parallelism = 1
	want := runWorkload(t, New(g, refCfg))

	matrix := []struct {
		name string
		tune func(*Config)
	}{
		{"lanes1", func(c *Config) { c.Parallelism = 1 }},
		{"lanes2", func(c *Config) { c.Parallelism = 2 }},
		{"gomaxprocs", func(c *Config) { c.Parallelism = runtime.GOMAXPROCS(0) }},
	}
	for _, tc := range matrix {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ResultCacheBytes = testRescacheBytes
			tc.tune(&cfg)
			eng := New(g, cfg)

			first := runWorkload(t, eng)
			compareResults(t, "cold", first, want)

			unique, probes := uniquePlans(t, eng)
			st := eng.ResultCacheStats()
			if int(st.Misses) != unique {
				t.Errorf("misses = %d, want exactly one per distinct plan key (%d)", st.Misses, unique)
			}
			if int(st.Hits+st.Misses) != probes {
				t.Errorf("probes = %d, want one per execution (%d)", st.Hits+st.Misses, probes)
			}
			if st.Evictions != 0 || st.Bytes <= 0 || st.Entries != unique {
				t.Errorf("cache stats = %+v, want %d resident entries and no evictions", st, unique)
			}

			// Warm pass: every answer is served from cache, unchanged.
			second := runWorkload(t, eng)
			compareResults(t, "warm", second, want)
			st2 := eng.ResultCacheStats()
			if st2.Misses != st.Misses {
				t.Errorf("warm pass re-executed plans: misses %d -> %d", st.Misses, st2.Misses)
			}
			if int(st2.Hits) != int(st.Hits)+probes {
				t.Errorf("warm pass hits = %d, want %d", st2.Hits, int(st.Hits)+probes)
			}
		})
	}

	// Concurrent serving against a cold cache: singleflight must give
	// exactly one execution per distinct plan key, and every racer's
	// answers stay byte-identical to the golden pins.
	t.Run("concurrent", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ResultCacheBytes = testRescacheBytes
		eng := New(g, cfg)
		const racers = 4
		var wg sync.WaitGroup
		results := make([][]*physical.Result, racers)
		for r := 0; r < racers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r] = runWorkload(t, eng)
			}(r)
		}
		wg.Wait()
		for r := 0; r < racers; r++ {
			compareResults(t, "racer", results[r], want)
		}
		unique, probes := uniquePlans(t, eng)
		st := eng.ResultCacheStats()
		if int(st.Misses) != unique {
			t.Errorf("concurrent misses = %d, want %d (one compute per plan key under singleflight)", st.Misses, unique)
		}
		if int(st.Hits+st.Misses) != racers*probes {
			t.Errorf("probe total = %d, want %d", st.Hits+st.Misses, racers*probes)
		}
	})
}

// TestResultCacheChurnInvalidation proves a committed batch invalidates
// stale entries: after each churn round the cache is empty, re-serving
// the workload at the new DataVersion matches a fresh engine over the
// mutated graph (no stale rows), and the new epoch's entries are
// admitted under the new version key.
func TestResultCacheChurnInvalidation(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := DefaultConfig()
	cfg.ResultCacheBytes = testRescacheBytes
	eng := New(g, cfg)
	qs := oracleQueries(t)

	// Warm the cache at the load epoch.
	runWorkload(t, eng)
	if st := eng.ResultCacheStats(); st.Entries == 0 {
		t.Fatal("warm-up cached nothing")
	}

	rng := rand.New(rand.NewSource(23))
	for round := 1; round <= 3; round++ {
		ins, dels := randomBatch(rng, g, round)
		br, err := eng.ApplyBatch(ins, dels)
		if err != nil {
			t.Fatalf("round %d: apply: %v", round, err)
		}
		mutate(g, ins, dels)
		if st := eng.ResultCacheStats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("round %d: commit left %d stale entries (%d bytes) resident", round, st.Entries, st.Bytes)
		}

		fresh := New(g, DefaultConfig())
		for _, q := range qs {
			p, _, err := eng.PrepareCached(q)
			if err != nil {
				t.Fatalf("round %d %s: prepare: %v", round, q.Name, err)
			}
			got, err := eng.ExecutePrepared(p)
			if err != nil {
				t.Fatalf("round %d %s: execute: %v", round, q.Name, err)
			}
			if got.DataVersion != br.DataVersion {
				t.Errorf("round %d %s: served version %d, want %d", round, q.Name, got.DataVersion, br.DataVersion)
			}
			// Second execution must hit the re-admitted entry and still
			// agree with the fresh engine.
			again, err := eng.ExecutePrepared(p)
			if err != nil {
				t.Fatalf("round %d %s: re-execute: %v", round, q.Name, err)
			}
			fp, err := fresh.Prepare(q)
			if err != nil {
				t.Fatalf("round %d %s: fresh prepare: %v", round, q.Name, err)
			}
			wantR, err := fresh.ExecutePrepared(fp)
			if err != nil {
				t.Fatalf("round %d %s: fresh execute: %v", round, q.Name, err)
			}
			for pass, r := range []*physical.Result{got, again} {
				if !reflect.DeepEqual(r.Rows, wantR.Rows) {
					t.Errorf("round %d %s pass %d: stale rows served (%d vs %d)", round, q.Name, pass, len(r.Rows), len(wantR.Rows))
				}
				if !reflect.DeepEqual(r.Jobs, wantR.Jobs) {
					t.Errorf("round %d %s pass %d: JobStats diverge", round, q.Name, pass)
				}
			}
		}
	}
}

// TestResultCacheDurableCommitPurges covers the group-commit path: a
// durable engine's committed batch must purge the result cache too.
func TestResultCacheDurableCommitPurges(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := DefaultConfig()
	cfg.ResultCacheBytes = testRescacheBytes
	eng, err := NewDurable(g, cfg, durableOpts(wal.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := lubm.Query("Q1")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := eng.PrepareCached(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecutePrepared(p); err != nil {
		t.Fatal(err)
	}
	if st := eng.ResultCacheStats(); st.Entries == 0 {
		t.Fatal("execution cached nothing")
	}
	rng := rand.New(rand.NewSource(5))
	ins, dels := randomBatch(rng, g, 1)
	if _, err := eng.ApplyBatch(ins, dels); err != nil {
		t.Fatal(err)
	}
	if st := eng.ResultCacheStats(); st.Entries != 0 {
		t.Fatalf("durable commit left %d stale entries", st.Entries)
	}
}

// TestResultCacheSurvivesRecovery checks that an engine reopened from
// its log is built like a new one: configured with a result cache, the
// recovered engine serves the second execution of a query from it, with
// rows and JobStats equal to the first.
func TestResultCacheSurvivesRecovery(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	fs := wal.NewMemFS()
	cfg := DefaultConfig()
	cfg.ResultCacheBytes = testRescacheBytes
	eng, err := NewDurable(g, cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	ins, dels := randomBatch(rand.New(rand.NewSource(7)), g, 1)
	if _, err := eng.ApplyBatch(ins, dels); err != nil {
		t.Fatal(err)
	}
	// Abandon the engine without Close, as a crash would.
	fs.CrashNow(wal.CrashDrop)
	fs.Reboot()
	rec, err := OpenDurable(cfg, durableOpts(fs))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()

	q, err := lubm.Query("Q2")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := rec.PrepareCached(q)
	if err != nil {
		t.Fatal(err)
	}
	first, err := rec.ExecutePrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := rec.ExecutePrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.ResultCacheStats(); st.Hits == 0 {
		t.Errorf("recovered engine took no result-cache hits: %+v", st)
	}
	if !reflect.DeepEqual(second.Rows, first.Rows) {
		t.Errorf("cached rows diverge (%d vs %d)", len(second.Rows), len(first.Rows))
	}
	if !reflect.DeepEqual(second.Jobs, first.Jobs) {
		t.Errorf("cached JobStats diverge:\n got %+v\nwant %+v", second.Jobs, first.Jobs)
	}
}

// heapAfterGC is the live heap once everything unreachable is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResultCacheBytesAreResidentBytes pins the cache's accounting to
// what its entries really keep resident. An entry owns its packed rows —
// never a view of chunks cut for other rows too, and no row headers — in
// arrays whose capacity is their size class, so its weight (the packed
// bytes and restart offsets at capacity + every job's
// JobRecord.MemBytes() and pointer + the entry, its key and the cache's
// node for it) is its memory: with the 14-query working set cached and
// nothing else holding the rows, purging the cache must free what the
// cache said it held, within 5%.
func TestResultCacheBytesAreResidentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 20-university dataset")
	}
	g := lubm.Generate(lubm.DefaultConfig(20))
	cfg := DefaultConfig()
	cfg.ResultCacheBytes = testRescacheBytes
	cfg.Parallelism = 1
	eng := New(g, cfg)
	for _, q := range lubm.Queries() {
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		// The result is dropped at once: only the cache holds the rows.
		if _, err := eng.ExecutePrepared(p); err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
	}
	st := eng.ResultCacheStats()
	if st.Entries == 0 || st.Evictions != 0 {
		t.Fatalf("cache stats = %+v, want the whole working set resident", st)
	}
	with := heapAfterGC()
	eng.res.Purge()
	without := heapAfterGC()
	freed := int64(with) - int64(without)
	if diff := freed - st.Bytes; diff > st.Bytes/20 || diff < -st.Bytes/20 {
		t.Errorf("the cache accounts %d B for %d entries, purging it freed %d B (%+.1f%%), want within 5%%",
			st.Bytes, st.Entries, freed, 100*float64(diff)/float64(st.Bytes))
	}
	t.Logf("accounted %d B, freed %d B, %d entries", st.Bytes, freed, st.Entries)
	runtime.KeepAlive(eng)
}

// TestResultCachePacksAnswers runs the 14 LUBM queries over 20
// universities through a cache-on engine: a hit's rows and JobStats are
// an uncached run's, every entry keeps its answer packed — at most a
// quarter of the answers' flat 4 B a cell over all 14 — and the cache
// weighs exactly its entries. What an entry keeps beside its rows (its
// jobs' records, its plan key, the cache's node for it: about 2 KB an
// entry) does not shrink with them, so at this size the whole cache
// comes to about a quarter of the cells; over 100 universities to a
// sixth.
func TestResultCachePacksAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 20-university dataset")
	}
	g := lubm.Generate(lubm.DefaultConfig(20))
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	plain := New(g, cfg)
	cfg.ResultCacheBytes = testRescacheBytes
	cached := New(g, cfg)
	run := func(e *Engine, q *sparql.Query) (*physical.Result, *physical.Plan) {
		p, _, err := e.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		r, err := e.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
		return r, p.Physical
	}
	var raw, packed, weight int64
	for _, q := range lubm.Queries() {
		want, _ := run(plain, q)
		run(cached, q) // the miss admits the answer
		hits := cached.ResultCacheStats().Hits
		got, pp := run(cached, q)
		if cached.ResultCacheStats().Hits != hits+1 {
			t.Fatalf("%s: the repeat was not served from the result cache", q.Name)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
			t.Errorf("%s: a hit's rows or JobStats differ from an uncached run's (%d rows, want %d)", q.Name, len(got.Rows), len(want.Rows))
		}
		ent, hit := cached.res.Do(rescache.Key(got.DataVersion, pp.Key()), func() *rescache.Entry {
			t.Fatalf("%s: the answer just served is not cached", q.Name)
			return nil
		})
		if !hit || ent.Rows.N != len(want.Rows) || len(ent.Rows.Data) > 3*len(want.Rows)*len(want.Schema) {
			t.Errorf("%s: the entry packs %d rows into %d B, the answer is %d rows of %d cells",
				q.Name, ent.Rows.N, len(ent.Rows.Data), len(want.Rows), len(want.Schema))
		}
		raw += 4 * int64(len(want.Rows)*len(want.Schema))
		packed += ent.Rows.Bytes()
		weight += ent.Bytes()
	}
	st := cached.ResultCacheStats()
	if st.Entries != len(lubm.Queries()) || st.Evictions != 0 || st.Bytes != weight {
		t.Errorf("the cache holds %d entries in %d B (%d evictions), its entries weigh %d B: want all 14, exactly",
			st.Entries, st.Bytes, st.Evictions, weight)
	}
	if packed > raw/4 {
		t.Errorf("the 14 answers' cells take %d B, their packed rows %d B: want at most a quarter", raw, packed)
	}
	t.Logf("14 answers: %d B of cells, %d B packed (%.2f×), %d B cached (%.2f×)",
		raw, packed, float64(raw)/float64(packed), st.Bytes, float64(raw)/float64(st.Bytes))
}
