package csq

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// coldTemplates is the benchmark's plan_cold mix for university c: the
// six LUBM templates that carry a university constant.
func coldTemplates(t *testing.T, c int) []*sparql.Query {
	t.Helper()
	qs := lubm.UniversityVariants(c)
	if len(qs) != 6 {
		t.Fatalf("%d LUBM templates carry a university constant, the test assumes 6", len(qs))
	}
	return qs
}

func prepareAll(t *testing.T, e *Engine, qs []*sparql.Query) []*Prepared {
	t.Helper()
	out := make([]*Prepared, len(qs))
	for i, q := range qs {
		p, _, err := e.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		out[i] = p
	}
	return out
}

// checkCatalog asserts, on an engine nobody is using, that the
// statistics of each query asked, snapshotted at the engine's version,
// equal a fresh rebuild over a graph of the current epoch, and that the
// snapshots read patterns the catalog kept: they fill none. asked must
// cover every query prepared on e, so every resident pattern is checked.
func checkCatalog(t *testing.T, e *Engine, asked []*sparql.Query) {
	t.Helper()
	g := stored(e)
	fills := e.UpdateStats().StatsFills
	for _, q := range asked {
		st := e.cat.Snapshot(e.dict, q)
		if st.Version() != e.DataVersion() {
			t.Errorf("%s: snapshot at version %d, engine at %d", q.Name, st.Version(), e.DataVersion())
		}
		if !st.Equal(cost.NewStats(g, q)) {
			t.Errorf("%s: catalog statistics differ from a fresh rebuild", q.Name)
		}
	}
	if n := e.UpdateStats().StatsFills - fills; n != 0 {
		t.Errorf("checking the catalog filled %d patterns: some asked pattern was not resident", n)
	}
}

// TestPrepareFillsOnce: the catalog keeps a query's patterns whatever
// the plan cache does, so preparing one query again and again fills its
// patterns once in total — through Prepare, and through PrepareCached
// with the plan cache off — and enumerates its shape once. When the
// plan cache held the patterns, five Prepare(Q1) made 10 fills.
func TestPrepareFillsOnce(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))
	q, err := lubm.Query("Q1")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(g, DefaultConfig())
	for i := 0; i < 5; i++ {
		mustPrepare(t, eng, q)
	}
	if us := eng.UpdateStats(); us.StatsFills != 2 || us.StatsPatterns != 2 || us.Enumerations != 1 {
		t.Errorf("five Prepare(Q1): %d fills, %d patterns, %d enumerations; want 2, 2 and 1", us.StatsFills, us.StatsPatterns, us.Enumerations)
	}
	cfg := DefaultConfig()
	cfg.PlanCacheSize = -1
	uncached := New(g, cfg)
	for i := 0; i < 5; i++ {
		if _, hit, err := uncached.PrepareCached(q); err != nil || hit {
			t.Fatalf("hit=%v err=%v with the plan cache off", hit, err)
		}
	}
	if us := uncached.UpdateStats(); us.StatsFills != 2 || us.Enumerations != 1 || us.Spaces != 1 {
		t.Errorf("five PrepareCached(Q1) without a plan cache: %+v; want 2 fills, 1 enumeration, 1 space", us)
	}
}

// TestCatalogCounters pins the shared catalog's mechanism as counts that
// repeat exactly: a cold pass over an unseen constant fills only the
// pattern shapes that carry it, a commit folds each distinct pattern
// once however many plans share it, a revalidation whose snapshot did
// not change prices nothing, and evicted plans leave their patterns
// resident: a plan planned again fills nothing.
func TestCatalogCounters(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(3))
	eng := New(g, DefaultConfig())
	warm := prepareAll(t, eng, coldTemplates(t, 0))
	base := eng.UpdateStats()
	queryPatterns := 0
	for _, p := range warm {
		queryPatterns += len(p.Query.Patterns)
	}
	if base.StatsFills != base.StatsPatterns || int(base.StatsPatterns) >= queryPatterns {
		t.Fatalf("warm pass: %d fills, %d patterns resident for %d query patterns; want fills = resident < query patterns",
			base.StatsFills, base.StatsPatterns, queryPatterns)
	}

	// An unseen university: only the three shapes that carry the constant
	// are new (the parent scanned the graph once per query pattern).
	prepareAll(t, eng, coldTemplates(t, 1))
	us := eng.UpdateStats()
	if us.StatsFills-base.StatsFills != 3 || us.StatsPatterns-base.StatsPatterns != 3 {
		t.Errorf("unseen-constant pass: %d fills, %d new patterns; want 3 and 3",
			us.StatsFills-base.StatsFills, us.StatsPatterns-base.StatsPatterns)
	}

	// One commit, twelve cached plans: the delta is folded once per
	// distinct pattern, not once per plan and pattern.
	_, _, folds := eng.cat.Counters()
	noise := rdf.Triple{S: g.Dict.EncodeIRI("urn:x"), P: g.Dict.EncodeIRI("urn:y"), O: g.Dict.EncodeIRI("urn:z")}
	if _, err := eng.ApplyBatch([]rdf.Triple{noise}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, now := eng.cat.Counters(); now-folds != us.StatsPatterns || int(now-folds) >= 2*queryPatterns {
		t.Errorf("commit folded %d patterns; want %d, the distinct ones (the 12 plans have %d between them)",
			now-folds, us.StatsPatterns, 2*queryPatterns)
	}

	// The triple matched no pattern, so every snapshot is unchanged:
	// revalidation moves the version tag and keeps the snapshot object —
	// which only the branch that prices nothing does.
	for i, p := range prepareAll(t, eng, coldTemplates(t, 0)) {
		if p.DataVersion != eng.DataVersion() || p.stats != warm[i].stats || p.Physical != warm[i].Physical ||
			math.Float64bits(p.chosenCost) != math.Float64bits(warm[i].chosenCost) {
			t.Errorf("%s: revalidation under unchanged statistics did not keep the choice as it was", p.Query.Name)
		}
	}
	if after := eng.UpdateStats(); after.Revalidations != 6 || after.Replans != 0 || after.StatsFills != us.StatsFills {
		t.Errorf("after revalidating: %+v; want 6 revalidations, no replan, no fill", after)
	}
	// A delta that does move a pattern's numbers is re-priced.
	typ := rdf.Triple{S: g.Dict.EncodeIRI("urn:x"), P: g.Dict.EncodeIRI(sparql.RDFType), O: g.Dict.EncodeIRI(lubm.NS + "GraduateStudent")}
	if _, err := eng.ApplyBatch([]rdf.Triple{typ}, nil); err != nil {
		t.Fatal(err)
	}
	repriced := 0
	for i, p := range prepareAll(t, eng, coldTemplates(t, 0)) {
		if p.stats != warm[i].stats {
			repriced++
		}
	}
	if repriced == 0 {
		t.Error("no plan was re-priced after a triple joined a pattern they scan")
	}
	checkCatalog(t, eng, append(coldTemplates(t, 0), coldTemplates(t, 1)...))

	// A cache of six plans in one shard: each variant's plan evicts a
	// warm one, and the catalog keeps every pattern all the same, so the
	// warm pass planned again misses the plan cache and fills nothing.
	cfg := DefaultConfig()
	cfg.PlanCacheSize = 6
	small := New(g, cfg)
	asked := coldTemplates(t, 0)
	prepareAll(t, small, asked)
	warmed := small.UpdateStats().StatsPatterns
	for c := 1; c <= 2; c++ {
		prepareAll(t, small, coldTemplates(t, c))
		asked = append(asked, coldTemplates(t, c)...)
		if got := small.UpdateStats().StatsPatterns; got != warmed+uint64(3*c) {
			t.Errorf("variant pass %d: %d patterns resident, want the warm pass's %d and 3 per pass", c, got, warmed)
		}
	}
	before, misses := small.UpdateStats(), small.CacheStats().Misses
	prepareAll(t, small, coldTemplates(t, 0))
	if us := small.UpdateStats(); small.CacheStats().Misses-misses != 6 || us.StatsFills != before.StatsFills {
		t.Errorf("the evicted warm pass planned again: %d misses, %d fills; want 6 and none",
			small.CacheStats().Misses-misses, us.StatsFills-before.StatsFills)
	}
	checkCatalog(t, small, asked)
}

// churnGraph is a small four-level chain with 48 tag constants.
func churnGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 96; i++ {
		g.AddSPO(fmt.Sprintf("x%d", i), "tag", fmt.Sprintf("c%d", i%48))
		g.AddSPO(fmt.Sprintf("x%d", i), "p", fmt.Sprintf("y%d", i%20))
	}
	for j := 0; j < 20; j++ {
		g.AddSPO(fmt.Sprintf("y%d", j), "q", fmt.Sprintf("z%d", j%7))
	}
	for k := 0; k < 7; k++ {
		g.AddSPO(fmt.Sprintf("z%d", k), "r", fmt.Sprintf("w%d", k%2))
	}
	return g
}

// gatedSource is a Source whose reads wait until gate is closed.
type gatedSource struct {
	cost.Source
	gate chan struct{}
}

func (s gatedSource) EachTriple(prop rdf.TermID, fn func(rdf.Triple)) {
	<-s.gate
	s.Source.EachTriple(prop, fn)
}

// churnQuery is the template: one pattern carries constant c, three are
// shared by every instance.
func churnQuery(c int) *sparql.Query {
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?x ?w WHERE { ?x <tag> <c%d> . ?x <p> ?y . ?y <q> ?z . ?z <r> ?w }`, c))
	q.Name = "churn"
	return q
}

// churnBatch is the writer's b-th batch, encoded against g's dictionary.
func churnBatch(g *rdf.Graph, b int) (ins, dels []rdf.Triple) {
	spo := func(s, p, o string) rdf.Triple {
		return rdf.Triple{S: g.Dict.EncodeIRI(s), P: g.Dict.EncodeIRI(p), O: g.Dict.EncodeIRI(o)}
	}
	for i := 0; i < 6; i++ {
		n := b*6 + i
		ins = append(ins,
			spo(fmt.Sprintf("x%d", 100+n), "tag", fmt.Sprintf("c%d", n%48)),
			spo(fmt.Sprintf("x%d", 100+n), "p", fmt.Sprintf("y%d", n%25)),
			spo(fmt.Sprintf("y%d", n%25), "q", fmt.Sprintf("z%d", n%9)))
		dels = append(dels, spo(fmt.Sprintf("x%d", n), "p", fmt.Sprintf("y%d", n%20)))
	}
	return ins, dels
}

// TestCatalogLifetimeUnderChurn cold-prepares twelve times the plan
// cache's capacity in distinct constants — an entry evicted while its
// compute is still in flight included — beside a writer committing
// batches. Afterwards the catalog holds every distinct pattern asked,
// each filled once and equal to a fresh fill, and every Prepared that
// was handed out carries a DataVersion at which an enumeration and a
// catalog of its own (freshPrepare) choose the same plan at the same
// cost, bit for bit. Run under -race in CI.
func TestCatalogLifetimeUnderChurn(t *testing.T) {
	const capacity, constants, batches, readers = 4, 48, 10, 4
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.PlanCacheSize = capacity // below the shard count: one LRU of four
	g := churnGraph()
	eng := New(g, cfg)

	type handed struct {
		c       int
		version uint64
		sig     string
		cost    float64
	}
	var mu sync.Mutex
	var out []handed
	var prepared atomic.Int64
	prepare := func(c int) {
		defer prepared.Add(1)
		p, _, err := eng.PrepareCached(churnQuery(c))
		if err != nil {
			t.Errorf("c%d: %v", c, err)
			return
		}
		mu.Lock()
		out = append(out, handed{c, p.DataVersion, p.Logical.Signature(), p.chosenCost})
		mu.Unlock()
	}

	// Six planners park in the catalog's fills inside their computes,
	// which read a view that waits on a gate; the fifth and sixth insert
	// evict two entries that are still in flight.
	var wg sync.WaitGroup
	gate := make(chan struct{})
	cur := eng.part.Current()
	eng.cat.Apply(gatedSource{cur, gate}, cur.Version(), eng.dict, nil, nil)
	for c := 0; c < capacity+2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prepare(c)
		}()
	}
	for eng.cache.Stats().Evictions < 2 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if st := eng.cache.Stats(); st.Misses != capacity+2 || st.Entries != capacity {
		t.Fatalf("after the parked computes: %+v", st)
	}
	var asked []*sparql.Query
	for c := 0; c < constants; c++ {
		asked = append(asked, churnQuery(c))
	}
	checkCatalog(t, eng, asked[:capacity+2])

	// Readers walk the remaining constants (each also re-requesting the
	// hot c0, so revalidation runs too) while the writer commits. Each
	// side waits when it gets more than a batch's worth of prepares ahead
	// of the other, so the epochs spread over the prepares.
	const perBatch = 7
	var committed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			for prepared.Load() < int64(capacity+2+perBatch*(b+1)) {
				runtime.Gosched()
			}
			ins, dels := churnBatch(g, b)
			if _, err := eng.ApplyBatch(ins, dels); err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
			committed.Add(1)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := capacity + 2 + r; c < constants; c += readers {
				for n := committed.Load(); n < batches && prepared.Load() >= int64(capacity+2)+perBatch*(n+2); n = committed.Load() {
					runtime.Gosched()
				}
				prepare(c)
				prepare(0)
			}
		}()
	}
	wg.Wait()
	if eng.DataVersion() != batches+1 {
		t.Fatalf("engine at version %d after %d batches", eng.DataVersion(), batches)
	}
	if st := eng.cache.Stats(); st.Misses < 10*capacity {
		t.Fatalf("%d cold prepares, want at least 10x the capacity of %d", st.Misses, capacity)
	}
	// One pattern per constant and the three every instance shares, each
	// filled once: the plan cache's churn moved none of them.
	if us := eng.UpdateStats(); us.StatsPatterns != constants+3 || us.StatsFills != constants+3 {
		t.Errorf("%d patterns resident, %d fills; want %d and %d", us.StatsPatterns, us.StatsFills, constants+3, constants+3)
	}
	checkCatalog(t, eng, asked)

	// Replay the same batches on a second engine, checking at each
	// version the plans handed out under its tag.
	versions := map[uint64]bool{}
	for _, h := range out {
		versions[h.version] = true
	}
	if len(versions) < batches/2 {
		t.Errorf("plans were handed out at only %d distinct versions; the writer did not interleave", len(versions))
	}
	fg := churnGraph()
	fresh := New(fg, cfg)
	for v := uint64(1); v <= batches+1; v++ {
		for _, h := range out {
			if h.version != v {
				continue
			}
			want := freshPrepare(t, fresh, churnQuery(h.c))
			if h.sig != want.Logical.Signature() || math.Float64bits(h.cost) != math.Float64bits(want.chosenCost) {
				t.Errorf("c%d tagged version %d: plan %s at cost %v, a fresh engine at that version chooses %s at %v",
					h.c, v, h.sig, h.cost, want.Logical.Signature(), want.chosenCost)
			}
		}
		if v <= batches {
			ins, dels := churnBatch(fg, int(v-1))
			if _, err := fresh.ApplyBatch(ins, dels); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPreparesAgreeAtOneVersion: a cached prepare, its revalidation, an
// uncached prepare and a fresh engine's, all at one DataVersion, agree
// on the plan and on its modeled cost bit for bit, for every LUBM query.
func TestPreparesAgreeAtOneVersion(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := New(g, DefaultConfig())
	qs := lubm.Queries()
	prepareAll(t, eng, qs)
	var dels []rdf.Triple
	for i, tr := range g.Triples() {
		if i%9 == 0 {
			dels = append(dels, tr)
		}
	}
	if _, err := eng.ApplyBatch(nil, dels); err != nil {
		t.Fatal(err)
	}
	mutate(g, nil, dels)
	fresh := New(g, DefaultConfig())
	for i, reval := range prepareAll(t, eng, qs) {
		q := qs[i]
		same := func(how string, p *Prepared) {
			t.Helper()
			if p.DataVersion != reval.DataVersion || p.Logical.Signature() != reval.Logical.Signature() ||
				math.Float64bits(p.chosenCost) != math.Float64bits(reval.chosenCost) {
				t.Errorf("%s: %s prepare chose %s at %v (version %d), the revalidated one %s at %v (version %d)",
					q.Name, how, p.Logical.Signature(), p.chosenCost, p.DataVersion,
					reval.Logical.Signature(), reval.chosenCost, reval.DataVersion)
			}
		}
		same("uncached", mustPrepare(t, eng, q))
		fp, _, err := fresh.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		fp2 := *fp
		fp2.DataVersion = reval.DataVersion // a fresh engine counts its epochs from 1
		same("fresh cached", &fp2)
	}
}
