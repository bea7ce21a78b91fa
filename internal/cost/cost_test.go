package cost

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cliquesquare/internal/core"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

func chainGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.AddSPO(fmt.Sprintf("a%d", i), "p1", fmt.Sprintf("b%d", i))
		g.AddSPO(fmt.Sprintf("b%d", i), "p2", fmt.Sprintf("c%d", i%3))
		g.AddSPO(fmt.Sprintf("c%d", i%3), "p3", "d0")
	}
	return g
}

func TestStatsPatternCard(t *testing.T) {
	g := chainGraph(10)
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y . ?y <p2> ?z }`)
	s := NewStats(g, q)
	if got := s.PatternCard(0); got != 10 {
		t.Errorf("card(p1 pattern) = %v, want 10", got)
	}
	if got := s.PatternCard(1); got != 10 {
		t.Errorf("card(p2 pattern) = %v, want 10", got)
	}
	if got := s.Distinct(1, "z"); got != 3 {
		t.Errorf("distinct(z in p2 pattern) = %v, want 3", got)
	}
}

func TestStatsConstants(t *testing.T) {
	g := chainGraph(10)
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p2> <c0> . ?x <p1> ?y }`)
	s := NewStats(g, q)
	// b0, b3, b6, b9 map to c0.
	if got := s.PatternCard(0); got != 4 {
		t.Errorf("card(?x p2 c0) = %v, want 4", got)
	}
}

func TestStatsRepeatedVariable(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO("a", "p", "a")
	g.AddSPO("a", "p", "b")
	q := &sparql.Query{Select: []string{"x"}, Patterns: []sparql.TriplePattern{{
		S: sparql.Variable("x"), P: sparql.Constant(rdf.NewIRI("p")), O: sparql.Variable("x"),
	}}}
	s := NewStats(g, q)
	if got := s.PatternCard(0); got != 1 {
		t.Errorf("card(?x p ?x) = %v, want 1", got)
	}
}

func TestJoinCardChain(t *testing.T) {
	g := chainGraph(10)
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y . ?y <p2> ?z }`)
	s := NewStats(g, q)
	// card = 10*10 / max(distinct(y)) = 100/10 = 10.
	if got := s.JoinCard([]int{0, 1}); math.Abs(got-10) > 1e-9 {
		t.Errorf("JoinCard = %v, want 10", got)
	}
	if got := s.JoinCard(nil); got != 0 {
		t.Errorf("JoinCard(nil) = %v, want 0", got)
	}
}

func TestJoinCardEmptySharedVar(t *testing.T) {
	g := chainGraph(5)
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y . ?y <nosuch> ?z }`)
	s := NewStats(g, q)
	if got := s.JoinCard([]int{0, 1}); got != 0 {
		t.Errorf("JoinCard with empty pattern = %v, want 0", got)
	}
}

func TestPlanCostPrefersFlatPlan(t *testing.T) {
	// For a 4-chain, the flat MSC plan (1 reduce job) must cost less
	// than a fully linear plan (2+ reduce jobs) when job init
	// dominates.
	g := chainGraph(50)
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y . ?y <p2> ?z . ?z <p3> ?w . ?x <p1> ?u }`)
	s := NewStats(g, q)
	m := NewModel(mapreduce.DefaultConstants(), s)

	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	flat := m.Choose(res.Unique)
	if flat == nil {
		t.Fatal("no plan chosen")
	}
	// Build a deliberately linear plan: (((t0 ⋈ t3) ⋈ t1) ⋈ t2).
	j1, err := core.NewJoinOp([]*core.Op{core.NewMatch(q, 0), core.NewMatch(q, 3)})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := core.NewJoinOp([]*core.Op{j1, core.NewMatch(q, 1)})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := core.NewJoinOp([]*core.Op{j2, core.NewMatch(q, 2)})
	if err != nil {
		t.Fatal(err)
	}
	linear := core.NewPlan(q, j3)
	if cf, cl := m.PlanCost(flat), m.PlanCost(linear); cf >= cl {
		t.Errorf("flat plan cost %v >= linear plan cost %v", cf, cl)
	}
}

func TestChooseEmpty(t *testing.T) {
	m := NewModel(mapreduce.DefaultConstants(), &Stats{})
	if m.Choose(nil) != nil {
		t.Error("Choose(nil) != nil")
	}
}

// applyDelta mutates the graph by one batch and returns the effective
// delta, the way the engine's commit computes it.
func applyDelta(g *rdf.Graph, ins, dels []rdf.Triple) (effIns, effDels []rdf.Triple) {
	for _, t := range dels {
		if g.Contains(t) && !slices.Contains(effDels, t) {
			effDels = append(effDels, t)
		}
	}
	g.RemoveBatch(effDels)
	for _, t := range ins {
		if g.Add(t) {
			effIns = append(effIns, t)
		}
	}
	return effIns, effDels
}

// applyStats mutates the graph with one effective delta and mirrors it
// into s via Apply.
func applyStats(g *rdf.Graph, s *Stats, ins, dels []rdf.Triple) {
	effIns, effDels := applyDelta(g, ins, dels)
	s.Apply(g.Dict, effIns, effDels)
}

// resident returns the entries c holds for q's patterns, nil where c
// holds none.
func resident(c *Catalog, q *sparql.Query) []*pattern {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*pattern, len(q.Patterns))
	for i, tp := range q.Patterns {
		k, _, _ := keyOf(tp)
		_, out[i] = c.lookup(k)
	}
	return out
}

// checkStatsFresh asserts that delta-maintained statistics for q — the
// snapshot s and the patterns of catalog c behind it — are identical to
// a standalone rebuild over the mutated graph: the snapshot bit for bit,
// the resident patterns down to the distinct counts, which a pattern of
// one slot does not keep. Every distinct count equals one counted off
// the graph.
func checkStatsFresh(t *testing.T, g *rdf.Graph, q *sparql.Query, s *Stats, c *Catalog, step string) {
	t.Helper()
	fresh := NewStats(g, q)
	if !s.Equal(fresh) {
		t.Errorf("%s: %s: snapshot %v maintained, %v fresh", step, q.Name, s.pats, fresh.pats)
	}
	held := resident(c, q)
	for i, want := range resident(fresh.own, q) {
		got := held[i]
		if got == nil {
			continue // evicted: the snapshot was checked above
		}
		if got.n != want.n || got.distinct != want.distinct {
			t.Errorf("%s: %s: pattern %d holds %d matches and distinct counts %v maintained, %d and %v fresh",
				step, q.Name, i, got.n, got.distinct, want.n, want.distinct)
		}
		if got.slots == 1 && got.distinct != [3]int{} {
			t.Errorf("%s: %s: pattern %d has one slot and keeps a distinct count", step, q.Name, i)
		}
		for k := 0; k < got.slots; k++ {
			seen := map[rdf.TermID]bool{}
			for _, tr := range g.Triples() {
				if got.match(tr) {
					seen[tr.At(got.pos[k])] = true
				}
			}
			if d := s.pats[i].distinct[k]; d != float64(len(seen)) {
				t.Errorf("%s: %s: pattern %d slot %d: %v distinct, the graph has %d", step, q.Name, i, k, d, len(seen))
			}
		}
	}
}

// TestStatsApplyMatchesFresh drives a graph through insert and delete
// batches — including constant-bound and repeated-variable patterns, the
// single-slot ones (?z <p3> <d0>, ?y <p2> <c1>, ?x <loop> ?x) losing
// matches to deletes down to none, and a constant term the dictionary
// first learns mid-stream — and checks after every batch that Apply
// left the statistics identical to a fresh NewStats over the mutated
// graph.
func TestStatsApplyMatchesFresh(t *testing.T) {
	g := chainGraph(10)
	q := sparql.MustParse(`SELECT ?x ?z WHERE {
		?x <p1> ?y . ?y <p2> ?z . ?z <p3> <d0> . ?x <loop> ?x . ?y <p2> <c1> }`)
	s := NewStats(g, q)
	checkStatsFresh(t, g, q, s, s.own, "initial")

	spo := func(sub, p, o string) rdf.Triple {
		return rdf.Triple{S: g.Dict.EncodeIRI(sub), P: g.Dict.EncodeIRI(p), O: g.Dict.EncodeIRI(o)}
	}
	// Inserts matching several patterns, plus a self-loop: the <loop>
	// predicate (and the repeated-variable binding) enters the
	// dictionary only now, exercising late constant resolution.
	applyStats(g, s, []rdf.Triple{
		spo("a99", "p1", "b0"),
		spo("n1", "loop", "n1"),
		spo("n1", "loop", "n2"), // loop edge that does NOT match ?x <loop> ?x
	}, nil)
	checkStatsFresh(t, g, q, s, s.own, "after inserts")

	// Deletes, including the last p2 edge into c1 (its distinct binding
	// must vanish, and ?y <p2> <c1> is left with no match), a p3 edge
	// into d0 and the self-loop.
	applyStats(g, s, nil, []rdf.Triple{
		spo("a0", "p1", "b0"),
		spo("b1", "p2", "c1"),
		spo("b4", "p2", "c1"),
		spo("b7", "p2", "c1"),
		spo("c2", "p3", "d0"),
		spo("n1", "loop", "n1"),
		spo("never", "p1", "existed"), // no-op delete
	})
	checkStatsFresh(t, g, q, s, s.own, "after deletes")

	// Mixed batch: delete and re-insert overlapping rows.
	applyStats(g, s,
		[]rdf.Triple{spo("a0", "p1", "b0"), spo("b1", "p2", "c1")},
		[]rdf.Triple{spo("a99", "p1", "b0")})
	checkStatsFresh(t, g, q, s, s.own, "after mixed batch")
}

// TestCatalogMatchesFresh drives several queries that share patterns —
// a two-variable pattern under different variable names, a
// constant-bound one, a repeated-variable ?x <loop> ?x, a constant the
// dictionary first learns mid-stream and a pattern whose property is a
// variable — through ONE catalog by seeded random insert/delete batches.
// After every batch each query's snapshot is bit-equal to a standalone
// NewStats over the mutated graph, the delta was folded once per
// distinct pattern however many queries share it, and a pattern evicted
// under a shrunken budget and snapshotted again is filled afresh,
// correctly.
func TestCatalogMatchesFresh(t *testing.T) {
	g := chainGraph(10)
	var qs []*sparql.Query
	for i, src := range []string{
		`SELECT ?x ?z WHERE { ?x <p1> ?y . ?y <p2> ?z }`,
		`SELECT ?a WHERE { ?a <p1> ?b . ?b <p2> <c0> }`,
		`SELECT ?x WHERE { ?x <p1> ?y . ?x <loop> ?x }`,
		`SELECT ?s ?p WHERE { ?s ?p <d0> . ?m <p2> ?s }`,
		`SELECT ?x WHERE { ?x <p1> <late> . ?x <p1> ?w }`,
	} {
		q := sparql.MustParse(src)
		q.Name = fmt.Sprintf("q%d", i)
		qs = append(qs, q)
	}
	c := NewCatalog(g, 1)
	asked := []bool{true, true, true, true, true}
	check := func(step string) {
		t.Helper()
		for i, q := range qs {
			if asked[i] {
				checkStatsFresh(t, g, q, c.Snapshot(g.Dict, q), c, step)
			}
		}
	}
	check("initial")
	patterns, fills, folds := c.Counters()
	if patterns != 6 || fills != 6 || folds != 0 {
		t.Fatalf("after the first snapshots: %d patterns, %d fills, %d folds; want 6, 6, 0 (10 query patterns, 6 distinct)", patterns, fills, folds)
	}

	rng := rand.New(rand.NewSource(11))
	iri := func(v string) rdf.TermID { return g.Dict.EncodeIRI(v) }
	props := []string{"p1", "p2", "p3", "loop"}
	batch := func(round int) (ins, dels []rdf.Triple) {
		ts := g.Triples()
		for i := 0; i < 6; i++ {
			dels = append(dels, ts[rng.Intn(len(ts))])
		}
		ins = append(ins, dels[rng.Intn(len(dels))]) // delete + re-insert in one batch
		for i := 0; i < 8; i++ {
			s := fmt.Sprintf("n%d", rng.Intn(12))
			o := []string{s, "c0", "d0", fmt.Sprintf("b%d", rng.Intn(10)), fmt.Sprintf("n%d", rng.Intn(12))}[rng.Intn(5)]
			if round >= 5 && rng.Intn(4) == 0 {
				o = "late" // enters the dictionary in round 5 at the earliest
			}
			ins = append(ins, rdf.Triple{S: iri(s), P: iri(props[rng.Intn(len(props))]), O: iri(o)})
		}
		return ins, dels
	}
	late := resident(c, qs[4])[0]
	for round := 1; round <= 24; round++ {
		switch round {
		case 8:
			// q4 is the only user of ?x <p1> <late>: once the others have
			// been snapshotted after it, it is the least recent, and a budget
			// one byte under the catalog's weight evicts it, and only it.
			asked[4] = false
			check("before the eviction")
			c.mu.Lock()
			c.budget = c.weight - 1
			c.evict()
			c.budget = budgetBytes
			c.mu.Unlock()
			if n, _, _ := c.Counters(); n != 5 || resident(c, qs[4])[0] != nil {
				t.Fatalf("round %d: %d patterns resident after the eviction, want 5 without q4's own", round, n)
			}
		case 16:
			asked[4] = true // snapshotted again after this round's Apply: a fill of the mutated graph
		}
		ins, dels := batch(round)
		effIns, effDels := applyDelta(g, ins, dels)
		patterns, fillsBefore, foldsBefore := c.Counters()
		c.Apply(g, uint64(1+round), g.Dict, effIns, effDels)
		if _, _, folds := c.Counters(); folds-foldsBefore != uint64(patterns) {
			t.Errorf("round %d: delta folded into %d patterns, want %d (once per distinct filled pattern)",
				round, folds-foldsBefore, patterns)
		}
		check(fmt.Sprintf("round %d", round))
		wantFills := fillsBefore
		if round == 16 {
			wantFills++
		}
		if _, fills, _ := c.Counters(); fills != wantFills {
			t.Errorf("round %d: %d fills, want %d", round, fills, wantFills)
		}
		if v := c.Snapshot(g.Dict, qs[0]).Version(); v != uint64(1+round) {
			t.Errorf("round %d: snapshot at version %d, want %d", round, v, 1+round)
		}
	}
	if _, ok := g.Dict.Lookup(rdf.NewIRI("late")); !ok {
		t.Fatal("the stream never introduced <late>: late resolution was not exercised")
	}
	if s := c.Snapshot(g.Dict, qs[4]); s.PatternCard(0) == 0 {
		t.Error("no triple matched ?x <p1> <late> by the end: late resolution was not exercised")
	}
	if again := resident(c, qs[4])[0]; again == nil || again == late {
		t.Error("?x <p1> <late> was not filled afresh after its eviction")
	}
	checkResident(t, c, g.Dict, g, "the end")
}

// parkOnce is a Source whose first fill reads its property's triples
// of g into the fill, parks until release is closed and then, if panics
// is set, panics; every later fill reads g.
type parkOnce struct {
	g                *rdf.Graph
	panics           bool
	started, release chan struct{}
	done             atomic.Bool
}

func newParkOnce(g *rdf.Graph, panics bool) *parkOnce {
	return &parkOnce{g: g, panics: panics, started: make(chan struct{}), release: make(chan struct{})}
}

func (s *parkOnce) EachTriple(prop rdf.TermID, fn func(rdf.Triple)) {
	s.g.EachTriple(prop, fn)
	if s.done.CompareAndSwap(false, true) {
		close(s.started)
		<-s.release
		if s.panics {
			panic("fill failed")
		}
	}
}

// TestPanickingFillDoesNotWedge holds Snapshot to its cleanup when a
// fill panics midway: the panic reaches the filling caller, and the
// patterns it claimed go back unfilled, their partial counts dropped,
// so a Snapshot that was waiting on them fills them itself and one taken
// afterwards reads them — both exact, and neither blocked.
func TestPanickingFillDoesNotWedge(t *testing.T) {
	g := chainGraph(10)
	q := sparql.MustParse(`SELECT ?x ?z WHERE { ?x <p1> ?y . ?y <p2> ?z . ?z <p3> <d0> }`)
	src := newParkOnce(g, true)
	c := NewCatalog(src, 1)
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Snapshot(g.Dict, q)
	}()
	<-src.started
	waited := make(chan *Stats, 1)
	go func() { waited <- c.Snapshot(g.Dict, q) }()
	close(src.release)
	deadline := time.After(2 * time.Second)
	select {
	case r := <-panicked:
		if r != "fill failed" {
			t.Fatalf("the filling caller recovered %v, want the fill's panic", r)
		}
	case <-deadline:
		t.Fatal("the panicking Snapshot did not return")
	}
	select {
	case s := <-waited:
		checkStatsFresh(t, g, q, s, c, "the Snapshot that waited on the panicking fill")
	case <-deadline:
		t.Fatal("a Snapshot waiting on the panicking fill is still blocked after 2 s")
	}
	later := make(chan *Stats, 1)
	go func() { later <- c.Snapshot(g.Dict, q) }()
	select {
	case s := <-later:
		checkStatsFresh(t, g, q, s, c, "a Snapshot after the panicking fill")
	case <-deadline:
		t.Fatal("a Snapshot after the panicking fill is still blocked after 2 s")
	}
	if patterns, fills, _ := c.Counters(); patterns != 3 || fills != 3 {
		t.Errorf("%d patterns resident, %d filled; want 3 and 3: a fill that panicked publishes nothing", patterns, fills)
	}
}

// TestSnapshotAtItsVersion holds a snapshot to the data of the version
// it reports when a commit lands while it waits on a fill, with no lock
// around the catalog. A fill the commit overtook must not publish the
// older data's counts, and a resident pattern the snapshot had looked
// up, evicted before the commit, missed its fold and must not be read.
// Each snapshot equals a fresh NewStats over the graph of its Version,
// and what the catalog keeps afterwards a fresh fill of the new graph.
func TestSnapshotAtItsVersion(t *testing.T) {
	p1p2 := sparql.MustParse(`SELECT ?x ?z WHERE { ?x <p1> ?y . ?y <p2> ?z }`)
	p1 := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y }`)
	p2 := sparql.MustParse(`SELECT ?y WHERE { ?y <p2> ?z }`)
	// commit inserts a triple of p1 (and one of p2 if both) into a copy
	// of g0, moves c to it as version 2 and returns it.
	commit := func(c *Catalog, g0 *rdf.Graph, both bool) *rdf.Graph {
		g1 := &rdf.Graph{Dict: g0.Dict}
		for _, tr := range g0.Triples() {
			g1.Add(tr)
		}
		ins := []rdf.Triple{{S: g1.Dict.EncodeIRI("new"), P: g1.Dict.EncodeIRI("p1"), O: g1.Dict.EncodeIRI("b0")}}
		if both {
			ins = append(ins, rdf.Triple{S: g1.Dict.EncodeIRI("b0"), P: g1.Dict.EncodeIRI("p2"), O: g1.Dict.EncodeIRI("c9")})
		}
		effIns, _ := applyDelta(g1, ins, nil)
		c.Apply(g1, 2, g1.Dict, effIns, nil)
		return g1
	}
	snapshot := func(c *Catalog, d *rdf.Dict, q *sparql.Query) <-chan *Stats {
		out := make(chan *Stats, 1)
		go func() { out <- c.Snapshot(d, q) }()
		return out
	}
	check := func(t *testing.T, name string, got <-chan *Stats, g0, g1 *rdf.Graph, q *sparql.Query) {
		t.Helper()
		select {
		case s := <-got:
			if want := NewStats([]*rdf.Graph{nil, g0, g1}[s.Version()], q); !s.Equal(want) {
				t.Errorf("%s: the snapshot at version %d holds %v, a fresh one of that version %v", name, s.Version(), s.pats, want.pats)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: still blocked after 2 s", name)
		}
	}

	t.Run("fill overtaken by a commit", func(t *testing.T) {
		g0 := chainGraph(10)
		src := newParkOnce(g0, false)
		c := NewCatalog(src, 1)
		got := snapshot(c, g0.Dict, p1p2)
		<-src.started
		g1 := commit(c, g0, true)
		close(src.release)
		check(t, "the overtaken snapshot", got, g0, g1, p1p2)
		checkResident(t, c, g1.Dict, g1, "after the overtaken fill")
	})

	t.Run("resident pattern evicted while waiting", func(t *testing.T) {
		g0 := chainGraph(10)
		c := NewCatalog(g0, 1)
		c.Snapshot(g0.Dict, p1)
		src := newParkOnce(g0, false)
		c.Apply(src, 1, g0.Dict, nil, nil) // the same data, read by a fill that parks
		filling := snapshot(c, g0.Dict, p2)
		<-src.started
		waiting := snapshot(c, g0.Dict, p1p2) // p1 resident, p2 claimed: it waits
		for {
			c.mu.Lock()
			layouts := len(c.layouts)
			c.mu.Unlock()
			if layouts == 3 { // it made its layout under the mutex it then waits on
				break
			}
			runtime.Gosched()
		}
		c.mu.Lock()
		c.budget = 0
		c.evict()
		c.budget = budgetBytes
		c.mu.Unlock()
		if p := resident(c, p1)[0]; p != nil {
			t.Fatal("the pattern of p1 is still resident")
		}
		g1 := commit(c, g0, false)
		close(src.release)
		check(t, "the filling snapshot", filling, g0, g1, p2)
		check(t, "the waiting snapshot", waiting, g0, g1, p1p2)
		checkResident(t, c, g1.Dict, g1, "after the evicted pattern's refill")
	})
}

// TestJoinCardOneBitPattern pins the fixed variable order: the same
// statistics price the same pattern set to the same bits on every call.
// When the divisions ran in map-iteration order, all patterns of Q12,
// Q13 and Q14 priced to two different bit patterns within 2,000 calls.
func TestJoinCardOneBitPattern(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(6))
	for _, q := range lubm.Queries() {
		s := NewStats(g, q)
		all := make([]int, len(q.Patterns))
		for i := range all {
			all[i] = i
		}
		want := math.Float64bits(s.JoinCard(all))
		for i := 0; i < 2000; i++ {
			if got := math.Float64bits(s.JoinCard(all)); got != want {
				t.Fatalf("%s: call %d priced all patterns to %#x, the first call to %#x", q.Name, i, got, want)
			}
		}
	}
}
