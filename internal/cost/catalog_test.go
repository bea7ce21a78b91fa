package cost

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// checkResident asserts, on a catalog nobody is using, that every
// resident filled pattern equals a fresh fill from src, the data at the
// catalog's version, that the recency list holds exactly those patterns,
// and that their weight is the catalog's and within its budget.
func checkResident(t *testing.T, c *Catalog, d *rdf.Dict, src Source, step string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var weight int64
	listed := 0
	for p := c.recent.next; p != &c.recent; p = p.next {
		listed++
		weight += p.weight
		if !p.filled || c.pats[p.hash] != p || p.weight != p.weigh() {
			t.Errorf("%s: %v listed: filled %v, resident %v, weight %d of %d",
				step, p.key, p.filled, c.pats[p.hash] == p, p.weight, p.weigh())
		}
		f := newPattern(p.key, p.hash)
		var dp dispatch
		dp.add(d, f)
		dp.fill(src)
		if f.n != p.n {
			t.Errorf("%s: %v holds %d matches, a fresh fill %d", step, p.key, p.n, f.n)
		}
		for k := range p.bind {
			if err := p.bind[k].matches(&f.bind[k]); err != nil {
				t.Errorf("%s: %v slot %d: %v", step, p.key, k, err)
			}
		}
	}
	filled := 0
	for _, p := range c.pats {
		if p.filled {
			filled++
		}
	}
	if filled != listed || weight != c.weight || c.weight > c.budget {
		t.Errorf("%s: %d filled patterns resident, %d listed; weight %d, listed %d, budget %d",
			step, filled, listed, c.weight, weight, c.budget)
	}
}

// matches reports how maintained bindings b differ from want, a fresh
// fill's, or break their invariants: both arrays sorted by id and
// disjoint, dead exact, pending and tombstones within an eighth of all,
// and the bindings with a count the ones want holds, in want's array
// alone.
func (b *bindings) matches(want *bindings) error {
	if want.pending != nil || want.dead != 0 || slices.ContainsFunc(want.all, func(x binding) bool { return x.n == 0 }) {
		return fmt.Errorf("a fresh fill keeps %d pending, %d dead, or a 0 count", len(want.pending), want.dead)
	}
	byID := func(x, y binding) int { return cmp.Compare(x.id, y.id) }
	sorted := func(bs []binding) bool {
		return slices.IsSortedFunc(bs, byID) &&
			len(slices.CompactFunc(slices.Clone(bs), func(x, y binding) bool { return x.id == y.id })) == len(bs)
	}
	both := append(slices.Clone(b.all), b.pending...)
	slices.SortFunc(both, byID)
	dead := len(both)
	live := slices.DeleteFunc(both, func(x binding) bool { return x.n == 0 })
	dead -= len(live)
	switch {
	case !sorted(b.all) || !sorted(b.pending) || !sorted(live):
		return fmt.Errorf("arrays out of order or overlapping: %v, pending %v", b.all, b.pending)
	case dead != b.dead:
		return fmt.Errorf("%d tombstones, counted %d", dead, b.dead)
	case len(b.pending)+b.dead > len(b.all)/8:
		return fmt.Errorf("%d pending and %d tombstones beside %d bindings: past an eighth", len(b.pending), b.dead, len(b.all))
	case !slices.Equal(live, want.all):
		return fmt.Errorf("bindings %v maintained, %v fresh", live, want.all)
	}
	return nil
}

// TestCatalogClonesConstants: a resident pattern's constants are its
// own. The parser leaves an IRI as a substring of the query text, so a
// pattern keeping that string would pin the whole text for as long as
// the pattern stays resident — which is no longer tied to any plan.
func TestCatalogClonesConstants(t *testing.T) {
	g := chainGraph(4)
	src := `SELECT ?x WHERE { ?x <p1> <b0> . ?x <p1> ?y . ?y <p2> <c0> }`
	q := sparql.MustParse(src)
	inText := func(s string) bool {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= lo && p < lo+uintptr(len(src))
	}
	if !inText(q.Patterns[0].O.Term.Value) {
		t.Fatal("the parser copied the constant out of the text; the test assumes a substring")
	}
	c := NewCatalog(g, 1)
	c.Snapshot(g.Dict, q)
	constants := 0
	for i, p := range resident(c, q) {
		for pos, k := range p.key {
			if k.slot != 0 {
				continue
			}
			constants++
			if inText(k.term.Value) {
				t.Errorf("pattern %d, position %d: the resident constant %q lies in the query text", i, pos, k.term.Value)
			}
		}
	}
	if constants != 5 {
		t.Fatalf("%d constants resident, want 5", constants)
	}
}

// TestCatalogBudgetUnderChurn snapshots 10,000 distinct patterns, in
// queries of 300 written shapes, from four goroutines under a budget of
// a few hundred patterns, while a writer commits a batch every 250
// snapshots. The readers take no lock: each commit builds a new graph,
// never written once the catalog has it, and every snapshot equals a
// fresh NewStats over the graph of its Version. After every snapshot and
// every commit the catalog's weight is within its budget and its layouts
// within their cap, and at the end every resident pattern equals a fresh
// fill. The shared pattern every query also reads stays resident
// throughout: the catalog evicts the least recently snapshotted first.
// A pattern heavier than the whole budget is filled for its snapshot and
// not retained. Run under -race in CI.
func TestCatalogBudgetUnderChurn(t *testing.T) {
	const patterns, shapes, readers, perCommit, budget = 10_000, 300, 4, 250, 200 << 10
	g := rdf.NewGraph()
	for i := 0; i < 400; i++ {
		g.AddSPO(fmt.Sprintf("s%d", i%97), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i))
		g.AddSPO(fmt.Sprintf("s%d", i%97), "shared", fmt.Sprintf("t%d", i%41))
	}
	qs := make([]*sparql.Query, patterns)
	for i := range qs {
		v := fmt.Sprintf("?v%d", i%shapes)
		qs[i] = sparql.MustParse(fmt.Sprintf(`SELECT %s WHERE { %s <p%d> <o%d> . %s <shared> ?w }`, v, v, i%7, i, v))
	}
	c := NewCatalog(g, 1)
	c.budget = budget
	shared := sparql.MustParse(`SELECT ?x WHERE { ?x <shared> ?y }`)
	c.Snapshot(g.Dict, shared)
	first := resident(c, shared)[0]
	var graphs sync.Map // version → the graph at it
	graphs.Store(uint64(1), g)
	graphAt := func(v uint64) *rdf.Graph {
		at, _ := graphs.Load(v)
		return at.(*rdf.Graph)
	}
	var writer sync.Mutex // one commit at a time, and the version, which it moves
	version := uint64(1)
	within := func(step string) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.weight > c.budget || len(c.layouts) > layoutCap {
			t.Errorf("%s: weight %d of a budget of %d, %d layouts of a cap of %d", step, c.weight, c.budget, len(c.layouts), layoutCap)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; i < patterns; i += readers {
				st := c.Snapshot(g.Dict, qs[i])
				if st.PatternCard(1) == 0 {
					t.Errorf("%d: the shared pattern matched nothing", i)
				}
				if !st.Equal(NewStats(graphAt(st.Version()), qs[i])) {
					t.Errorf("%d: the snapshot at version %d differs from a fresh one of that version", i, st.Version())
				}
				within(fmt.Sprint("snapshot ", i))
				if i%perCommit == 0 {
					writer.Lock()
					n := i / perCommit
					next := &rdf.Graph{Dict: g.Dict}
					for _, tr := range graphAt(version).Triples() {
						next.Add(tr)
					}
					ins := []rdf.Triple{
						{S: g.Dict.EncodeIRI(fmt.Sprintf("s%d", n)), P: g.Dict.EncodeIRI("shared"), O: g.Dict.EncodeIRI(fmt.Sprintf("u%d", n))},
						{S: g.Dict.EncodeIRI(fmt.Sprintf("s%d", n)), P: g.Dict.EncodeIRI(fmt.Sprintf("p%d", n%7)), O: g.Dict.EncodeIRI(fmt.Sprintf("o%d", i+1))},
					}
					effIns, effDels := applyDelta(next, ins, next.Triples()[n:n+1])
					version++
					graphs.Store(version, next)
					c.Apply(next, version, g.Dict, effIns, effDels)
					writer.Unlock()
					within(fmt.Sprint("commit ", n))
				}
			}
		}()
	}
	wg.Wait()
	final := graphAt(version)
	kept, fills, _ := c.Counters()
	if gone := int(fills) - kept; gone < patterns/2 {
		t.Errorf("%d fills, %d patterns gone; the budget did not churn", fills, gone)
	}
	// The shared pattern is still the one filled before the readers
	// started: evicted, it would have been filled again as a new one.
	if p := resident(c, shared)[0]; p != first {
		t.Errorf("the shared pattern is resident %v after %d fills, not the one filled first: it was evicted while every query read it",
			p != nil, fills)
	}
	// Every query's own pattern is filled once, and again only when its
	// reader, stalled between the fill's publication and its read, finds
	// it evicted and a commit landed meanwhile: each commit can cost each
	// other reader at most one refill.
	commits := uint64(patterns / perCommit)
	if refills := fills - (patterns + 1); fills < patterns+1 || refills > (readers-1)*commits {
		t.Errorf("%d fills of %d patterns: want %d, plus at most %d refills", fills, patterns+1, patterns+1, (readers-1)*commits)
	}
	checkResident(t, c, g.Dict, final, "after the churn")

	// ?x ?p ?y keeps a binding per subject and per object of the data:
	// heavier than a budget of a few patterns, which it leaves alone.
	c.mu.Lock()
	c.budget = 4 * patternBytes
	c.evict()
	c.mu.Unlock()
	before, _, _ := c.Counters()
	all := sparql.MustParse(`SELECT ?x ?y WHERE { ?x ?p ?y }`)
	st := c.Snapshot(g.Dict, all)
	if want := NewStats(final, all); !st.Equal(want) {
		t.Errorf("the heavy pattern's snapshot differs from a fresh one")
	}
	if p := resident(c, all)[0]; p != nil {
		t.Errorf("a pattern of weight %d was retained under a budget of %d", p.weight, c.budget)
	}
	if after, _, _ := c.Counters(); before == 0 || after != before {
		t.Errorf("%d patterns resident before the heavy one, %d after; want the same, and some", before, after)
	}
	checkResident(t, c, g.Dict, final, "after the heavy pattern")
}

// churn is the commit stream of the Apply tests over g: commit 2i
// deletes size sampled triples and inserts as many new ones — a fresh
// subject on a sampled triple's property and object — and commit 2i+1
// puts the deleted back and takes the new ones out. The data keeps
// returning to where it started while every pair of commits brings
// new ids, so bindings are tombstoned, revived, filed as pending and
// merged away.
type churn struct {
	g         *rdf.Graph
	rng       *rand.Rand
	size, n   int
	ins, dels []rdf.Triple
}

// next commits the next delta to g and returns it, effective.
func (ch *churn) next() (ins, dels []rdf.Triple) {
	defer func() { ch.n++ }()
	if ch.n%2 == 1 {
		return applyDelta(ch.g, ch.dels, ch.ins)
	}
	ts := ch.g.Triples()
	ins, dels = nil, nil
	for j := 0; j < ch.size; j++ {
		t := ts[ch.rng.Intn(len(ts))]
		dels = append(dels, t)
		ins = append(ins, rdf.Triple{S: ch.g.Dict.EncodeIRI(fmt.Sprintf("churn/%d/%d", ch.n, j)), P: t.P, O: t.O})
	}
	ch.ins, ch.dels = applyDelta(ch.g, ins, dels)
	return ch.ins, ch.dels
}

// lubmCatalog returns a catalog holding the patterns of the 14 LUBM
// queries over g.
func lubmCatalog(g *rdf.Graph) *Catalog {
	c := NewCatalog(g, 1)
	for _, q := range lubm.Queries() {
		c.Snapshot(g.Dict, q)
	}
	return c
}

// TestCatalogAlternatingStream folds a 200-commit churn stream into the
// patterns of the 14 LUBM queries: after every commit every resident
// slot equals a fresh fill, with its pending bindings and tombstones
// within an eighth of its array (checkResident). The stream must have
// left pending bindings and tombstones behind and merged them.
func TestCatalogAlternatingStream(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	c := lubmCatalog(g)
	ch := &churn{g: g, rng: rand.New(rand.NewSource(3)), size: 40}
	var pending, dead, merged bool
	for i := 0; i < 200; i++ {
		ins, dels := ch.next()
		before := map[*bindings]int{}
		for p := c.recent.next; p != &c.recent; p = p.next {
			for k := range p.bind {
				before[&p.bind[k]] = len(p.bind[k].pending)
			}
		}
		c.Apply(g, uint64(i+2), g.Dict, ins, dels)
		checkResident(t, c, g.Dict, g, fmt.Sprint("commit ", i))
		for b, n := range before {
			pending, dead = pending || len(b.pending) > 0, dead || b.dead > 0
			merged = merged || n > 0 && len(b.pending) == 0
		}
	}
	if !pending || !dead || !merged {
		t.Errorf("pending bindings seen %v, tombstones %v, a merge %v: the stream did not exercise them", pending, dead, merged)
	}
}

// TestCatalogApplyIndependentOfSize: what a commit's fold allocates
// follows its delta, not the data. The 14 LUBM queries' patterns take a
// churn stream of 200 + 200 triples a commit at 5 and at 20
// universities; once the binding arrays have grown to the churn, the
// median bytes Apply allocates per commit at 20 are within 1.1× of
// those at 5. A merge that copied a slot's array every commit allocates
// ~4× more. The allocation counter is the process's, so a reading can
// include what another goroutine allocated meanwhile; the median of 40
// readings ignores such strays.
func TestCatalogApplyIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over a 20-university dataset")
	}
	perCommit := func(univ int) uint64 {
		g := lubm.Generate(lubm.DefaultConfig(univ))
		c := lubmCatalog(g)
		ch := &churn{g: g, rng: rand.New(rand.NewSource(5)), size: 200}
		const warm, measured = 160, 40
		var reads []uint64
		for i := 0; i < warm+measured; i++ {
			ins, dels := ch.next()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c.Apply(g, uint64(i+2), g.Dict, ins, dels)
			runtime.ReadMemStats(&m1)
			if i >= warm {
				reads = append(reads, m1.TotalAlloc-m0.TotalAlloc)
			}
		}
		slices.Sort(reads)
		return reads[measured/2]
	}
	small, large := perCommit(5), perCommit(20)
	t.Logf("Apply of a 200 + 200 delta: median %d B at 5 universities, %d B at 20", small, large)
	if float64(large) > 1.1*float64(small) {
		t.Errorf("Apply allocates a median %d B a commit at 20 universities, %d B at 5: over 1.1×", large, small)
	}
}
