package cost

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/partition"
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
		if !p.filled || c.pats[p.hash] != p {
			t.Errorf("%s: %v listed: filled %v, resident %v", step, p.key, p.filled, c.pats[p.hash] == p)
		}
		if f := freshFill(d, src, p); f.n != p.n || f.distinct != p.distinct {
			t.Errorf("%s: %v holds %d matches and distinct counts %v, a fresh fill %d and %v", step, p.key, p.n, p.distinct, f.n, f.distinct)
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

// freshFill returns a pattern of p's key filled from src alone.
func freshFill(d *rdf.Dict, src Source, p *pattern) *pattern {
	f := newPattern(p.key, p.hash)
	scan(d, src, []*pattern{f})
	return f
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

	// A pattern weighs its entry and its constants: one whose constant is
	// longer than a budget of a few patterns is heavier than that budget,
	// which leaves it alone.
	c.mu.Lock()
	c.budget = 4 * patternBytes
	c.evict()
	c.mu.Unlock()
	before, _, _ := c.Counters()
	heavy := sparql.MustParse(fmt.Sprintf(`SELECT ?x ?p WHERE { ?x ?p <%s> }`, strings.Repeat("o", 4*patternBytes)))
	st := c.Snapshot(g.Dict, heavy)
	if want := NewStats(final, heavy); !st.Equal(want) {
		t.Errorf("the heavy pattern's snapshot differs from a fresh one")
	}
	if p := resident(c, heavy)[0]; p != nil {
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
// new ids, so a slot's values leave and come back, new ones arrive and
// go, and its distinct count rises and falls.
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
// pattern's match count and distinct counts equal a fresh fill
// (checkResident). The stream must have moved some slot's distinct
// count both up and down.
func TestCatalogAlternatingStream(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	c := lubmCatalog(g)
	ch := &churn{g: g, rng: rand.New(rand.NewSource(3)), size: 40}
	type slot struct {
		p *pattern
		k int
	}
	rose, fell := map[slot]bool{}, map[slot]bool{}
	for i := 0; i < 200; i++ {
		ins, dels := ch.next()
		before := map[slot]int{}
		for p := c.recent.next; p != &c.recent; p = p.next {
			for k := 0; k < p.slots && p.slots > 1; k++ {
				before[slot{p, k}] = p.distinct[k]
			}
		}
		c.Apply(g, uint64(i+2), g.Dict, ins, dels)
		checkResident(t, c, g.Dict, g, fmt.Sprint("commit ", i))
		for s, n := range before {
			rose[s] = rose[s] || s.p.distinct[s.k] > n
			fell[s] = fell[s] || s.p.distinct[s.k] < n
		}
	}
	both := 0
	for s := range rose {
		if rose[s] && fell[s] {
			both++
		}
	}
	if both == 0 {
		t.Errorf("no slot's distinct count both rose and fell over %d slots: the stream did not exercise Apply", len(rose))
	}
}

// TestCatalogApplyIndependentOfSize: what a commit's fold allocates
// follows its delta, not the data. The 14 LUBM queries' patterns take a
// churn stream of 200 + 200 triples a commit at 5 and at 20
// universities, folded against the mutated graph — which counts nothing,
// so each fold scans — and against a partition.View of it, which counts
// by binary search, the engine's path; once the catalog's scratch has
// grown to the churn, the median bytes Apply allocates per commit at 20
// are within 1.1× of those at 5. The allocation counter is the
// process's, so a reading can include what another goroutine allocated
// meanwhile; the median of 40 readings ignores such strays.
func TestCatalogApplyIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over a 20-university dataset")
	}
	perCommit := func(univ int, onView bool) uint64 {
		g := lubm.Generate(lubm.DefaultConfig(univ))
		c := lubmCatalog(g)
		var part *partition.Partitioner
		if onView {
			part = partition.LoadWithPolicy(dstore.NewStore(7), g, partition.ThreeReplica, nil)
		}
		ch := &churn{g: g, rng: rand.New(rand.NewSource(5)), size: 200}
		const warm, measured = 160, 40
		var reads []uint64
		for i := 0; i < warm+measured; i++ {
			ins, dels := ch.next()
			var view Source = g
			if part != nil {
				view = part.ApplyBatch(ins, dels, g.Dict)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c.Apply(view, uint64(i+2), g.Dict, ins, dels)
			runtime.ReadMemStats(&m1)
			if i >= warm {
				reads = append(reads, m1.TotalAlloc-m0.TotalAlloc)
			}
		}
		slices.Sort(reads)
		return reads[measured/2]
	}
	for _, onView := range []bool{false, true} {
		small, large := perCommit(5, onView), perCommit(20, onView)
		t.Logf("Apply of a 200 + 200 delta (view %v): median %d B at 5 universities, %d B at 20", onView, small, large)
		if float64(large) > 1.1*float64(small) {
			t.Errorf("Apply (view %v) allocates a median %d B a commit at 20 universities, %d B at 5: over 1.1×", onView, large, small)
		}
	}
}

// TestCatalogOracleAcrossShapes folds a seeded 200-commit churn, with
// one resize halfway, into a catalog of a partition.View — under
// ThreeReplica and SubjectOnly, each under modulo and ring placement —
// holding patterns of every shape: a constant property, a variable one,
// a constant subject or object beside a variable property, repeated
// variables, three variables. After every commit every resident pattern
// equals a fresh fill of the view (checkResident), and View.Count
// equals a count over EachTriple for random bound and unbound terms, or
// reports false exactly where it would have to scan: the object bound
// alone under SubjectOnly.
func TestCatalogOracleAcrossShapes(t *testing.T) {
	var qs []*sparql.Query
	for _, src := range []string{
		`SELECT ?x ?y WHERE { ?x <t1> ?y }`,
		`SELECT ?x WHERE { ?x <t2> <t9> }`,
		`SELECT ?x ?p ?y WHERE { ?x ?p ?y }`,
		`SELECT ?p ?o WHERE { <t7> ?p ?o }`,
		`SELECT ?s ?p WHERE { ?s ?p <t9> }`,
		`SELECT ?p WHERE { <t7> ?p <t9> }`,
		`SELECT ?x ?p WHERE { ?x ?p ?x }`,
		`SELECT ?x ?y WHERE { ?x ?x ?y }`,
		`SELECT ?x WHERE { ?x <t3> ?x }`,
	} {
		qs = append(qs, sparql.MustParse(src))
	}
	const terms, props, commits = 30, 5, 200
	for _, mode := range []partition.Mode{partition.ThreeReplica, partition.SubjectOnly} {
		for _, policy := range []string{"modulo", "ring"} {
			t.Run(mode.String()+"/"+policy, func(t *testing.T) {
				rng := rand.New(rand.NewSource(17))
				d := rdf.NewDict()
				var ids []rdf.TermID
				for i := 0; i < terms; i++ {
					ids = append(ids, d.EncodeIRI(fmt.Sprintf("t%d", i)))
				}
				// random draws a triple whose property is one of the first
				// props terms, and a fifth of the time also its subject, a
				// fifth of the time a loop: repeated variables match.
				random := func() rdf.Triple {
					tr := rdf.Triple{S: ids[rng.Intn(terms)], P: ids[rng.Intn(props)], O: ids[rng.Intn(terms)]}
					switch rng.Intn(5) {
					case 0:
						tr.S = tr.P
					case 1:
						tr.O = tr.S
					}
					return tr
				}
				pol, _ := partition.PolicyByName(policy)
				part := partition.New(dstore.NewStore(5), mode, pol)
				// batch draws up to n deletes of stored triples and n inserts of
				// absent ones, each once: an effective delta.
				batch := func(n int) (ins, dels []rdf.Triple) {
					var all []rdf.Triple
					part.Current().EachTriple(rdf.NoTerm, func(tr rdf.Triple) { all = append(all, tr) })
					for i := 0; i < n && len(all) > 0; i++ {
						if tr := all[rng.Intn(len(all))]; !slices.Contains(dels, tr) {
							dels = append(dels, tr)
						}
					}
					for i := 0; i < n; i++ {
						if tr := random(); !part.Current().Contains(tr) && !slices.Contains(ins, tr) {
							ins = append(ins, tr)
						}
					}
					return ins, dels
				}
				ins, _ := batch(300)
				view := part.ApplyBatch(ins, nil, d)
				c := NewCatalog(view, view.Version())
				for _, q := range qs {
					c.Snapshot(d, q)
				}
				for i := 0; i < commits; i++ {
					if i == commits/2 {
						if _, err := part.Resize(8); err != nil {
							t.Fatal(err)
						}
						view = part.Current()
						c.Apply(view, view.Version(), d, nil, nil)
					}
					ins, dels := batch(6)
					view = part.ApplyBatch(ins, dels, d)
					c.Apply(view, view.Version(), d, ins, dels)
					step := fmt.Sprint("commit ", i)
					checkResident(t, c, d, view, step)
					checkCounts(t, view, mode, rng, ids[:props], ids, step)
				}
				if n, _, _ := c.Counters(); n != len(qs) {
					t.Errorf("%d patterns resident, want %d", n, len(qs))
				}
			})
		}
	}
}

// checkCounts holds View.Count of 20 random (s, p, o) — each term bound
// to one of props or terms, or NoTerm — to a count over EachTriple.
func checkCounts(t *testing.T, v *partition.View, mode partition.Mode, rng *rand.Rand, props, terms []rdf.TermID, step string) {
	t.Helper()
	pick := func(from []rdf.TermID) rdf.TermID {
		if rng.Intn(2) == 0 {
			return rdf.NoTerm
		}
		return from[rng.Intn(len(from))]
	}
	for i := 0; i < 20; i++ {
		s, p, o := pick(terms), pick(props), pick(terms)
		want := 0
		v.EachTriple(rdf.NoTerm, func(tr rdf.Triple) {
			if (s == rdf.NoTerm || tr.S == s) && (p == rdf.NoTerm || tr.P == p) && (o == rdf.NoTerm || tr.O == o) {
				want++
			}
		})
		scan := mode == partition.SubjectOnly && s == rdf.NoTerm && o != rdf.NoTerm
		if n, ok := v.Count(s, p, o); ok == scan || ok && n != want {
			t.Errorf("%s: Count(%d, %d, %d) = %d, %v; %d triples match, and a scan is needed: %v", step, s, p, o, n, ok, want, scan)
		}
	}
}
