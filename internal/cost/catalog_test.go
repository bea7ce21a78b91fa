package cost

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"unsafe"

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
		if f.n != p.n || !maps.Equal(f.bind[0], p.bind[0]) || !maps.Equal(f.bind[1], p.bind[1]) || !maps.Equal(f.bind[2], p.bind[2]) {
			t.Errorf("%s: %v holds %d matches, a fresh fill %d, or other bindings", step, p.key, p.n, f.n)
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
	c := NewCatalog(1)
	c.Snapshot(g.Dict, g, q)
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
// snapshots; a reader holds the read side of a lock and the writer the
// write side, as the engine's state lock does. After every snapshot and
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
	c := NewCatalog(1)
	c.budget = budget
	var state sync.RWMutex // and the version, which the writer moves under it
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
				state.RLock()
				st := c.Snapshot(g.Dict, g, qs[i])
				state.RUnlock()
				if st.PatternCard(1) == 0 {
					t.Errorf("%d: the shared pattern matched nothing", i)
				}
				within(fmt.Sprint("snapshot ", i))
				if i%perCommit == 0 {
					state.Lock()
					n := i / perCommit
					ins := []rdf.Triple{
						{S: g.Dict.EncodeIRI(fmt.Sprintf("s%d", n)), P: g.Dict.EncodeIRI("shared"), O: g.Dict.EncodeIRI(fmt.Sprintf("u%d", n))},
						{S: g.Dict.EncodeIRI(fmt.Sprintf("s%d", n)), P: g.Dict.EncodeIRI(fmt.Sprintf("p%d", n%7)), O: g.Dict.EncodeIRI(fmt.Sprintf("o%d", i+1))},
					}
					effIns, effDels := applyDelta(g, ins, g.Triples()[n:n+1])
					version++
					c.Apply(version, g.Dict, effIns, effDels)
					state.Unlock()
					within(fmt.Sprint("commit ", n))
				}
			}
		}()
	}
	wg.Wait()
	kept, fills, _ := c.Counters()
	if gone := int(fills) - kept; gone < patterns/2 {
		t.Errorf("%d fills, %d patterns gone; the budget did not churn", fills, gone)
	}
	shared := sparql.MustParse(`SELECT ?x WHERE { ?x <shared> ?y }`)
	if p := resident(c, shared)[0]; p == nil || fills != patterns+1 {
		t.Errorf("the shared pattern is resident %v after %d fills, want %d: it was evicted while every query read it",
			p != nil, fills, patterns+1)
	}
	checkResident(t, c, g.Dict, g, "after the churn")

	// ?x ?p ?y keeps a binding per subject and per object of the data:
	// heavier than a budget of a few patterns, which it leaves alone.
	c.mu.Lock()
	c.budget = 4 * patternBytes
	c.evict()
	c.mu.Unlock()
	before, _, _ := c.Counters()
	all := sparql.MustParse(`SELECT ?x ?y WHERE { ?x ?p ?y }`)
	st := c.Snapshot(g.Dict, g, all)
	if want := NewStats(g, all); !st.Equal(want) {
		t.Errorf("the heavy pattern's snapshot differs from a fresh one")
	}
	if p := resident(c, all)[0]; p != nil {
		t.Errorf("a pattern of weight %d was retained under a budget of %d", p.weight, c.budget)
	}
	if after, _, _ := c.Counters(); before == 0 || after != before {
		t.Errorf("%d patterns resident before the heavy one, %d after; want the same, and some", before, after)
	}
	checkResident(t, c, g.Dict, g, "after the heavy pattern")
}
