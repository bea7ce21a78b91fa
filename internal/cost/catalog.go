package cost

import (
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"cliquesquare/internal/core"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// Catalog holds the statistics of distinct triple patterns, once,
// whatever number of queries share a pattern: its match count and, for a
// pattern of two or three variable slots, the distinct count of each
// slot — counts, not bindings, so a pattern weighs the same at any scale.
// A pattern of one slot (?x a C, ?x p <c>, ?x p ?x) keeps none: its
// matches differ only in that slot, so its distinct count is its match
// count.
//
// Snapshot looks a query's patterns up, creating the ones the catalog
// lacks, fills from the catalog's view, outside its mutex, those whose
// counts are not at its version, and reads them; Apply moves the catalog
// to a commit's view and version and folds the commit's delta once per
// resident filled pattern. A pattern a commit overtook while it was
// filled, or one that left the catalog after a snapshot looked it up and
// so missed a fold, is filled again. The catalog alone decides what it
// keeps: while the weight of its filled patterns is over its budget, the
// least recently snapshotted leaves. A pattern a fill has claimed is
// never evicted, and one heavier than the whole budget is filled for its
// snapshot and not kept. Every method is safe for concurrent use.
type Catalog struct {
	mu        sync.Mutex
	published sync.Cond // on mu: a fill published or gave back patterns
	// pats maps a key's hash under seed to the resident pattern of that
	// key: a map slot of two words, not of a dozen. Of two keys with one
	// hash, the second is filled for its snapshots and not kept.
	pats map[uint64]*pattern
	seed maphash.Seed
	// recent is the sentinel of the recency list of the resident filled
	// patterns, most recently snapshotted first; weight is theirs.
	recent       pattern
	weight       int64
	budget       int64
	layouts      map[string]*layout // cleared at layoutCap
	view         Source             // the data at version, which fills read
	version      uint64
	fills, folds uint64
	changes      []change // Apply's scratch: a pattern's changes per slot value
}

const (
	// budgetBytes is the weight of filled patterns a catalog keeps: about
	// 200,000 patterns of short constants, at any scale (the 20 patterns
	// of the 14 LUBM queries weigh 7 KB).
	budgetBytes = 64 << 20
	// A pattern weighs patternBytes (the entry and its map slot, rounded
	// up) and its constants' bytes.
	patternBytes = 256
	// layoutCap bounds the written shapes a catalog keeps layouts of: a
	// workload has few, the bound only guards pathological churn.
	layoutCap = 256
)

// NewCatalog returns an empty catalog of view, the data at version.
func NewCatalog(view Source, version uint64) *Catalog {
	c := &Catalog{
		pats: make(map[uint64]*pattern), seed: maphash.MakeSeed(), layouts: make(map[string]*layout),
		view: view, version: version, budget: budgetBytes,
	}
	c.recent.prev, c.recent.next = &c.recent, &c.recent
	c.published.L = &c.mu
	return c
}

// patKey identifies a pattern up to variable naming: per position the
// constant term itself — not its id: a constant may enter the dictionary
// later — or the variable's slot, numbered from 1 by first occurrence
// inside the pattern. ?x p ?y and ?a p ?b share a key; ?x p ?x has its
// own.
type patKey [3]struct {
	term rdf.Term
	slot uint8 // 0 for a constant
}

// keyOf returns tp's key and the variable name behind each of its n
// slots.
func keyOf(tp sparql.TriplePattern) (k patKey, vars [3]string, n int) {
	for p, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
		if !pt.IsVar {
			k[p].term = pt.Term
			continue
		}
		s := slices.Index(vars[:n], pt.Var)
		if s < 0 {
			s, n = n, n+1
			vars[s] = pt.Var
		}
		k[p].slot = uint8(s + 1)
	}
	return k, vars, n
}

// pattern is one catalog entry: the key compiled to a matcher over ids,
// and the statistics of its matches. claimed, filled, version, weight
// and the recency links are guarded by Catalog.mu.
type pattern struct {
	key        patKey
	hash       uint64   // of key: its slot in Catalog.pats
	claimed    bool     // a Snapshot is filling it from the data at version
	filled     bool     // it holds the counts of the data at version
	version    uint64   // Apply moves it while the pattern is listed
	weight     int64    // patternBytes and its constants' bytes
	prev, next *pattern // the recency list; nil when not listed

	// The matcher. id[p] is the constant at position p where the consts
	// bit p is set; a set missing bit means the dictionary does not know
	// that constant yet, so nothing matches until resolve finds it. eq
	// bits 0, 1, 2 demand S=P, S=O, P=O (a repeated variable). pos[k] is
	// the position variable slot k first occurs at.
	id                  [3]rdf.TermID
	consts, missing, eq uint8
	pos                 [3]rdf.Pos
	slots               int

	n        int    // matching triples
	distinct [3]int // distinct[k]: the values slot k takes; kept for two slots or three
}

// newPattern returns an unfilled entry for k, its constants cloned: a
// key built by keyOf points into the text of the query it came from, and
// the entry may outlive that query by far.
func newPattern(k patKey, hash uint64) *pattern {
	p := &pattern{key: k, hash: hash, weight: patternBytes}
	for i := range k {
		if k[i].slot == 0 {
			p.key[i].term.Value = strings.Clone(k[i].term.Value)
			p.consts |= 1 << i
			p.weight += int64(len(k[i].term.Value))
			continue
		}
		if int(k[i].slot) > p.slots {
			p.pos[p.slots] = rdf.Pos(i)
			p.slots++
		}
		for j := i + 1; j < 3; j++ {
			if k[j].slot == k[i].slot {
				p.eq |= 1 << (i + j - 1)
			}
		}
	}
	p.missing = p.consts
	return p
}

// resolve (re-)attempts dictionary resolution of the constants still
// missing, reporting whether none is left.
func (p *pattern) resolve(d *rdf.Dict) bool {
	for i := range p.key {
		if p.missing&(1<<i) != 0 {
			if id, ok := d.Lookup(p.key[i].term); ok {
				p.id[i] = id
				p.missing &^= 1 << i
			}
		}
	}
	return p.missing == 0
}

// counted is the number of slots whose distinct count p keeps: none of
// a single slot, whose distinct count is the match count.
func (p *pattern) counted() int {
	if p.slots == 1 {
		return 0
	}
	return p.slots
}

func (p *pattern) match(t rdf.Triple) bool {
	return (p.consts&1 == 0 || t.S == p.id[0]) &&
		(p.consts&2 == 0 || t.P == p.id[1]) &&
		(p.consts&4 == 0 || t.O == p.id[2]) &&
		(p.eq == 0 || (p.eq&1 == 0 || t.S == t.P) && (p.eq&2 == 0 || t.S == t.O) && (p.eq&4 == 0 || t.P == t.O))
}

// Source is the dataset a fill reads: EachTriple calls fn for every
// stored triple whose property is prop, or for every stored triple when
// prop is NoTerm. A partition.View and an *rdf.Graph are Sources.
type Source interface {
	EachTriple(prop rdf.TermID, fn func(rdf.Triple))
}

// Counter counts a Source's triples without a scan: Count returns the
// number of stored triples that match (s, p, o), NoTerm matching any
// term, or false where only a scan could tell (partition.View).
type Counter interface {
	Count(s, p, o rdf.TermID) (n int, ok bool)
}

// scan counts src into ps, whose constants d resolves, reading no more
// of it than they can match: their properties' triples while every
// pattern names its property, everything once as soon as one does not.
// It counts a slot's distinct values in a bitmap over d's ids, which it
// drops.
func scan(d *rdf.Dict, src Source, ps []*pattern) {
	seen := make([][3][]uint64, len(ps))
	var props []rdf.TermID
	for i, p := range ps {
		if p.resolve(d) { // else a constant unknown to d: p matches nothing
			props = append(props, p.id[1]) // NoTerm for a variable property
		}
		for k := 0; k < p.counted(); k++ {
			seen[i][k] = make([]uint64, d.Len()/64+1)
		}
	}
	one := func(t rdf.Triple) {
		for i, p := range ps {
			if !p.match(t) {
				continue
			}
			for k := 0; k < p.counted(); k++ {
				id := t.At(p.pos[k])
				if w, b := id>>6, uint64(1)<<(id&63); seen[i][k][w]&b == 0 {
					seen[i][k][w] |= b
					p.distinct[k]++
				}
			}
			p.n++
		}
	}
	slices.Sort(props)
	if props = slices.Compact(props); len(props) > 0 && props[0] == rdf.NoTerm {
		props = props[:1] // everything, once
	}
	for _, prop := range props {
		src.EachTriple(prop, one)
	}
}

// layout is what costing reads of a query besides statistics, a
// function of its written shape (core.WrittenShape) alone, kept once
// per shape: vars numbers its variables by first occurrence over the
// patterns in index order, slots[i][k] is the number of pattern i's
// variable slot k (-1 past its slots) — JoinCard walks variables in this
// order, never a map's — and filtered[i] is whether a scan of pattern i
// is charged a runtime filter (patternFiltered).
type layout struct {
	shape    string
	vars     []string
	slots    [][3]int
	filtered []bool
}

// newLayout numbers the variables of q, whose written shape is shape.
func newLayout(shape []byte, q *sparql.Query) *layout {
	l := &layout{shape: string(shape), slots: make([][3]int, len(q.Patterns)), filtered: make([]bool, len(q.Patterns))}
	for i, tp := range q.Patterns {
		_, vars, n := keyOf(tp)
		l.filtered[i] = patternFiltered(tp)
		l.slots[i] = [3]int{-1, -1, -1}
		for s := 0; s < n; s++ {
			v := slices.Index(l.vars, vars[s])
			if v < 0 {
				v = len(l.vars)
				l.vars = append(l.vars, strings.Clone(vars[s]))
			}
			l.slots[i][s] = v
		}
	}
	return l
}

// Snapshot returns the statistics of q's patterns at the catalog's
// current version. It looks them up, creating the entries the catalog
// lacks; those not at that version and not being filled are claimed
// under the mutex, filled together from the catalog's view without it —
// d resolves their constants — and published; patterns a concurrent
// Snapshot claimed are waited for (it holds no lock this one needs), and
// claimed again if they are still not at the catalog's version then.
func (c *Catalog) Snapshot(d *rdf.Dict, q *sparql.Query) *Stats {
	var buf [256]byte
	shape := core.AppendWrittenShape(buf[:0], q)
	var held [16]*pattern
	pats := held[:0]
	s := &Stats{pats: make([]patStats, len(q.Patterns))}
	c.mu.Lock() // not deferred: a fill that panics leaves it unlocked
	if s.lay = c.layouts[string(shape)]; s.lay == nil {
		if len(c.layouts) >= layoutCap {
			clear(c.layouts)
		}
		s.lay = newLayout(shape, q)
		c.layouts[s.lay.shape] = s.lay
	}
	for _, tp := range q.Patterns {
		k, _, _ := keyOf(tp)
		h, p := c.lookup(k)
		if p == nil {
			p = newPattern(k, h)
			if c.pats[h] == nil {
				c.pats[h] = p
			}
		} else if p.prev != nil {
			c.unlink(p)
			c.pushFront(p)
		}
		pats = append(pats, p)
	}
	for ready := false; !ready; {
		var mine []*pattern
		ready = true
		for _, p := range pats {
			if !p.claimed && (!p.filled || p.version != c.version) {
				p.claimed, p.filled, p.version, p.n, p.distinct = true, false, c.version, 0, [3]int{}
				mine = append(mine, p)
			}
			ready = ready && !p.claimed
		}
		if len(mine) > 0 {
			src := c.view
			c.mu.Unlock()
			c.fill(d, src, mine)
			c.mu.Lock()
		} else if !ready {
			c.published.Wait()
		}
	}
	s.version = c.version
	for i, p := range pats {
		s.pats[i].card = float64(p.n)
		s.pats[i].distinct[0] = float64(p.n)
		for k := 0; k < p.counted(); k++ {
			s.pats[i].distinct[k] = float64(p.distinct[k])
		}
	}
	c.mu.Unlock()
	return s
}

// fill fills the patterns mine claimed from src, the data at their
// version, and publishes them — unless the catalog has moved past that
// version meanwhile, or the fill panics: then it gives them back with
// their counts zeroed, to be claimed again.
func (c *Catalog) fill(d *rdf.Dict, src Source, mine []*pattern) {
	filled := false
	defer func() {
		c.mu.Lock()
		for _, p := range mine {
			if p.claimed, p.filled = false, filled && p.version == c.version; !p.filled {
				p.n, p.distinct = 0, [3]int{}
				continue
			}
			c.fills++
			if p.weight > c.budget && c.pats[p.hash] == p {
				delete(c.pats, p.hash)
			}
			if c.pats[p.hash] == p {
				c.weight += p.weight
				c.pushFront(p)
			} // else filled for the snapshots waiting on it, not kept
		}
		c.evict()
		c.mu.Unlock()
		c.published.Broadcast()
	}()
	scan(d, src, mine)
	filled = true
}

// evict drops least recently snapshotted patterns until the weight fits
// the budget. Only filled patterns are on the list, so none a fill has
// claimed is ever dropped.
func (c *Catalog) evict() {
	for c.weight > c.budget {
		p := c.recent.prev
		c.unlink(p)
		c.weight -= p.weight
		delete(c.pats, p.hash)
	}
}

// lookup returns the hash of k and the resident pattern of key k, nil if
// there is none.
func (c *Catalog) lookup(k patKey) (uint64, *pattern) {
	h := maphash.Comparable(c.seed, k)
	if p := c.pats[h]; p != nil && p.key == k {
		return h, p
	}
	return h, nil
}

func (c *Catalog) pushFront(p *pattern) {
	p.prev, p.next = &c.recent, c.recent.next
	p.prev.next, p.next.prev = p, p
}

func (c *Catalog) unlink(p *pattern) {
	p.prev.next, p.next.prev = p.next, p.prev
	p.prev, p.next = nil, nil
}

// Apply moves the catalog to view, the data at version, and folds the
// effective delta that led there (inserts of triples that were absent,
// deletes of triples that were present — what the engine's commit
// computes) into every resident filled pattern, once per pattern however
// many queries share it, leaving each identical to a fresh fill of view.
// A slot's distinct count moves by the values the delta took from no
// match to some or back: their matches now, less the delta's net change
// to them, are their matches before. A Counter view counts them by
// search; where it cannot, or view is no Counter, or the pattern repeats
// a variable beside another, one pass over the pattern's property does.
// Through a Counter a commit costs O(|delta| × patterns + values touched
// × log |G|) and allocates nothing once the catalog's scratch fits the
// churn. A pattern being filled, or no longer resident, is not folded:
// the next snapshot that reads it fills it again. An empty delta (a
// resize) only moves the versions.
func (c *Catalog) Apply(view Source, version uint64, d *rdf.Dict, inserts, deletes []rdf.Triple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.view, c.version = view, version
	for p := c.recent.next; p != &c.recent; p = p.next {
		if p.version = version; len(inserts)+len(deletes) > 0 {
			c.fold(view, d, p, inserts, deletes)
			c.folds++
		}
	}
}

// change is what a commit did to one value of one variable slot of a
// pattern: the net change to its matches, and the matches it has after.
type change struct {
	slot       int
	id         rdf.TermID
	net, after int
}

func byValue(x, y change) int {
	return cmp.Or(cmp.Compare(x.slot, y.slot), cmp.Compare(x.id, y.id))
}

// fold moves p's counts to view by a commit's delta (see Apply).
func (c *Catalog) fold(view Source, d *rdf.Dict, p *pattern, inserts, deletes []rdf.Triple) {
	p.resolve(d) // the inserts may have introduced a constant
	ch := c.changes[:0]
	for _, delta := range [2]struct {
		ts []rdf.Triple
		d  int
	}{{inserts, 1}, {deletes, -1}} {
		for _, t := range delta.ts {
			if !p.match(t) {
				continue
			}
			for k := 0; k < p.counted(); k++ {
				ch = append(ch, change{slot: k, id: t.At(p.pos[k]), net: delta.d})
			}
			p.n += delta.d
		}
	}
	slices.SortFunc(ch, byValue)
	n := 0 // the values, each with its net change
	for _, x := range ch {
		if n > 0 && byValue(ch[n-1], x) == 0 {
			ch[n-1].net += x.net
		} else {
			ch[n], n = x, n+1
		}
	}
	ch = slices.DeleteFunc(ch[:n], func(x change) bool { return x.net == 0 })
	cnt, ok := view.(Counter)
	ok = ok && p.eq == 0
	for i := 0; ok && i < len(ch); i++ {
		at := p.id // NoTerm at every variable position
		at[p.pos[ch[i].slot]] = ch[i].id
		ch[i].after, ok = cnt.Count(at[0], at[1], at[2])
	}
	if !ok && len(ch) > 0 {
		for i := range ch {
			ch[i].after = 0
		}
		view.EachTriple(p.id[1], func(t rdf.Triple) {
			if !p.match(t) {
				return
			}
			for k := 0; k < p.slots; k++ {
				if i, found := slices.BinarySearchFunc(ch, change{slot: k, id: t.At(p.pos[k])}, byValue); found {
					ch[i].after++
				}
			}
		})
	}
	for _, x := range ch {
		switch x.after {
		case x.net: // no match before the commit
			p.distinct[x.slot]++
		case 0: // none after it
			p.distinct[x.slot]--
		}
	}
	c.changes = ch[:0]
}

// mapBytes estimates from its length what a map of n entries of slot
// bytes each holds: 88 B of header, directory and table, and a slot and
// a control byte per slot, at least eight slots, doubled until at most
// seven in eight are full.
func mapBytes(n, slot int) int {
	c := 8
	for c*7/8 < n {
		c *= 2
	}
	return 88 + c*(slot+1)
}

// allocBytes is about what the allocator hands out for n bytes: n
// itself up to 16 B (small strings share blocks), then a multiple of
// 16 B — the size classes up to 256 B but 24 B; coarser beyond.
func allocBytes(n int) int {
	if n <= 16 {
		return n
	}
	return (n + 15) &^ 15
}

// Counters reports the patterns resident now and, since construction,
// the patterns filled from a Source and the pattern folds Apply
// performed (one per resident filled pattern per non-empty delta).
func (c *Catalog) Counters() (patterns int, fills, folds uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pats), c.fills, c.folds
}

// Bytes is the memory the catalog holds, counted from the lengths and
// capacities of its patterns and their constants, Apply's scratch, its
// layouts and its two maps, each piece as the allocator holds it.
func (c *Catalog) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := int(unsafe.Sizeof(*c)) + int(unsafe.Sizeof(change{}))*cap(c.changes) +
		mapBytes(len(c.pats), int(unsafe.Sizeof(uint64(0))+unsafe.Sizeof(c.recent.next))) +
		mapBytes(len(c.layouts), int(unsafe.Sizeof("")+unsafe.Sizeof(c.recent.next)))
	for _, p := range c.pats {
		b += allocBytes(int(unsafe.Sizeof(*p)))
		for i := range p.key {
			b += allocBytes(len(p.key[i].term.Value))
		}
	}
	for _, l := range c.layouts {
		b += allocBytes(int(unsafe.Sizeof(*l))) + allocBytes(len(l.shape)) + allocBytes(cap(l.filtered)) +
			allocBytes(int(unsafe.Sizeof(l.slots[0]))*cap(l.slots)) + allocBytes(int(unsafe.Sizeof(""))*cap(l.vars))
		for _, v := range l.vars {
			b += len(v)
		}
	}
	return int64(b)
}
