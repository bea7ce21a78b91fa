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
// pattern of two or three variable slots, one binding multiset per slot,
// which is what lets Apply keep them exact under deletes: (id, count)
// arrays sorted by id, 8 bytes a binding (see bindings). A pattern of
// one slot (?x a C, ?x p <c>, ?x p ?x) keeps none: its matches differ
// only in that slot, so its distinct count is its match count.
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
}

const (
	// budgetBytes is the weight of filled patterns a catalog keeps. The
	// 20 patterns of the 14 LUBM queries weigh 4.7 B per triple (0.75 MB
	// at 100 universities), so it holds them up to 9,000 universities.
	budgetBytes = 64 << 20
	// A pattern weighs patternBytes (the entry, its map slot and its
	// binding arrays' headers), its constants' bytes, and bindingBytes
	// (an id and a count) per binding its arrays hold.
	patternBytes = 512
	bindingBytes = 8
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
	weight     int64    // its share of Catalog.weight while listed
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

	n    int        // matching triples
	bind []bindings // bind[k]: the binding multiset of slot k; nil for one slot
}

// binding is a value of a variable slot and its number of matches.
type binding struct {
	id rdf.TermID
	n  int32
}

func byID(b binding, id rdf.TermID) int { return cmp.Compare(b.id, id) }

// bindings is one slot's binding multiset: all, sorted by id, as a fill
// counted it, and pending, sorted by id, the ids Apply met since that
// all lacks. A count Apply takes to 0 stays, a tombstone (dead counts
// them) a later insert revives; once pending and the tombstones outgrow
// an eighth of all, pending merges into it and the tombstones leave.
// The slot's distinct count is len(all) + len(pending) - dead.
type bindings struct {
	all, pending []binding
	dead         int
}

// add adds d to the count of id. A new id enters pending as a revived
// tombstone, at the end when the dictionary assigned it last.
func (b *bindings) add(id rdf.TermID, d int32) {
	bs := b.all
	i, ok := slices.BinarySearchFunc(bs, id, byID)
	if !ok {
		bs = b.pending
		if i, ok = slices.BinarySearchFunc(bs, id, byID); !ok {
			bs = slices.Insert(bs, i, binding{id: id})
			b.pending, b.dead = bs, b.dead+1
		}
	}
	if bs[i].n == 0 {
		b.dead--
	}
	if bs[i].n += d; bs[i].n == 0 {
		b.dead++
	}
	if len(b.pending)+b.dead > len(b.all)/8 { // O(n log n), after n/8 changes
		b.all = slices.DeleteFunc(append(b.all, b.pending...), func(x binding) bool { return x.n == 0 })
		slices.SortFunc(b.all, func(x, y binding) int { return cmp.Compare(x.id, y.id) })
		b.pending, b.dead = b.pending[:0], 0
	}
}

// newPattern returns an unfilled entry for k, its constants cloned: a
// key built by keyOf points into the text of the query it came from, and
// the entry may outlive that query by far.
func newPattern(k patKey, hash uint64) *pattern {
	p := &pattern{key: k, hash: hash}
	for i := range k {
		if k[i].slot == 0 {
			p.key[i].term.Value = strings.Clone(k[i].term.Value)
			p.consts |= 1 << i
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
	if p.slots > 1 {
		p.bind = make([]bindings, p.slots)
	}
	return p
}

// weigh returns p's weight from its lengths (see patternBytes).
func (p *pattern) weigh() int64 {
	w := int64(patternBytes)
	for i := range p.key {
		w += int64(len(p.key[i].term.Value))
	}
	for _, b := range p.bind {
		w += bindingBytes * int64(len(b.all)+len(b.pending))
	}
	return w
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

func (p *pattern) match(t rdf.Triple) bool {
	return (p.consts&1 == 0 || t.S == p.id[0]) &&
		(p.consts&2 == 0 || t.P == p.id[1]) &&
		(p.consts&4 == 0 || t.O == p.id[2]) &&
		(p.eq == 0 || (p.eq&1 == 0 || t.S == t.P) && (p.eq&2 == 0 || t.S == t.O) && (p.eq&4 == 0 || t.P == t.O))
}

// fold counts t in (d = +1) or out (d = -1) if it matches: into the
// sorted arrays of a filled pattern, or, while a fill counts it, at the
// binding's id in all.
func (p *pattern) fold(t rdf.Triple, d int32) {
	if !p.match(t) {
		return
	}
	p.n += int(d)
	for k := range p.bind {
		b, id := &p.bind[k], t.At(p.pos[k])
		switch {
		case p.filled:
			b.add(id, d)
		case int(id) >= len(b.all): // at least doubled: linear
			b.all = append(b.all, make([]binding, max(int(id)+1, 2*len(b.all))-len(b.all))...)
			fallthrough
		default:
			b.all[id].n += d
		}
	}
}

// dispatch routes a triple to the patterns it can match: those of its
// property, a run of byProp (kept sorted by property), and those whose
// property is a variable.
type dispatch struct {
	byProp, anyProp []*pattern
}

// add routes triples to p, unless a constant of p is still unknown to
// the dictionary: no triple can match it then.
func (dp *dispatch) add(d *rdf.Dict, p *pattern) {
	switch {
	case !p.resolve(d):
	case p.consts&2 != 0:
		i, _ := slices.BinarySearchFunc(dp.byProp, p.id[1], propOf)
		dp.byProp = slices.Insert(dp.byProp, i, p)
	default:
		dp.anyProp = append(dp.anyProp, p)
	}
}

func propOf(p *pattern, prop rdf.TermID) int { return cmp.Compare(p.id[1], prop) }

func (dp *dispatch) fold(d int32, ts ...rdf.Triple) {
	for _, t := range ts {
		i, _ := slices.BinarySearchFunc(dp.byProp, t.P, propOf)
		for ; i < len(dp.byProp) && dp.byProp[i].id[1] == t.P; i++ {
			dp.byProp[i].fold(t, d)
		}
		for _, p := range dp.anyProp {
			p.fold(t, d)
		}
	}
}

// Source is the dataset a fill reads: EachTriple calls fn for every
// stored triple whose property is prop, or for every stored triple when
// prop is NoTerm. A partition.View and an *rdf.Graph are Sources.
type Source interface {
	EachTriple(prop rdf.TermID, fn func(rdf.Triple))
}

// fill counts src into the routed patterns, reading no more of it than
// they can match: their properties' triples while every pattern names
// its property, everything once as soon as one does not. Then it
// compacts each slot's counts, sorted as they come, into an array of
// its allocation's size: linear, no sort.
func (dp *dispatch) fill(src Source) {
	one := func(t rdf.Triple) { dp.fold(+1, t) }
	if len(dp.anyProp) > 0 {
		src.EachTriple(rdf.NoTerm, one)
	} else {
		for i, p := range dp.byProp {
			if i == 0 || p.id[1] != dp.byProp[i-1].id[1] {
				src.EachTriple(p.id[1], one)
			}
		}
	}
	for _, p := range slices.Concat(dp.byProp, dp.anyProp) {
		for k, b := range p.bind {
			n := 0
			for id, x := range b.all {
				if x.n != 0 {
					b.all[n], n = binding{rdf.TermID(id), x.n}, n+1
				}
			}
			p.bind[k] = bindings{all: append([]binding(nil), b.all[:n]...)}
		}
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
				p.claimed, p.filled, p.version, p.n = true, false, c.version, 0
				clear(p.bind)
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
		for k := range p.bind {
			s.pats[i].distinct[k] = float64(len(p.bind[k].all) + len(p.bind[k].pending) - p.bind[k].dead)
		}
		if p.slots == 1 {
			s.pats[i].distinct[0] = float64(p.n)
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
				p.n = 0
				clear(p.bind)
				continue
			}
			c.fills++
			if p.weight = p.weigh(); p.weight > c.budget && c.pats[p.hash] == p {
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
	var dp dispatch
	for _, p := range mine {
		dp.add(d, p)
	}
	dp.fill(src)
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
// Cost is O(|delta| × patterns of the triple's property × log n),
// amortized, independent of graph size; it allocates nothing once a
// slot's arrays fit its churn. A pattern being filled, or no longer
// resident, is not folded: it stays at its version, and the next
// snapshot that reads it fills it again. An empty delta (a resize) only
// moves the versions. Patterns the delta made heavier may push the
// catalog over its budget; the least recent then leave.
func (c *Catalog) Apply(view Source, version uint64, d *rdf.Dict, inserts, deletes []rdf.Triple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.view, c.version = view, version
	var dp dispatch
	for p := c.recent.next; p != &c.recent; p = p.next {
		if p.version = version; len(inserts)+len(deletes) > 0 {
			dp.add(d, p) // resolving again: the inserts may have introduced a constant
			c.folds++
		}
	}
	dp.fold(+1, inserts...)
	dp.fold(-1, deletes...)
	c.weight = 0
	for p := c.recent.next; p != &c.recent; p = p.next {
		p.weight = p.weigh()
		c.weight += p.weight
	}
	c.evict()
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
// capacities of its patterns, their constants and binding arrays, and
// its layouts.
func (c *Catalog) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := 0
	for _, p := range c.pats {
		if p.filled { // else a fill is writing it, outside the mutex
			b += int(unsafe.Sizeof(*p)) + len(p.key[0].term.Value) + len(p.key[1].term.Value) + len(p.key[2].term.Value)
			for _, bs := range p.bind {
				b += bindingBytes * (cap(bs.all) + cap(bs.pending))
			}
		}
	}
	for _, l := range c.layouts {
		b += int(unsafe.Sizeof(*l)) + len(l.shape) + cap(l.filtered) + int(unsafe.Sizeof(l.slots[0]))*cap(l.slots) + int(unsafe.Sizeof(""))*cap(l.vars)
		for _, v := range l.vars {
			b += len(v)
		}
	}
	return int64(b)
}
