package mapreduce

import (
	"cmp"
	"math/bits"
	"slices"

	"cliquesquare/internal/rdf"
)

// FNV-1a parameters (hash/fnv's constants, inlined so hashing a key
// needs no hasher object and no byte-slice materialization).
const (
	fnv32Offset = 2166136261
	fnv32Prime  = 16777619
)

// MaxInputs and MaxKeyCells are what a run header's 16-bit tag and nkey
// can carry: the inputs of one reduce join (tags 0..MaxInputs-1) and the
// key cells of one tuple. physical.CompileWith refuses a join beyond
// them.
const (
	MaxInputs   = 1 << 16
	MaxKeyCells = 1<<16 - 1
)

// hashCell folds one cell's four little-endian bytes into the FNV-1a
// accumulator (the byte order EncodeKey serializes).
func hashCell(h32, v uint32) uint32 {
	for i := 0; i < 4; i++ {
		h32 = (h32 ^ (v & 0xFF)) * fnv32Prime
		v >>= 8
	}
	return h32
}

// route picks the destination node from a key's hash — hashCell folded
// over the group, then each key cell, from fnv32Offset: the FNV-1a-32
// of the key's string encoding (EncodeKey), i.e. exactly what the seed
// runtime's fnv.New32a routing computed, so node placement, and with it
// every simulated statistic, is byte-identical to the string-keyed
// runtime.
func route(h32 uint32, n int) int {
	return int(h32&0x7FFFFFFF) % n
}

// stored is how many of a tuple's nkey key cells its bucket holds: all
// but the first, which is a row cell (the run's col0).
func stored(nkey uint16) int { return max(int(nkey), 1) - 1 }

// stride is the cells one tuple of the run takes: its stored key cells,
// then its row.
func (r *run) stride() int { return stored(r.nkey) + int(r.width) }

// keyCell returns key cell k (k < r.nkey) of tuple i of run r, whose
// bucket holds cells.
func (r *run) keyCell(cells []rdf.TermID, i, k int) uint32 {
	at := int(r.off) + i*r.stride()
	if k == 0 {
		return uint32(cells[at+stored(r.nkey)+int(r.col0)])
	}
	return uint32(cells[at+k-1])
}

// row returns tuple i's row cells as a view of its bucket's cells.
func (r *run) row(cells []rdf.TermID, i int) Row {
	lo := int(r.off) + i*r.stride() + stored(r.nkey)
	hi := lo + int(r.width)
	return cells[lo:hi:hi]
}

// prefix is the first two lanes of tuple i's key — its group, then its
// first key cell (0 without one), byte-swapped — an integer that orders
// as the keys do as far as it goes: compareKeys decides a tie.
func (r *run) prefix(cells []rdf.TermID, i int) uint64 {
	p := uint64(bits.ReverseBytes32(r.group)) << 32
	if r.nkey > 0 {
		p |= uint64(bits.ReverseBytes32(r.keyCell(cells, i, 0)))
	}
	return p
}

// sameKey reports whether tuples i and j of run r carry one key.
func (r *run) sameKey(cells []rdf.TermID, i, j int) bool {
	for k := 0; k < int(r.nkey); k++ {
		if r.keyCell(cells, i, k) != r.keyCell(cells, j, k) {
			return false
		}
	}
	return true
}

// compareKeys compares the key of tuple i of run a (its bucket's cells
// ac) with that of tuple j of run b in the canonical order: the byte
// order of the keys' seed string encodings (EncodeKey) — the group, then
// each key cell, as little-endian bytes, a shorter key before its
// extensions. Byte-swapping a cell makes numeric order its bytes' order.
// Meters are integer counts, so no sum depends on it; it fixes the order
// groups reach a reducer in, and with it the order of the rows every
// reduce range writes.
func compareKeys(a *run, ac []rdf.TermID, i int, b *run, bc []rdf.TermID, j int) int {
	if a.group != b.group {
		return cmp.Compare(bits.ReverseBytes32(a.group), bits.ReverseBytes32(b.group))
	}
	for k := 0; ; k++ {
		if k == int(a.nkey) || k == int(b.nkey) {
			return cmp.Compare(a.nkey, b.nkey)
		}
		if x, y := a.keyCell(ac, i, k), b.keyCell(bc, j, k); x != y {
			return cmp.Compare(bits.ReverseBytes32(x), bits.ReverseBytes32(y))
		}
	}
}

// sortRuns is the map side of the shuffle: it sorts the tuples of every
// run the buckets hold into canonical key order, stably, in place
// (SortRows, its scratch carved from m, the lane's arena): by the first
// key cell byte-swapped, then compareKeys. A run already in order — a
// scan keyed on the column its file is sorted by — is left as it is.
func sortRuns(bk []bucket, m Mem) {
	for b := range bk {
		cells := bk[b].cells
		for k := range bk[b].runs {
			r := &bk[b].runs[k]
			if r.nkey == 0 {
				continue // one key: the group
			}
			var tie func(i, j int) int
			if r.nkey > 1 {
				tie = func(i, j int) int { return compareKeys(r, cells, i, r, cells, j) }
			}
			key := func(i int) uint32 { return bits.ReverseBytes32(r.keyCell(cells, i, 0)) }
			SortRows(cells[r.off:], int(r.n), r.stride(), key, tie, m)
		}
	}
}

// place is one tuple in the shuffle: tuple pos of run run of bucket buf.
type place struct{ buf, run, pos uint32 }

// cutRanges appends to cuts where key ranges 1 to lanes-1 of the total
// tuples routed to dest start: range k at the weighted median, by run
// length, of every run's tuple at its k-th share — about even whether
// runs span the node's keys or tile them. Candidates are carved from m.
func cutRanges(bk []bucket, dest, n, lanes, total int, cuts []place, m Mem) []place {
	g, runs := Groups{bk: bk}, 0
	for b := dest; b < len(bk); b += n {
		runs += len(bk[b].runs)
	}
	at := Carve[cursor](m, runs)
	for k := 1; k < lanes && total > 0; k++ {
		at = at[:0]
		for b := dest; b < len(bk); b += n {
			for i, r := range bk[b].runs {
				if r.n > 0 {
					at = append(at, cursor{place: place{buf: uint32(b), run: uint32(i), pos: uint32(k * int(r.n) / lanes)}, end: r.n})
				}
			}
		}
		slices.SortFunc(at, func(x, y cursor) int { return g.compare(x.place, y.place) })
		for i, w := 0, 0; ; i++ {
			if w += int(at[i].end); 2*w >= total {
				cuts = append(cuts, at[i].place)
				break
			}
		}
	}
	return cuts
}

// cursor is a reducer's place in one run routed to its node: the next
// tuple it merges, and the end of its key range in the run.
type cursor struct {
	place
	end uint32
}

// stretch is a group's tuples in one run: tuples lo to hi-1 of run run
// of bucket buf.
type stretch struct{ buf, run, lo, hi uint32 }

// Groups is a reduce task's input: the sorted runs every map morsel
// routed to one node, read in one key range of them, merged so that
// equal keys are adjacent and groups appear in canonical key order — the
// order the seed runtime produced by sort.Strings over its string keys,
// kept as a deterministic group order (TestSortedGroupingMatchesReference
// pins it). Bounded map units make many runs, so the merge is a tree of
// losers (Loser) over a cursor per run, O(log k) a group. Ties go to the
// run emitted first, in (source node, morsel, emission) order, so a
// group's records keep the order they were emitted in. The merge keeps
// nothing per tuple: its state — a cursor per run, the tree and a
// group's stretches — is carved from mem when Each starts.
type Groups struct {
	bk      []bucket // the job's buckets: (morsel, destination) at morsel*n+destination
	dest, n int
	// cuts are where the node's key ranges after the first start, group-
	// aligned; the range read is k: from cuts[k-1] (the start when k is
	// 0) up to cuts[k] (the end when k is len(cuts)).
	cuts []place
	k    int
	mem  Mem
}

// eachRun calls fn for every run routed to the node, in (source node,
// morsel, emission) order, with its bucket and run index and the range
// of its tuples in the key range read.
func (g *Groups) eachRun(fn func(buf, k int, lo, hi uint32)) {
	for b := g.dest; b < len(g.bk); b += g.n {
		for k := range g.bk[b].runs {
			r := &g.bk[b].runs[k]
			lo, hi := uint32(0), r.n
			if g.k > 0 {
				lo = g.bound(r, g.bk[b].cells, g.cuts[g.k-1])
			}
			if g.k < len(g.cuts) {
				hi = g.bound(r, g.bk[b].cells, g.cuts[g.k])
			}
			fn(b, k, lo, hi)
		}
	}
}

// bound returns the number of run r's tuples whose keys come before the
// key of the tuple at p.
func (g *Groups) bound(r *run, cells []rdf.TermID, p place) uint32 {
	pr, pc := &g.bk[p.buf].runs[p.run], g.bk[p.buf].cells
	lo, hi := 0, int(r.n)
	for lo < hi {
		if mid := (lo + hi) / 2; compareKeys(r, cells, mid, pr, pc, int(p.pos)) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// Records returns the total number of records across all groups.
func (g *Groups) Records() (n int) {
	g.eachRun(func(_, _ int, lo, hi uint32) { n += int(hi - lo) })
	return n
}

// Each calls fn once per distinct key with the group of records
// carrying it, in canonical key order. The group and every row it
// hands out are views of the shuffle scratch, valid only during the
// call.
func (g *Groups) Each(fn func(Group)) {
	runs := 0
	for b := g.dest; b < len(g.bk); b += g.n {
		runs += len(g.bk[b].runs)
	}
	// A cursor per run with tuples in the key range, in run order, merged
	// by a tree of losers keyed on their heads' prefixes. whole says every
	// prefix is its whole key — one key cell, or none — so equal prefixes
	// are equal keys.
	cur, whole := Carve[cursor](g.mem, runs)[:0], true
	var nkey uint16
	g.eachRun(func(b, k int, lo, hi uint32) {
		if r := &g.bk[b].runs[k]; len(cur) == 0 {
			nkey = r.nkey
		} else {
			whole = whole && r.nkey == nkey
		}
		if lo < hi {
			cur = append(cur, cursor{place: place{buf: uint32(b), run: uint32(k), pos: lo}, end: hi})
		}
	})
	whole = whole && nkey <= 1
	var t Loser
	var tie func(i, j int) int
	if !whole {
		tie = func(i, j int) int { return g.compare(cur[i].place, cur[j].place) }
	}
	t.Start(g.mem, len(cur))
	for i := range cur {
		t.Key[i] = g.prefix(cur[i].place)
	}
	t.Build(tie)
	st := Carve[stretch](g.mem, len(cur))
	for i := t.Top(); i >= 0; {
		// The cursors whose heads carry the least key give the group their
		// stretches, in run order.
		key, first := t.Key[i], cur[i].place
		st = st[:0]
		n := uint32(0)
		for {
			c := &cur[i]
			r, cells := &g.bk[c.buf].runs[c.run], g.bk[c.buf].cells
			lo := c.pos
			for c.pos++; c.pos < c.end; c.pos++ {
				if p := r.prefix(cells, int(c.pos)); p != key || !whole && !r.sameKey(cells, int(c.pos), int(lo)) {
					t.Key[i] = p
					break
				}
			}
			st = append(st, stretch{buf: c.buf, run: c.run, lo: lo, hi: c.pos})
			n += c.pos - lo
			t.Next(c.pos == c.end, tie)
			if i = t.Top(); i < 0 || t.Key[i] != key || !whole && g.compare(cur[i].place, first) != 0 {
				break
			}
		}
		fn(Group{st: st, n: int(n), bk: g.bk})
	}
}

// prefix is the prefix of the key of the tuple at p.
func (g *Groups) prefix(p place) uint64 {
	return g.bk[p.buf].runs[p.run].prefix(g.bk[p.buf].cells, int(p.pos))
}

// compare compares the keys of the tuples at p and q.
func (g *Groups) compare(p, q place) int {
	return compareKeys(&g.bk[p.buf].runs[p.run], g.bk[p.buf].cells, int(p.pos), &g.bk[q.buf].runs[q.run], g.bk[q.buf].cells, int(q.pos))
}

// Group is the records sharing one key: a view handed out by
// Groups.Each, its records the stretches of the runs holding the key,
// in run order.
type Group struct {
	st []stretch
	n  int
	bk []bucket
}

// first returns the run of the group's first stretch and its bucket's
// cells.
func (g Group) first() (*run, []rdf.TermID) {
	s := &g.st[0]
	return &g.bk[s.buf].runs[s.run], g.bk[s.buf].cells
}

// ID returns the group identifier the records were emitted under.
func (g Group) ID() uint32 { r, _ := g.first(); return r.group }

// KeyLen returns the number of key cells.
func (g Group) KeyLen() int { r, _ := g.first(); return int(r.nkey) }

// KeyCell returns the i-th key cell.
func (g Group) KeyCell(i int) uint32 {
	r, cells := g.first()
	return r.keyCell(cells, int(g.st[0].lo), i)
}

// Len returns the number of records in the group.
func (g Group) Len() int { return g.n }

// Records calls fn(tag, row) for every record of the group in order:
// its input tag and its row, a view of the cells written at emission.
func (g Group) Records(fn func(tag int, row Row)) {
	for _, s := range g.st {
		r, cells := &g.bk[s.buf].runs[s.run], g.bk[s.buf].cells
		for i := s.lo; i < s.hi; i++ {
			fn(int(r.tag), r.row(cells, int(i)))
		}
	}
}
