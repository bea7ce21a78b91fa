package mapreduce

import "math/bits"

// FNV-1a parameters (hash/fnv's constants, inlined so hashing a key
// needs no hasher object and no byte-slice materialization).
const (
	fnv32Offset = 2166136261
	fnv32Prime  = 16777619
)

// record is one shuffled tuple, built once, by routing, straight into
// its destination's array. Its key is the group (which reduce join the
// tuple belongs to) and nkey key cells; tag says which input of that
// join it is. The first key cell lives in the record alone — reduce
// joins key on a clique's shared variables, almost always one — so
// sorting and grouping one-cell keys never leave the record array; the
// cells of bucket buf hold, from off, the tuple's other nkey-1 key cells
// and then its width row cells, as Emit wrote them. The struct is fixed-size
// and pointer-free: sorting swaps 24 bytes and the collector never
// scans a record array. tag and nkey are 16 bits wide: a join has at
// most as many inputs as its query has triple patterns and at most as
// many key attributes as it has variables, and physical.CompileWith
// refuses a join beyond MaxInputs or MaxKeyCells.
type record struct {
	group uint32
	k0    uint32 // first key cell (0 for an empty key)
	buf   uint32 // the bucket whose cell buffer holds the tuple's cells
	off   uint32 // where in it
	width uint32 // row cells
	tag   uint16
	nkey  uint16
}

// MaxInputs and MaxKeyCells are what a record's 16-bit tag and nkey can
// carry: the inputs of one reduce join (tags 0..MaxInputs-1) and the
// key cells of one tuple.
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
// but the first, which its record carries.
func stored(nkey uint16) int { return max(int(nkey), 1) - 1 }

// keyCell returns the i-th key cell of r (i < r.nkey).
func keyCell(r *record, i int, bk []bucket) uint32 {
	if i == 0 {
		return r.k0
	}
	return uint32(bk[r.buf].cells[int(r.off)+i-1])
}

// row returns r's row cells as a view of its bucket's cell buffer.
func (r *record) row(bk []bucket) Row {
	lo := int(r.off) + stored(r.nkey)
	hi := lo + int(r.width)
	return bk[r.buf].cells[lo:hi:hi]
}

// sameKey reports exact key equality (same group and cells).
func sameKey(a, b *record, bk []bucket) bool {
	if a.group != b.group || a.nkey != b.nkey || a.k0 != b.k0 {
		return false
	}
	for i := 1; i < int(a.nkey); i++ {
		if keyCell(a, i, bk) != keyCell(b, i, bk) {
			return false
		}
	}
	return true
}

// keyLane is the radix-sort view of a key: a sequence of 32-bit lanes
// — the byte-swapped group at depth 0, then each byte-swapped cell —
// with -1 past the end. Byte-swapping makes numeric lane order equal
// byte order of the little-endian string encoding, and exhausted keys
// ordering first matches shorter-string-first: lane order is exactly
// the seed's sort.Strings order over encoded keys. Meters are integer
// counts, so no sum depends on it; it fixes the order groups reach a
// reducer in, and with it the order of every job output's rows.
func keyLane(r *record, d int, bk []bucket) int64 {
	if d == 0 {
		return int64(bits.ReverseBytes32(r.group))
	}
	if c := d - 1; c < int(r.nkey) {
		return int64(bits.ReverseBytes32(keyCell(r, c, bk)))
	}
	return -1
}

// compareFrom compares two records' keys lane by lane starting at
// depth d; from depth 0 it is the canonical order: the byte order of
// the keys' seed string encodings.
func compareFrom(a, b *record, d int, bk []bucket) int {
	for {
		la, lb := keyLane(a, d, bk), keyLane(b, d, bk)
		if la != lb {
			if la < lb {
				return -1
			}
			return 1
		}
		if la == -1 {
			return 0
		}
		d++
	}
}

// sortRecords sorts shuffled records into canonical key order with a
// three-way radix quicksort (Bentley–Sedgewick multikey quicksort)
// over the key lanes: records with equal lane values are partitioned
// together and recurse one lane deeper, so common prefixes — every
// record of one reduce join shares the group lane — are compared once
// per partition, not once per pair. Only records move; bk, the bucket
// table they point into, is read for key cells past the first.
func sortRecords(recs []record, bk []bucket) { radixSort(recs, 0, bk) }

func radixSort(recs []record, d int, bk []bucket) {
	for len(recs) > 1 {
		if len(recs) <= 16 {
			insertionSort(recs, d, bk)
			return
		}
		p := medianLane(recs, d, bk)
		lt, gt := partition3(recs, d, p, bk)
		radixSort(recs[:lt], d, bk)
		if p != -1 {
			radixSort(recs[lt:gt], d+1, bk)
		}
		recs = recs[gt:]
	}
}

// partition3 is a Dutch-national-flag partition of recs by the lane-d
// value against pivot: returns the bounds of the equal region.
func partition3(recs []record, d int, pivot int64, bk []bucket) (lt, gt int) {
	lt, gt = 0, len(recs)
	for i := lt; i < gt; {
		v := keyLane(&recs[i], d, bk)
		switch {
		case v < pivot:
			recs[lt], recs[i] = recs[i], recs[lt]
			lt++
			i++
		case v > pivot:
			gt--
			recs[i], recs[gt] = recs[gt], recs[i]
		default:
			i++
		}
	}
	return lt, gt
}

func medianLane(recs []record, d int, bk []bucket) int64 {
	a := keyLane(&recs[0], d, bk)
	b := keyLane(&recs[len(recs)/2], d, bk)
	c := keyLane(&recs[len(recs)-1], d, bk)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

func insertionSort(recs []record, d int, bk []bucket) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && compareFrom(&recs[j], &recs[j-1], d, bk) < 0; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// Groups is a reduce task's input: the records routed to one node (or
// one key range of them), sorted so equal keys are adjacent and groups
// appear in canonical key order — the order the seed runtime produced
// by sort.Strings over its string keys, kept as a deterministic group
// order (TestSortedGroupingMatchesReference pins it).
type Groups struct {
	recs []record
	bk   []bucket
}

// Records returns the total number of records across all groups.
func (g *Groups) Records() int { return len(g.recs) }

// Each calls fn once per distinct key with the group of records
// carrying it, in canonical key order. The group and every row it
// hands out are views of the shuffle scratch, valid only during the
// call.
func (g *Groups) Each(fn func(Group)) {
	for i := 0; i < len(g.recs); {
		j := i + 1
		for j < len(g.recs) && sameKey(&g.recs[j], &g.recs[i], g.bk) {
			j++
		}
		fn(Group{recs: g.recs[i:j], bk: g.bk})
		i = j
	}
}

// Group is the records sharing one key: a view handed out by
// Groups.Each.
type Group struct {
	recs []record
	bk   []bucket
}

// ID returns the group identifier the records were emitted under.
func (g Group) ID() uint32 { return g.recs[0].group }

// KeyLen returns the number of key cells.
func (g Group) KeyLen() int { return int(g.recs[0].nkey) }

// KeyCell returns the i-th key cell.
func (g Group) KeyCell(i int) uint32 { return keyCell(&g.recs[0], i, g.bk) }

// Len returns the number of records in the group.
func (g Group) Len() int { return len(g.recs) }

// Record returns the i-th record of the group: its input tag and its
// row, a view of the cells written at emission.
func (g Group) Record(i int) (tag int, row Row) {
	r := &g.recs[i]
	return int(r.tag), r.row(g.bk)
}
