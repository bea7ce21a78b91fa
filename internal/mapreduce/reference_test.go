package mapreduce

import (
	"hash/fnv"
	"slices"
	"sort"

	"cliquesquare/internal/rdf"
)

// This file retains the seed runtime's string-keyed shuffle semantics
// as an executable reference. It is test-only: the property tests
// cross-check the flat shuffle (Emitter.EmitAll, inline routing, runs
// sorted at the map side and merged at the reducer) against these definitions, which are the ground
// truth for what the simulated statistics were accumulated over.

// tuple is one emission in row form: what a test hands Emitter.EmitAll
// (emitTuples), and what the reference groups.
type tuple struct {
	group uint32
	tag   int
	row   Row
	cols  []int
}

// key is the tuple's key cells.
func (t tuple) key() []uint32 {
	cells := make([]uint32, len(t.cols))
	for i, c := range t.cols {
		cells[i] = uint32(t.row[c])
	}
	return cells
}

// encode renders the tuple's key as its seed string encoding.
func (t tuple) encode() string { return EncodeKey(int(t.group), t.key()) }

// emitAll sends ts through one Emitter, as one map morsel of a cluster
// of n nodes would, and returns the morsel's per-destination buckets.
func emitAll(n int, ts []tuple) []bucket {
	bk := make([]bucket, n)
	e := &Emitter{sc: &Scratch{n: n, Bufs: new(Bufs)}, unit: &slot{}, buckets: bk}
	emitTuples(e, ts)
	return bk
}

// emitTuples emits ts through e in order, each stretch of tuples of one
// shape — group, tag, width and key columns — as one block.
func emitTuples(e *Emitter, ts []tuple) {
	for i := 0; i < len(ts); {
		t := ts[i]
		b := Block{Width: len(t.row)}
		for ; i < len(ts) && ts[i].group == t.group && ts[i].tag == t.tag && len(ts[i].row) == b.Width && slices.Equal(ts[i].cols, t.cols); i++ {
			b.Append(ts[i].row)
		}
		e.EmitAll(t.group, t.tag, b, t.cols)
	}
}

// reduceInput sorts the runs of emitAll's morsel as the map side does and
// returns what dest's reducer reads of them: one key range, all of it.
func reduceInput(bk []bucket, dest int) *Groups {
	sortRuns(bk, new(Bufs))
	return &Groups{bk: bk, dest: dest, n: len(bk), mem: new(Bufs)}
}

// encodeKey renders a group's key as its seed string encoding: the
// reference representation tests compare against.
func encodeKey(g Group) string {
	key := make([]uint32, g.KeyLen())
	for k := range key {
		key[k] = g.KeyCell(k)
	}
	return EncodeKey(int(g.ID()), key)
}

// encodeTuple renders the key of tuple i of run r, whose bucket holds
// cells, as its seed string encoding.
func encodeTuple(r *run, cells []rdf.TermID, i int) string {
	key := make([]uint32, r.nkey)
	for k := range key {
		key[k] = r.keyCell(cells, i, k)
	}
	return EncodeKey(int(r.group), key)
}

// tupleAt returns the run holding a bucket's i-th tuple and the tuple's
// number in it.
func tupleAt(b *bucket, i int) (*run, int) {
	for k := range b.runs {
		if r := &b.runs[k]; i < int(r.n) {
			return r, i
		} else {
			i -= int(r.n)
		}
	}
	panic("tupleAt: past the bucket's tuples")
}

// ReferenceRoute is the seed's routing hash: fnv.New32a over the
// string-encoded key, sign-cleared. EmitAll must place every tuple in
// bucket ReferenceRoute(t.encode()) % n.
func ReferenceRoute(k string) int {
	h := fnv.New32a()
	h.Write([]byte(k))
	return int(h.Sum32() & 0x7FFFFFFF)
}

// ReferenceGroups is the seed's map-based reduce grouping: tuples
// bucketed by their encoded string key, arrival order preserved within
// each group.
func ReferenceGroups(ts []tuple) map[string][]tuple {
	groups := make(map[string][]tuple, len(ts))
	for _, t := range ts {
		s := t.encode()
		groups[s] = append(groups[s], t)
	}
	return groups
}

// ReferenceOrder is the seed's group processing order: the encoded
// keys sorted as strings (the order the physical executor iterated
// groups in, and therefore the order metering sums accumulated in).
func ReferenceOrder(groups map[string][]tuple) []string {
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
