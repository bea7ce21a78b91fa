package mapreduce

import (
	"hash/fnv"
	"sort"
)

// This file retains the seed runtime's string-keyed shuffle semantics
// as an executable reference. It is test-only: the property tests
// cross-check the flat record path (Emitter.Emit, inline routing,
// sorted-group reduce) against these definitions, which are the ground
// truth for what the simulated statistics were accumulated over.

// tuple is one emission in row form: what a test hands Emitter.Emit,
// and what the reference groups.
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
	e := &Emitter{n: n, unit: &slot{}, buckets: bk}
	for _, t := range ts {
		e.Emit(t.group, t.tag, t.row, t.cols)
	}
	return bk
}

// routed builds the records of the tuples emitAll's morsel sent to
// dest through the runtime's routing step.
func routed(bk []bucket, dest int) []record {
	sc := Scratch{buckets: bk}
	return sc.route(nil, dest, len(bk))
}

// encodeRecord renders a record's key as its seed string encoding: the
// reference representation tests compare against.
func encodeRecord(r *record, bk []bucket) string {
	cells := make([]uint32, r.nkey)
	for i := range cells {
		cells[i] = keyCell(r, i, bk)
	}
	return EncodeKey(int(r.group), cells)
}

// ReferenceRoute is the seed's routing hash: fnv.New32a over the
// string-encoded key, sign-cleared. Emit must place every tuple in
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
