package mapreduce

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// This file retains the seed runtime's string-keyed shuffle semantics
// as an executable reference. It is test-only: the property tests
// cross-check the packed binary path (Key, inline routing, sorted-group
// reduce) against these definitions, which are the ground truth for
// what the simulated statistics were accumulated over.

// ReferenceRoute is the seed's routing hash: fnv.New32a over the
// string-encoded key, sign-cleared. Key.route must agree with
// ReferenceRoute(k.Encode()) % n for every key.
func ReferenceRoute(k string) int {
	h := fnv.New32a()
	h.Write([]byte(k))
	return int(h.Sum32() & 0x7FFFFFFF)
}

// ReferenceGroups is the seed's map-based reduce grouping: records
// bucketed by their encoded string key, arrival order preserved within
// each group.
func ReferenceGroups(recs []Keyed) map[string][]Keyed {
	groups := make(map[string][]Keyed, len(recs))
	for _, k := range recs {
		s := k.Key.Encode()
		groups[s] = append(groups[s], k)
	}
	return groups
}

// ReferenceOrder is the seed's group processing order: the encoded
// keys sorted as strings (the order the physical executor iterated
// groups in, and therefore the order metering sums accumulated in).
func ReferenceOrder(groups map[string][]Keyed) []string {
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// Encode renders the key as its seed string encoding (EncodeKey of its
// group and cells): the reference representation tests compare
// against.
func (k *Key) Encode() string {
	buf := make([]byte, 4+4*k.n)
	binary.LittleEndian.PutUint32(buf, k.group)
	for i := 0; i < int(k.n); i++ {
		binary.LittleEndian.PutUint32(buf[4+4*i:], k.Cell(i))
	}
	return string(buf)
}
