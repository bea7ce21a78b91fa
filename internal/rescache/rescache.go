// Package rescache is the epoch-versioned result cache: a sharded,
// byte-budgeted LRU (built on internal/plancache's sized mode) mapping
// (plan key, DataVersion) to one whole answer — the plan's finished
// rows plus what each of its MapReduce jobs came to
// (mapreduce.JobRecord: its priced JobStats and work share), in job
// order.
//
// An intermediate job output exists only to feed the next job of the
// same plan, so the cache keeps answers, not jobs: one entry and one
// probe per execution. On a hit the execution runs no map/shuffle/reduce
// work at all: it serves the cached rows read-only and replays every
// record — logs its stats as a live run does — so rows AND simulated
// JobStats are byte-identical to an uncached run. An entry owns what it
// holds: its rows packed (mapreduce.Packed: each row gap-coded against
// the one before it, a full row every 1,024) into one exactly sized
// array at admission, never a view of the execution context that
// computed it (which recycles its memory on its next execution). The
// entry decodes as it lends: whoever the execution lends the rows to
// (physical.Rows) reads them through a decode from the nearest restart
// into a row buffer of its own — the facade renders each row as it
// arrives, a caller that wants row headers copies the rows out; the
// packed bytes are shared and immutable. Epoch invalidation is by construction: the committed
// DataVersion is part of the key, so a batch commit makes every older
// entry unreachable; the engine additionally purges on commit so stale
// bytes don't squat in the budget.
//
// Singleflight comes with the underlying cache: N concurrent servers
// hitting the same cold (plan key, version) execute the plan once and
// all share the entry.
package rescache

import (
	"strconv"
	"unsafe"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/plancache"
)

// Entry is one cached answer: every job's metering record, in job
// order, for stats replay, and the finished, deduped and sorted result
// rows, packed — no row headers, no flat cells: a hit decodes them as it
// lends them. Everything is immutable once cached: nobody writes
// through the packed bytes.
type Entry struct {
	Recs  []*mapreduce.JobRecord
	Rows  mapreduce.Packed
	bytes int64
}

// nodeBytes is what the cache itself keeps per entry beside the value
// and the plan key's bytes: plancache's list node (key header, value,
// error, links, weight: 88 B), its ready channel (96 B), the key's slot
// in the shard's map (a string header and a pointer, at the map's load
// factor: ≈ 40 B) and the version prefix Key puts before the plan key
// (≤ 17 B).
const nodeBytes = 240

// NewEntry builds the entry to be cached under key and computes its
// cache weight once: exactly what the entry keeps resident — its packed
// rows' bytes and restart offsets at their capacity, the records and the
// slice holding them, the entry itself, its key and the cache's node for
// it.
func NewEntry(key string, recs []*mapreduce.JobRecord, rows mapreduce.Packed) *Entry {
	const ptr = int64(unsafe.Sizeof((*mapreduce.JobRecord)(nil)))
	e := &Entry{Recs: recs, Rows: rows}
	e.bytes = rows.Bytes() + ptr*int64(cap(recs)) + int64(unsafe.Sizeof(*e)) + int64(len(key)) + nodeBytes
	for _, r := range recs {
		e.bytes += r.MemBytes()
	}
	return e
}

// Bytes is the entry's cache weight.
func (e *Entry) Bytes() int64 { return e.bytes }

// Stats re-exports the underlying cache counters.
type Stats = plancache.Stats

// Cache is the engine-owned result cache.
type Cache struct {
	c *plancache.Cache[*Entry]
}

// New returns a cache bounded by budgetBytes of resident entry weight
// (<= 0 means the plancache default, 64 MiB).
func New(budgetBytes int64) *Cache {
	return &Cache{c: plancache.NewSized(budgetBytes, (*Entry).Bytes)}
}

// Key is the cache key of plan key at data epoch version. A caller that
// serves one plan at one epoch many times keeps it (physical.Plan does),
// so that a probe copies no key.
func Key(version uint64, key string) string {
	return strconv.FormatUint(version, 16) + "\x00" + key
}

// Do returns the entry cached under key (built by Key), computing it on
// first use. Concurrent calls for the same key join one in-flight
// computation. hit reports whether the entry came from the cache.
func (c *Cache) Do(key string, compute func() *Entry) (e *Entry, hit bool) {
	e, hit, _ = c.c.Do(key, func() (*Entry, error) { return compute(), nil })
	return e, hit
}

// Purge drops every entry. Called on batch commit: versioned keys
// already make stale entries unreachable, purging frees their bytes.
func (c *Cache) Purge() { c.c.Purge() }

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats { return c.c.Stats() }
