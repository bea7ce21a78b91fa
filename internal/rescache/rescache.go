// Package rescache is the epoch-versioned subplan result cache: a
// sharded, byte-budgeted LRU (built on internal/plancache's sized
// mode) mapping (canonical job signature, DataVersion) to the
// materialized output of one executed MapReduce job plus what the job
// metered (mapreduce.JobRecord).
//
// On a hit the executor skips the job's map/shuffle/reduce work
// entirely: it serves the cached rows read-only and replays the
// record, so rows AND simulated JobStats are byte-identical to an
// uncached run. A final job's rows are served as a view — the entry's
// own slice becomes physical.Result.Rows, which is documented shared
// and immutable and which the facade only reads while decoding; an
// intermediate job's rows are appended into the execution context's own
// slices, which the next job consumes and the next execution recycles.
// The slab-backed cells themselves are immutable either way, by the
// engine's handed-out-once arena discipline. Epoch invalidation is by
// construction: the committed DataVersion is part of the key, so a
// batch commit makes every older entry unreachable; the engine
// additionally purges on commit so stale bytes don't squat in the
// budget.
//
// Singleflight comes with the underlying cache: N concurrent servers
// hitting the same cold (signature, version) run the job once and all
// share the entry.
package rescache

import (
	"strconv"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/plancache"
)

// Entry is one cached job result: the metering record for stats replay
// and the job's materialized output. Exactly one of Interm/Final is
// meaningful per entry kind: a non-final level job fills Interm (per
// level input, per node — positional, matching the plan level's
// reduce-join order), a final or map-only job fills Final (the
// finished, deduped and sorted result rows). All row slices are
// immutable once cached: Interm is appended into the server's own
// slices, Final is handed out as a read-only view — nobody writes
// through or extends either.
type Entry struct {
	Rec    *mapreduce.JobRecord
	Interm [][][]mapreduce.Row
	Final  []mapreduce.Row
	bytes  int64
}

// rowsBytes estimates the resident size of a row set: four bytes per
// cell plus the slice header per row. The cells live in engine arenas
// the entry keeps reachable, so they are charged here even though the
// arena allocated them.
func rowsBytes(rows []mapreduce.Row) int64 {
	const sliceHeader = 24
	b := int64(0)
	for _, r := range rows {
		b += sliceHeader + 4*int64(len(r))
	}
	return b
}

// NewEntry builds an entry and computes its cache weight once.
func NewEntry(rec *mapreduce.JobRecord, interm [][][]mapreduce.Row, final []mapreduce.Row) *Entry {
	e := &Entry{Rec: rec, Interm: interm, Final: final}
	b := rec.MemBytes()
	for _, per := range interm {
		for _, rows := range per {
			b += rowsBytes(rows)
		}
	}
	b += rowsBytes(final)
	e.bytes = b
	return e
}

// Bytes is the entry's cache weight.
func (e *Entry) Bytes() int64 { return e.bytes }

// Stats re-exports the underlying cache counters.
type Stats = plancache.Stats

// Cache is the engine-owned subplan result cache.
type Cache struct {
	c *plancache.Cache[*Entry]
}

// New returns a cache bounded by budgetBytes of resident entry weight
// (<= 0 means the plancache default, 64 MiB).
func New(budgetBytes int64) *Cache {
	return &Cache{c: plancache.NewSized(budgetBytes, (*Entry).Bytes)}
}

// Do returns the entry cached under (jobKey, version), computing it on
// first use. Concurrent calls for the same key join one in-flight
// computation. hit reports whether the entry came from the cache.
func (c *Cache) Do(jobKey string, version uint64, compute func() (*Entry, error)) (e *Entry, hit bool, err error) {
	key := strconv.FormatUint(version, 16) + "\x00" + jobKey
	return c.c.Do(key, compute)
}

// Purge drops every entry. Called on batch commit: versioned keys
// already make stale entries unreachable, purging frees their bytes.
func (c *Cache) Purge() { c.c.Purge() }

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats { return c.c.Stats() }
