// Package rescache is the epoch-versioned subplan result cache: a
// sharded, byte-budgeted LRU (built on internal/plancache's sized
// mode) mapping (canonical job signature, DataVersion) to the
// materialized output of one executed MapReduce job plus what the job
// metered (mapreduce.JobRecord).
//
// On a hit the executor skips the job's map/shuffle/reduce work
// entirely: it serves the cached rows read-only and replays the
// record, so rows AND simulated JobStats are byte-identical to an
// uncached run. An entry owns what it holds: flat, exactly sized
// blocks allocated for it at admission, never a view of the execution
// context that computed them (which recycles its memory on its next
// execution). A final job's rows are served as the entry's own view —
// its []Row becomes physical.Result.Rows, which is documented shared
// and immutable and which the facade only reads while decoding; an
// intermediate job's blocks are copied back into the serving
// execution's context, where the next job consumes them. Epoch
// invalidation is by construction: the committed DataVersion is part
// of the key, so a batch commit makes every older entry unreachable;
// the engine additionally purges on commit so stale bytes don't squat
// in the budget.
//
// Singleflight comes with the underlying cache: N concurrent servers
// hitting the same cold (signature, version) run the job once and all
// share the entry.
package rescache

import (
	"strconv"
	"unsafe"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/rdf"
)

// Entry is one cached job result: the metering record for stats replay
// and the job's materialized output. Exactly one of Interm/Final is
// meaningful per entry kind: a non-final level job fills Interm (one
// block per level input and node — positional, matching the plan
// level's reduce-join order), a final or map-only job fills Block (the
// finished, deduped and sorted result rows) and Final, the one []Row
// view over it, built once at admission so that a hit allocates
// nothing. Everything is immutable once cached: nobody writes through
// or extends a block or the view.
type Entry struct {
	Rec    *mapreduce.JobRecord
	Interm [][]mapreduce.Block
	Block  mapreduce.Block
	Final  []mapreduce.Row
	bytes  int64
}

// NewEntry builds an entry and computes its cache weight once: exactly
// what the entry keeps resident — its blocks' arrays at their
// capacity, the block headers, the view's row headers and the record.
func NewEntry(rec *mapreduce.JobRecord, interm [][]mapreduce.Block, final mapreduce.Block, view []mapreduce.Row) *Entry {
	const (
		cell   = int64(unsafe.Sizeof(rdf.TermID(0)))
		block  = int64(unsafe.Sizeof(mapreduce.Block{}))
		header = int64(unsafe.Sizeof(mapreduce.Row(nil)))
	)
	e := &Entry{Rec: rec, Interm: interm, Block: final, Final: view}
	b := rec.MemBytes() + cell*int64(cap(final.Cells)) + header*int64(cap(view))
	for _, per := range interm {
		b += header + block*int64(cap(per))
		for _, blk := range per {
			b += cell * int64(cap(blk.Cells))
		}
	}
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
