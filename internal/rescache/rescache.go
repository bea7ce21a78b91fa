// Package rescache is the epoch-versioned subplan result cache: a
// sharded, byte-budgeted LRU (built on internal/plancache's sized
// mode) mapping (canonical job signature, DataVersion) to the
// materialized output of one executed MapReduce job plus what the job
// metered (mapreduce.JobRecord: its per-node tuple counts).
//
// On a hit the executor skips the job's map/shuffle/reduce work
// entirely: it serves the cached rows read-only and replays the
// record — prices its counts as a live run does — so rows AND
// simulated JobStats are byte-identical to an uncached run. An entry owns what it holds: flat, exactly sized
// blocks allocated for it at admission, never a view of the execution
// context that computed them (which recycles its memory on its next
// execution). A final job's rows are kept as cells only, one block, and
// read in place by whoever the executor lends them to (physical.Rows) —
// the facade decodes straight from it, a caller that wants row headers
// builds them over it; it is shared and immutable. An intermediate
// job's blocks are copied back into the serving execution's context,
// where the next job consumes them. Epoch invalidation is by
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
	"unsafe"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/rdf"
)

// Entry is one cached job result: the metering record for stats replay
// and the job's materialized output. Exactly one of Interm/Block is
// meaningful per entry kind: a non-final level job fills Interm (one
// block per level input and node — positional, matching the plan
// level's reduce-join order), a final or map-only job fills Block (the
// finished, deduped and sorted result rows — cells only, no row
// headers: a hit reads them in place and allocates nothing). Everything
// is immutable once cached: nobody writes through or extends a block.
type Entry struct {
	Rec    *mapreduce.JobRecord
	Interm [][]mapreduce.Block
	Block  mapreduce.Block
	bytes  int64
}

// nodeBytes is what the cache itself keeps per entry beside the value
// and the job key's bytes: plancache's list node (key header, value,
// error, links, weight: 88 B), its ready channel (96 B), the key's slot
// in the shard's map (a string header and a pointer, at the map's load
// factor: ≈ 40 B) and the version prefix Do puts before the job key
// (≤ 17 B).
const nodeBytes = 240

// NewEntry builds the entry to be cached under jobKey and computes its
// cache weight once: exactly what the entry keeps resident — its blocks'
// arrays at their capacity, the block headers, the record, the entry
// itself, its key and the cache's node for it.
func NewEntry(jobKey string, rec *mapreduce.JobRecord, interm [][]mapreduce.Block, final mapreduce.Block) *Entry {
	const (
		cell   = int64(unsafe.Sizeof(rdf.TermID(0)))
		block  = int64(unsafe.Sizeof(mapreduce.Block{}))
		header = int64(unsafe.Sizeof([]mapreduce.Block(nil)))
	)
	e := &Entry{Rec: rec, Interm: interm, Block: final}
	b := rec.MemBytes() + cell*int64(cap(final.Cells)) + int64(unsafe.Sizeof(*e)) + int64(len(jobKey)) + nodeBytes
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
