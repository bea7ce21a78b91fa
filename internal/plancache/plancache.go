// Package plancache provides the concurrency-safe prepared-plan cache
// backing Engine.Prepare: a sharded LRU keyed on canonical query
// fingerprints (sparql.Canonicalize), with singleflight semantics so
// that N concurrent requests for the same key compute the value exactly
// once while distinct keys compute in parallel.
//
// The cache is generic over the cached value; the engine stores
// immutable *Prepared plans in it. Values must be safe to share: the
// cache hands the same value to every caller of a key.
//
// Two eviction policies share the shard/singleflight machinery. New
// builds the original entry-count LRU (the plan cache). NewSized builds
// a byte-budgeted LRU: each completed value is weighed once on
// admission and least-recently-used entries are evicted until the
// resident weight fits the budget — what the engine keeps its enumerated
// plan spaces in (one per written query shape, a few hundred bytes to
// megabytes) and the foundation the result cache (internal/rescache)
// builds on, where entries are materialized answers of wildly different
// sizes.
package plancache

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// defaultCapacity is the entry cap used when New is given zero.
const defaultCapacity = 256

// defaultBudgetBytes is the byte budget used when NewSized is given
// zero (64 MiB).
const defaultBudgetBytes = 64 << 20

// shardCount is the number of independent LRU shards. Keys are spread
// by hash, so unrelated fingerprints contend on different locks.
const shardCount = 8

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	// Hits counts Do calls served from the cache, including callers
	// that joined an in-flight computation (they did not compute).
	Hits uint64
	// Misses counts the computations actually run — exactly one per
	// fingerprint under singleflight, however many callers raced.
	Misses uint64
	// Evictions counts entries dropped by the LRU policy.
	Evictions uint64
	// Entries is the current number of cached keys.
	Entries int
	// Bytes is the resident weight of completed entries; always zero
	// for an entry-count cache (New), which does not weigh values.
	Bytes int64
	// EvictedBytes is the cumulative weight of evicted entries
	// (byte-budget caches only).
	EvictedBytes uint64
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded LRU with singleflight value computation. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	shards []shard[V]
	// weigher, when non-nil, switches the cache from entry-count to
	// byte-budget eviction (NewSized): every completed value is weighed
	// exactly once, after its compute finishes.
	weigher      func(V) int64
	hits         atomic.Uint64
	misses       atomic.Uint64
	evictions    atomic.Uint64
	evictedBytes atomic.Uint64
}

// errPanicked marks an entry whose compute panicked: its waiters retry.
var errPanicked = errors.New("plancache: compute panicked")

// entry is one cached key. ready is closed once val/err are set; LRU
// links and weight are guarded by the shard lock, val/err by the ready
// barrier.
type entry[V any] struct {
	key        string
	ready      chan struct{}
	val        V
	err        error
	weight     int64
	prev, next *entry[V]
}

type shard[V any] struct {
	mu       sync.Mutex
	m        map[string]*entry[V]
	capacity int
	// budget and bytes bound and track resident weight in byte-budget
	// mode; budget is zero for an entry-count cache.
	budget int64
	bytes  int64
	// Doubly-linked LRU list: head is most recently used. The sentinel
	// root makes link manipulation branch-free.
	root entry[V]
}

// New returns a cache holding up to capacity entries in total, rounded
// up to the next multiple of the shard count — New(10) admits up to 16
// (8 shards of 2) — so the configured size is a guaranteed floor and
// the ceiling exceeds it by at most shardCount-1 entries. capacity <= 0
// means a default of 256.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	ns := shardCount
	if capacity < ns {
		ns = 1
	}
	c := &Cache[V]{shards: make([]shard[V], ns)}
	per := (capacity + ns - 1) / ns
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[string]*entry[V])
		s.capacity = per
		s.root.prev = &s.root
		s.root.next = &s.root
	}
	return c
}

// NewSized returns a byte-budgeted cache: weigher is applied once to
// every completed value and least-recently-used entries are evicted
// until the resident weight fits the budget. The budget splits evenly
// across the shards, so one shard's resident weight never exceeds
// roughly budget/shardCount — a value heavier than that is returned to
// its waiters but not retained. budgetBytes <= 0 means a default of
// 64 MiB.
func NewSized[V any](budgetBytes int64, weigher func(V) int64) *Cache[V] {
	if budgetBytes <= 0 {
		budgetBytes = defaultBudgetBytes
	}
	c := &Cache[V]{shards: make([]shard[V], shardCount), weigher: weigher}
	per := (budgetBytes + shardCount - 1) / shardCount
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[string]*entry[V])
		s.capacity = math.MaxInt // bounded by bytes, not entries
		s.budget = per
		s.root.prev = &s.root
		s.root.next = &s.root
	}
	return c
}

// evict drops e from its shard s, whose lock the caller holds, and
// counts it.
func (c *Cache[V]) evict(s *shard[V], e *entry[V]) {
	s.unlink(e)
	delete(s.m, e.key)
	s.bytes -= e.weight
	c.evictions.Add(1)
	c.evictedBytes.Add(uint64(e.weight))
}

// admit weighs a freshly computed entry against its shard's byte
// budget: the weight joins the shard's resident bytes, then LRU tails
// are evicted until the shard fits again (in-flight entries weigh
// zero; their waiters still get their value). An entry heavier than the
// whole shard budget is dropped outright.
func (c *Cache[V]) admit(s *shard[V], e *entry[V]) {
	w := c.weigher(e.val)
	s.mu.Lock()
	if s.m[e.key] != e {
		s.mu.Unlock()
		return // purged meanwhile
	}
	e.weight = w
	s.bytes += w
	if w > s.budget {
		c.evict(s, e)
	}
	for s.bytes > s.budget {
		lru := s.root.prev
		if lru == e || lru == &s.root {
			break
		}
		c.evict(s, lru)
	}
	s.mu.Unlock()
}

// Do returns the value cached under key, computing it with compute on
// first use. Concurrent calls for the same key block on one in-flight
// computation (singleflight); calls for distinct keys proceed in
// parallel — compute runs outside the shard lock. hit reports whether
// the value came from the cache (possibly by joining an in-flight
// computation) rather than from this call's own compute.
//
// A compute error is returned to every waiting caller and the entry is
// dropped, so a later Do retries. A compute that panics drops the entry
// too, and wakes its waiters, which retry as if they had come first;
// the panic then continues on the caller whose compute it was.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (v V, hit bool, err error) {
	s := &c.shards[shardIndex(key)%uint32(len(c.shards))]
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.moveToFront(e)
		s.mu.Unlock()
		<-e.ready
		if e.err == errPanicked {
			return c.Do(key, compute)
		}
		if e.err != nil {
			return v, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	if c.weigher != nil {
		// A sized cache's weights count its keys' bytes, so it holds a
		// copy of its own: a caller may keep its key to probe again.
		key = strings.Clone(key)
	}
	e := &entry[V]{key: key, ready: make(chan struct{})}
	s.m[key] = e
	s.pushFront(e)
	if len(s.m) > s.capacity {
		// Evict the least recently used entry (never the one just
		// inserted). An evicted in-flight entry still completes for its
		// waiters; it is simply no longer findable.
		if lru := s.root.prev; lru != e {
			c.evict(s, lru)
		}
	}
	s.mu.Unlock()

	e.err = errPanicked // until compute returns
	defer func() {
		if e.err == errPanicked {
			s.mu.Lock()
			if s.m[key] == e {
				s.unlink(e)
				delete(s.m, key)
			}
			s.mu.Unlock()
			close(e.ready)
		}
	}()
	e.val, e.err = compute()
	close(e.ready)
	c.misses.Add(1)
	if e.err != nil {
		s.mu.Lock()
		if s.m[key] == e {
			s.unlink(e)
			delete(s.m, key)
		}
		s.mu.Unlock()
		return v, false, e.err
	}
	if c.weigher != nil {
		c.admit(s, e) // an entry evicted or purged while computing is not re-admitted
	}
	return e.val, false, nil
}

// Get returns the cached value for key without computing, reporting
// whether a completed entry was present. It does not block on in-flight
// computations and does not touch recency.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	s := &c.shards[shardIndex(key)%uint32(len(c.shards))]
	s.mu.Lock()
	e, present := s.m[key]
	s.mu.Unlock()
	if !present {
		return v, false
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return v, false
		}
		return e.val, true
	default:
		return v, false
	}
}

// Len is the current number of cached keys.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Bytes is the resident weight of completed entries (zero for an
// entry-count cache).
func (c *Cache[V]) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Entries:      c.Len(),
		Bytes:        c.Bytes(),
		EvictedBytes: c.evictedBytes.Load(),
	}
}

// Purge drops every cached entry (counters are kept; resident bytes
// reset). In-flight computations still complete for their waiters but
// are not re-admitted.
func (c *Cache[V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry[V])
		s.bytes = 0
		s.root.prev = &s.root
		s.root.next = &s.root
		s.mu.Unlock()
	}
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	s.pushFront(e)
}

// shardIndex hashes a key (FNV-1a) to pick its shard.
func shardIndex(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}
