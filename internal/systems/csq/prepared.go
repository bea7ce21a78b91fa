package csq

import (
	"sync"
	"sync/atomic"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/sparql"
)

// Prepared is the reusable artifact of planning one query: the
// cost-selected candidate of its shape's plan space, as a logical plan
// and a compiled physical plan bound to the query, and the plan space's
// size. A Prepared is immutable after Prepare returns and safe to
// execute from many goroutines at once — execution state lives in
// per-call ExecContexts, never in the plan — which is what lets one
// cached Prepared serve concurrent requests.
type Prepared struct {
	// Query is the query instance that was planned. For cache hits this
	// is the first instance of the cache key (canonical fingerprint +
	// Name) to be planned; an alpha-equivalent, same-named later query
	// shares its plan.
	Query *sparql.Query
	// Logical is the chosen logical plan (after projection push-down)
	// over Query. Its operators are shared, read-only, with every plan
	// the engine bound from the same compiled candidate.
	Logical *core.Plan
	// Physical is the compiled physical plan, bound to Query.
	Physical *physical.Plan
	// Height is the logical plan's height, snapshotted at Prepare time
	// so executions never touch the plan's lazy accessors.
	Height int
	// PlansExplored and UniquePlans report the size of the plan space
	// this plan was chosen from: the plans the enumeration of the
	// query's shape generated, and the distinct ones among them.
	PlansExplored int
	UniquePlans   int
	// Fingerprint is the cache key this plan is stored under: the
	// canonical fingerprint of shape plus bindings, composed with the
	// query Name (empty when the plan was prepared without the cache).
	Fingerprint string
	// DataVersion is the data epoch whose cardinality statistics chose
	// this plan. The cache revalidates an entry whose version trails
	// the engine's current epoch before serving it again; executions of
	// a stale Prepared stay correct regardless (results do not depend
	// on the statistics), so holders may keep running it.
	DataVersion uint64

	// chosenIdx is this plan's index among the candidates of its shape's
	// plan space (the engine keeps spaces per written shape, not per
	// plan) and chosenCost its modeled cost when it was last chosen.
	chosenIdx  int
	chosenCost float64
	// stats is the statistics snapshot this plan was chosen under: while
	// a later snapshot equals it, the choice stands as it is.
	stats *cost.Stats
}

// Prepare selects q's plan and binds it into an immutable Prepared,
// without consulting the plan cache: it snapshots q's statistics, prices
// the plan space of q's shape and binds the winner, the space and its
// compiled candidates shared with every other planner (see Engine.shape).
// This is the plan-once half of the plan-once/execute-many split;
// ExecutePrepared is the other.
func (e *Engine) Prepare(q *sparql.Query) (*Prepared, error) {
	// A shape hit runs no optimizer, so nothing else would validate q.
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return e.plan(q, nil)
}

// cacheEntry is one plan-cache slot: the current validated Prepared,
// swapped atomically when revalidation refreshes or replaces it, plus a
// mutex so concurrent revalidations of the same entry run once. It
// carries no statistics: those live once, in the engine's catalog.
type cacheEntry struct {
	mu  sync.Mutex
	cur atomic.Pointer[Prepared]
}

// PrepareCached returns the prepared plan for q's cache key, planning
// it on first use. Concurrent calls for the same key plan exactly once
// (singleflight); distinct keys plan in parallel. hit reports whether
// the plan came from the cache. With the plan cache off
// (Config.PlanCacheSize < 0) it is Prepare.
//
// A miss is not an optimizer run, nor, mostly, a compile: planning takes
// the plan space of q's written shape — enumerated by the first query of
// that shape, whatever its constants, and shared from then on —
// snapshots q's statistics, prices the space's candidates and binds the
// winner, compiled by the first query of the shape that chose it under
// q's SELECT list.
//
// The cache key is q's canonical fingerprint (sparql.Canonicalize:
// variable names and pattern order do not matter) plus q's Name —
// simulated job names derive from the Name, so folding it into the key
// keeps cached and uncached JobStats byte-identical even for renamed
// but otherwise equivalent queries.
//
// Entries are tagged with the data version whose statistics chose
// them. A hit whose tag trails the current epoch is revalidated before
// being served: a fresh snapshot of the catalog's delta-maintained
// statistics is compared with the one the plan was chosen under, the
// shape's plan space is re-priced only if they differ (plan spaces
// survive epochs — only the stats-derived cost choice can change), and
// a plan is bound afresh only when a different candidate now wins, so
// post-update cached executions remain byte-identical to freshly
// planned ones.
func (e *Engine) PrepareCached(q *sparql.Query) (p *Prepared, hit bool, err error) {
	// Validate up front, once: a shape hit runs no optimizer, and an
	// unvalidated query must not be able to collide with — and be served
	// from — a valid query's cache entry.
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	if e.closed.Load() {
		return nil, false, ErrClosed
	}
	if e.cache == nil {
		p, err = e.plan(q, nil)
		return p, false, err
	}
	k := sparql.Key(q)
	key := string(k[:]) + "\x00" + q.Name // one allocation: the conversion is the concatenation's operand
	ent, hit, err := e.cache.Do(key, func() (*cacheEntry, error) {
		p, err := e.plan(q, nil)
		if err != nil {
			return nil, err
		}
		p.Fingerprint = key
		ent := &cacheEntry{}
		ent.cur.Store(p)
		return ent, nil
	})
	if err != nil {
		return nil, false, err
	}
	p = ent.cur.Load()
	if p.DataVersion == e.DataVersion() {
		return p, hit, nil
	}
	// The epoch moved since this plan was validated: revalidate under
	// the entry's lock so racing callers re-cost once, not N times.
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if p = ent.cur.Load(); p.DataVersion == e.DataVersion() {
		return p, hit, nil
	}
	e.revalidations.Add(1)
	np, err := e.plan(p.Query, p)
	if err != nil {
		return nil, false, err
	}
	ent.cur.Store(np)
	return np, hit, nil
}

// ExecutePrepared runs a prepared plan on a fresh cluster clock. Many
// goroutines may execute the same Prepared simultaneously; each
// execution pins the then-current data epoch.
func (e *Engine) ExecutePrepared(p *Prepared) (*physical.Result, error) {
	return e.ExecutePlan(p.Physical)
}

// CacheStats snapshots the plan cache counters (zero Stats when
// PlanCacheSize is negative).
func (e *Engine) CacheStats() plancache.Stats {
	if e.cache == nil {
		return plancache.Stats{}
	}
	return e.cache.Stats()
}
