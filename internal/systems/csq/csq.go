// Package csq wires the full CliqueSquare prototype ("CSQ" in Section
// 6): data partitioned per Section 5.1, logical optimization with a
// CliqueSquare variant (MSC by default), plan selection with the
// Section 5.4 cost model, translation to physical plans and execution
// as MapReduce jobs on the simulator.
//
// Beyond the paper's load-once setting, the engine is mutable, elastic
// and optionally durable: ApplyBatch applies insert/delete deltas to
// the partitioned store as one snapshot epoch, and
// AddNodes/RemoveNodes re-place rows as one more, while in-flight
// queries keep reading their pinned epoch (snapshot isolation) and
// cached plans are revalidated against the new cardinality statistics
// on their next use.
//
// Every write takes one commit pipeline (commit.go): net delta → log →
// apply → invalidate → answer, a resize being one more kind of logged
// epoch. An engine without a write-ahead log runs the same
// pipeline over a log step that does nothing. Writes reach it one way on
// every engine: a caller queues its write, then takes the writer role
// and commits groups from the head of the queue until its own write is
// answered. No reader waits on a commit: an execution reads the epoch it
// pinned, and a planner reads the statistics catalog, which keeps the
// view its fills read and which the writer moves to an epoch after
// publishing it. The engine starts no goroutine that outlives a call —
// writes, checkpoints and Close run in their callers' goroutines, and an
// execution's helper lanes live for one batch of its morsels. Executions
// are admitted: at most GOMAXPROCS run at once, each on an execution
// context of its own, and the others wait in arrival order.
package csq

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems"
	"cliquesquare/internal/vargraph"
)

// Config parameterizes the engine.
type Config struct {
	// Nodes is the simulated cluster size (the paper uses 7).
	Nodes int
	// Constants are the simulator cost constants.
	Constants mapreduce.Constants
	// Method is the optimizer variant (MSC recommended).
	Method vargraph.Method
	// MaxPlans / MaxCoversPerStep bound optimization, as counts (see
	// core.Options): they stand for the paper's 100 s cap, and a plan
	// space does not depend on the machine it was enumerated on.
	MaxPlans         int
	MaxCoversPerStep int
	// Timeout is ignored; the engine never reads it. It remains only for
	// callers that still set it.
	Timeout time.Duration
	// Partitioning selects the replication scheme; the default is the
	// paper's three-replica layout. SubjectOnly is the single-replica
	// ablation: only s-s first-level joins stay map-side.
	Partitioning partition.Mode
	// Placement names the triple-to-node placement policy: "" or
	// "modulo" is the paper's hash(id) mod n (golden-stat compatible),
	// "ring" the consistent-hash ring that makes AddNodes/RemoveNodes
	// move only ~|ΔN|/N of the data.
	Placement string
	// Parallelism is the number of worker lanes a query's jobs run on;
	// 0 means GOMAXPROCS, 1 runs everything inline on the caller. A
	// phase starts its helper lanes and waits for them, so no lane
	// outlives the query. Results and stats are identical at every
	// setting.
	Parallelism int
	// StatsSink, if non-nil, receives each job's stats as it completes.
	StatsSink func(mapreduce.JobStats)
	// PlanCacheSize caps the number of prepared plans the engine
	// retains, keyed on canonical query fingerprints; 0 means a default
	// of 256 entries, negative keeps none, so every prepare snapshots,
	// prices and binds. The plan spaces and the statistics catalog are
	// kept whatever its value. The cap is approximate: sharding rounds it
	// up to the next multiple of the shard count (see plancache.New).
	PlanCacheSize int
	// ResultCacheBytes, when positive, enables the result cache with
	// that byte budget: executed plans' answers (result rows + every
	// job's recorded tuple counts) are cached per (plan key, data epoch)
	// and served on repeat executions with rows and JobStats
	// byte-identical to an uncached run. 0 (the default) disables it.
	ResultCacheBytes int64
}

// DefaultConfig mirrors the paper's setup: 7 nodes, MSC, with 20,000
// plans and 5,000 covers per step in place of its 100 s cap.
func DefaultConfig() Config {
	return Config{
		Nodes:            7,
		Constants:        mapreduce.DefaultConstants(),
		Method:           vargraph.MSC,
		MaxPlans:         20000,
		MaxCoversPerStep: 5000,
	}
}

// Engine is a loaded CSQ instance. All of its entry points — Prepare,
// PrepareCached, ExecutePrepared, ExecutePlan, RunPlan, Run,
// ApplyBatch, AddNodes, RemoveNodes — are safe for concurrent use:
// planning reads the statistics catalog and immutable engine state,
// execution a pinned data epoch and the scratch of an execution context
// of its own, and the caches synchronize themselves. Writes have exactly
// one writer at a time — whichever caller holds wmu — which publishes
// new epochs atomically and then moves the catalog to them; no reader
// waits on it meanwhile. qmu is held only briefly, under nothing but wmu, and
// a durable engine's checkpoint mutex is never held with wmu.
type Engine struct {
	cfg Config
	// The partitioned store is the engine's only copy of the data (the
	// replicas are the dataset, Section 5.1): of the graph it is built
	// from the engine keeps the dictionary, shared with its caller.
	dict *rdf.Dict
	part *partition.Partitioner
	// shim is what Graph returns: no triples, the engine's dictionary.
	shim *rdf.Graph
	// cache maps canonical query fingerprints to versioned plan
	// entries; nil when PlanCacheSize is negative.
	cache *plancache.Cache[*cacheEntry]
	// spaces maps a query's written constant-free shape
	// (core.WrittenShape) to the plan space the optimizer enumerated for
	// it and the candidates compiled from it, weighed by Space.Bytes under
	// spaceCacheBytes. Every planner of the shape — whatever its
	// constants, SELECT list or Name, a cold prepare as much as a
	// revalidation, cached or not — prices this one immutable Space and
	// binds a candidate compiled once.
	spaces *plancache.Cache[*shapePlans]
	// cat is the engine's one statistics object: every planner snapshots
	// its query's patterns from it (plan), and every committed epoch hands
	// it its view and folds its delta into it once (invalidate), so it
	// trails the engine's data version only while a commit is moving it.
	// It retains patterns under a byte budget of its own, least recently
	// snapshotted first, whatever the plan cache holds.
	cat *cost.Catalog
	// res is the result cache; nil unless ResultCacheBytes > 0.
	// Keys embed the data epoch, so stale entries are unreachable after
	// a commit; the commit pipeline additionally purges for budget
	// hygiene.
	res *rescache.Cache
	// slots admits executions: runtime.GOMAXPROCS(0) of them, read at
	// construction. An execution sends to it before it takes a context
	// and receives from it once it has put the context back, so no more
	// run at once and the others wait in arrival order. idle holds the
	// contexts not in use, each built on the first execution that found
	// none idle — never more than the slots — and idleScratch the bytes
	// their scratch holds. A context is memory only: Close reaps nothing.
	slots       chan struct{}
	idle        chan *physical.ExecContext
	idleScratch atomic.Int64

	// batches / groups / revalidations / replans count update activity:
	// committed ApplyBatch calls, the epochs that carried them, cached
	// plans re-checked and re-chosen. enumerations counts optimizer runs,
	// compiles the candidates compiled.
	batches       atomic.Uint64
	groups        atomic.Uint64
	revalidations atomic.Uint64
	replans       atomic.Uint64
	enumerations  atomic.Uint64
	compiles      atomic.Uint64

	// closed flips once, under qmu, when Close begins; every entry point
	// then returns ErrClosed. dur is what an attached log adds (the WAL
	// and its checkpoint mutex), nil without one.
	closed atomic.Bool
	dur    *durableState
	// qmu guards queue, the writes accepted and not yet flushed in arrival
	// order, and the flip of closed: a write is accepted only while closed
	// is unset, so Close, which drains the queue once it has set closed,
	// answers every write accepted before it and none is accepted after.
	qmu   sync.Mutex
	queue []*request
	// wmu is the writer role: its holder flushes groups from the head of
	// queue and is the engine's only writer meanwhile, which is what
	// netDelta's probes of the current view and a resize's reading of the
	// current size rely on.
	wmu sync.Mutex
	// published, a test seam nil in production, runs in the writer after
	// it has published an epoch and before it moves the caches to it.
	published func()
}

// spaceCacheBytes is the budget of the plan-space cache. The 14 LUBM
// spaces weigh under 256 KB together; a shape whose space outweighs one
// shard's share (an eighth) is enumerated for its waiters and not
// retained, so pathological shapes cannot pin the tables of thousands
// of candidates.
const spaceCacheBytes = 8 << 20

// mustPolicy resolves the configured placement policy, panicking on an
// unknown name (the facade validates names before they reach here).
func (cfg Config) mustPolicy() partition.Policy {
	pol, ok := partition.PolicyByName(cfg.Placement)
	if !ok {
		panic(fmt.Sprintf("csq: unknown placement policy %q", cfg.Placement))
	}
	return pol
}

// New partitions g across the configured cluster and returns the
// engine. It keeps g's dictionary and lets g go.
func New(g *rdf.Graph, cfg Config) *Engine {
	return newEngine(cfg, g.Dict, g.Triples(), dstore.NewStore(cfg.Nodes))
}

// newEngine loads triples, encoded in dict, onto the empty store as one
// epoch and builds the engine around them, caches included: the one
// constructor behind New, NewDurable and OpenDurable.
func newEngine(cfg Config, dict *rdf.Dict, triples []rdf.Triple, store *dstore.Store) *Engine {
	e := &Engine{
		cfg:   cfg,
		dict:  dict,
		part:  partition.New(store, cfg.Partitioning, cfg.mustPolicy()),
		shim:  &rdf.Graph{Dict: dict},
		slots: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	e.idle = make(chan *physical.ExecContext, cap(e.slots))
	v := e.part.ApplyBatch(triples, nil, dict)
	e.cat = cost.NewCatalog(v, v.Version())
	e.spaces = plancache.NewSized(spaceCacheBytes, func(sh *shapePlans) int64 { return int64(sh.space.Bytes()) })
	if cfg.PlanCacheSize >= 0 {
		e.cache = plancache.New[*cacheEntry](cfg.PlanCacheSize)
	}
	if cfg.ResultCacheBytes > 0 {
		e.res = rescache.New(cfg.ResultCacheBytes)
	}
	return e
}

// Name implements systems.System.
func (e *Engine) Name() string { return "CSQ" }

// Dict returns the engine's dictionary: the one of the graph it was
// built from, grown by every term a batch introduced since.
func (e *Engine) Dict() *rdf.Dict { return e.dict }

// Graph is a shim for callers that reach the dictionary through a graph
// (the benchmark driver): the same empty graph around Dict() on every
// call. The engine keeps no triples outside its store; use Dict.
func (e *Engine) Graph() *rdf.Graph { return e.shim }

// DataVersion is the current data epoch: 1 after the initial load,
// incremented by every applied batch and every resize.
func (e *Engine) DataVersion() uint64 { return e.part.Current().Version() }

// BatchResult reports what an ApplyBatch call actually changed.
type BatchResult struct {
	// Inserted and Deleted count the effective delta: inserts already
	// present and deletes of absent triples are no-ops.
	Inserted, Deleted int
	// DataVersion is the epoch the batch committed as.
	DataVersion uint64
	// Commit carries the commit's stage timings and how many callers
	// shared it (the log stages are zero on an engine without a log).
	Commit CommitStats
}

// ApplyBatch applies deletes then inserts to the dataset as one atomic
// epoch: the partitioned store (three-replica delta placement) and the
// placement metadata move together, and queries
// either see the whole batch or none of it. Duplicate inserts, inserts
// of triples already present, and deletes of absent triples are
// filtered to a no-op, so the result matches loading the mutated graph
// from scratch; a batch whose net delta is empty commits no epoch (the
// returned DataVersion is the current one). Concurrent queries keep
// executing against their pinned epochs; cached plans revalidate lazily
// on next use.
//
// The batch may share its epoch with concurrent callers, on every
// engine (see BatchResult.Commit). With a log attached it is
// acknowledged only after its WAL record — that epoch's one record — is
// fsynced. ApplyBatch on a closed
// engine returns ErrClosed; a WAL failure surfaces here and leaves the
// in-memory state untouched.
func (e *Engine) ApplyBatch(inserts, deletes []rdf.Triple) (BatchResult, error) {
	r := e.submit(&request{ins: inserts, dels: deletes})
	return r.res, r.err
}

// UpdateStats is a snapshot of the engine's update/revalidation
// counters.
type UpdateStats struct {
	// Batches is the number of ApplyBatch calls committed.
	Batches uint64
	// Revalidations counts cached plans re-checked against fresh
	// statistics after a data-version change; Replans counts the
	// revalidations that switched the entry to a different candidate of
	// its plan space.
	Revalidations uint64
	Replans       uint64
	// Enumerations counts optimizer runs since construction: one per
	// written query shape while its plan space stays resident, whatever
	// the number of constants, plans, revalidations and inspections that
	// use it. Compiles counts the candidates compiled since construction:
	// one per (shape, chosen candidate, SELECT list) while the shape stays
	// resident, whatever the number of constants bound to it. Spaces and
	// SpaceBytes are the plan spaces resident now and their weight.
	Enumerations uint64
	Compiles     uint64
	Spaces       uint64
	SpaceBytes   uint64
	// StatsPatterns is the number of distinct triple patterns resident
	// in the statistics catalog now; StatsFills counts the patterns
	// filled from a scan of the store (a resident pattern is never
	// filled again, whether or not a cached plan uses it).
	StatsPatterns uint64
	StatsFills    uint64
	// DictBytes and StatsBytes are the bytes the dictionary and the
	// statistics catalog hold now, computed from the lengths and
	// capacities of their arrays: the term pages, span chunks and id
	// table; the patterns with their constants, the catalog's commit
	// scratch and its layouts. The catalog keeps counts, not bindings:
	// its bytes follow the patterns and shapes asked and the largest
	// commit, not the data.
	DictBytes  uint64
	StatsBytes uint64
	// StoreBytes is what the current epoch's partition files hold,
	// computed from capacities: the sorted key arrays of the subject and
	// object replicas and the files' headers and names (the property
	// replica holds no cells). Reads never move it.
	StoreBytes uint64
	// Contexts is the number of execution contexts idle now — at most
	// GOMAXPROCS, however many callers execute — and ScratchBytes the
	// bytes their scratch holds: per context, its lanes times the largest
	// temporary plus the most outputs any execution through it needed,
	// however many ran — a function of plans, data and lane count.
	Contexts     uint64
	ScratchBytes uint64
}

// UpdateStats snapshots update activity since engine construction.
func (e *Engine) UpdateStats() UpdateStats {
	patterns, fills, _ := e.cat.Counters()
	spaces := e.spaces.Stats()
	return UpdateStats{
		Batches:       e.batches.Load(),
		Revalidations: e.revalidations.Load(),
		Replans:       e.replans.Load(),
		Enumerations:  e.enumerations.Load(),
		Compiles:      e.compiles.Load(),
		StatsPatterns: uint64(patterns),
		StatsFills:    fills,
		DictBytes:     uint64(e.dict.Bytes()),
		StatsBytes:    uint64(e.cat.Bytes()),
		StoreBytes:    uint64(e.part.Current().Snap().Bytes()),
		Spaces:        uint64(spaces.Entries),
		SpaceBytes:    uint64(spaces.Bytes),
		Contexts:      uint64(len(e.idle)),
		ScratchBytes:  uint64(e.idleScratch.Load()),
	}
}

// enumerate runs the optimizer on q under the configured budgets.
func (e *Engine) enumerate(q *sparql.Query) (*core.Result, error) {
	e.enumerations.Add(1)
	res, err := core.Optimize(q, core.Options{
		Method:           e.cfg.Method,
		MaxPlans:         e.cfg.MaxPlans,
		MaxCoversPerStep: e.cfg.MaxCoversPerStep,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Unique) == 0 {
		return nil, fmt.Errorf("csq: %s produced no plan for %s", e.cfg.Method, q.Name)
	}
	return res, nil
}

// shapePlans is what the engine keeps per written query shape: the plan
// space enumerated for it and the candidates compiled from that space so
// far. A compiled candidate names no constant — the optimizer reads the
// variable graph only, and constants enter a plan at scan time and in
// its result-cache key — so the queries of the shape that choose it
// under one SELECT list all bind the one compile (physical.Plan.Bind).
type shapePlans struct {
	space *core.Space
	// mu guards compiled, the candidates compiled so far, each for one
	// SELECT list. A compiled plan is never written once it is in the
	// table.
	mu       sync.Mutex
	compiled []compiledPlan
}

// compiledPlan is candidate idx of a shape's space, compiled for the
// SELECT list of its final projection.
type compiledPlan struct {
	idx int
	pp  *physical.Plan
}

// compiledCap bounds a shape's compiled candidates; reaching it resets
// the table (a shape's queries choose few candidates under few SELECT
// lists; the bound only guards pathological churn).
const compiledCap = 16

// shape returns the plans of q's written shape, the string written
// (core.WrittenShape(q)): the resident ones, or the product of one
// enumeration that concurrent first requests of the shape share
// (singleflight) and the cache retains if it fits. The optimizer's
// budgets govern that one enumeration, and its Truncated flag stays on
// the space.
func (e *Engine) shape(q *sparql.Query, written string) (*shapePlans, error) {
	sh, _, err := e.spaces.Do(written, func() (*shapePlans, error) {
		res, err := e.enumerate(q)
		if err != nil {
			return nil, err
		}
		return &shapePlans{space: res.Space()}, nil
	})
	return sh, err
}

// plan is planning proper, for a cold prepare (prev nil) and for the
// revalidation of prev alike: snapshot q's statistics, price the
// candidates of q's written shape and bind the winner to q. Every plan
// the engine hands out is a candidate of its shape's one space. A
// revalidation whose snapshot equals prev's keeps prev's choice without
// pricing, and one whose winner is prev's keeps prev's bound plan;
// either way the result shares every surviving component with prev, so
// prev's holders keep executing it safely. The plan is tagged with the
// snapshot's version, the catalog's: while a commit has published an
// epoch and not yet moved the catalog, that is the epoch before, and the
// plan revalidates on its next use. The caller has validated q.
func (e *Engine) plan(q *sparql.Query, prev *Prepared) (*Prepared, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	st := e.cat.Snapshot(e.dict, q)
	p := &Prepared{Query: q}
	if prev != nil {
		*p = *prev
	}
	p.DataVersion = st.Version()
	if prev != nil && st.Equal(prev.stats) {
		return p, nil
	}
	p.stats = st
	sh, err := e.shape(q, st.Shape()) // the catalog keeps the shape's string
	if err != nil {
		return nil, err
	}
	idx, c := cost.NewModel(e.cfg.Constants, st).ChooseSpace(sh.space)
	p.chosenCost = c
	if prev != nil {
		if idx == prev.chosenIdx {
			return p, nil
		}
		e.replans.Add(1)
	}
	pp, err := e.compiled(sh, q, idx)
	if err != nil {
		return nil, err
	}
	pp = pp.Bind(q)
	p.Logical, p.Physical, p.Height, p.chosenIdx = pp.Logical, pp, pp.Logical.Height(), idx
	p.PlansExplored, p.UniquePlans = sh.space.Explored, sh.space.Candidates()
	return p, nil
}

// compiled returns candidate idx of sh's space compiled for q's SELECT
// list, compiling it if the table lacks it.
func (e *Engine) compiled(sh *shapePlans, q *sparql.Query, idx int) (*physical.Plan, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.compiled {
		if c.idx == idx && slices.Equal(c.pp.Logical.Root.Attrs, q.Select) {
			return c.pp, nil
		}
	}
	best, err := sh.space.Plan(q, idx)
	if err != nil {
		return nil, err
	}
	best = core.PushProjections(best)
	var caps physical.CoLocator
	if e.cfg.Partitioning == partition.SubjectOnly {
		caps = physical.SubjectOnlyCoLocator()
	}
	pp, err := physical.CompileWith(best, caps)
	if err != nil {
		return nil, err
	}
	// Warm the lazy memos (height, signature) before the operators are
	// shared across goroutines: later calls only read them.
	best.Height()
	best.Signature()
	if len(sh.compiled) >= compiledCap {
		sh.compiled = sh.compiled[:0]
	}
	sh.compiled = append(sh.compiled, compiledPlan{idx: idx, pp: pp})
	e.compiles.Add(1)
	return pp, nil
}

// ExecutePlan runs an already-compiled plan on a fresh cluster clock,
// with per-node phases executed concurrently (per Config.Parallelism).
// The execution pins the current data epoch for its whole duration:
// batches committing meanwhile are invisible to it, and the result's
// DataVersion reports the epoch served. The rows are the caller's to
// keep (physical.Result.Rows); RunPlan is the entrance that does not
// copy them out.
func (e *Engine) ExecutePlan(pp *physical.Plan) (res *physical.Result, err error) {
	err = e.RunPlan(pp, func(r *physical.Result, rows physical.Rows) error {
		r.Rows, res = rows.Materialise(), r
		return nil
	})
	return res, err
}

// RunPlan executes pp as ExecutePlan does and lends use the finished
// rows where the execution left them (see physical.ExecContext.Run):
// the execution's slot, its context and the pinned epoch are held until
// use returns — also when it panics — and rows is invalid from then on.
// The Result (Rows nil, N set) may be kept. use must not execute on the
// engine itself: it holds one of the slots such an execution waits for.
//
// An execution is admitted first: it takes a slot, waiting in arrival
// order while every slot is out, then an idle context, or builds one if
// none is idle. The epoch it reads is pinned in the partitioner's
// registry for the duration: a checkpoint's watermark then never
// garbage-collects the WAL generation this execution is reading.
func (e *Engine) RunPlan(pp *physical.Plan, use func(res *physical.Result, rows physical.Rows) error) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.slots <- struct{}{}
	var c *physical.ExecContext
	select {
	case c = <-e.idle:
		e.idleScratch.Add(-c.ScratchBytes())
	default:
		c = physical.NewExecContext(e.cfg.Parallelism, e.cfg.Constants)
		c.StatsSink = e.cfg.StatsSink
	}
	view := e.part.Pin(e.part.Current())
	defer e.release(c, view)
	return c.Run(pp, view, e.dict, e.res, use)
}

// release unpins an execution's epoch, puts its context back among the
// idle ones — an idle context pins no epoch — and frees its slot.
func (e *Engine) release(c *physical.ExecContext, view *partition.View) {
	e.part.Unpin(view)
	e.idleScratch.Add(c.ScratchBytes())
	e.idle <- c
	<-e.slots
}

// ExecuteStats executes pp for its statistics alone — the row count
// (Result.N), JobStats and simulated time — and copies no row out.
func (e *Engine) ExecuteStats(pp *physical.Plan) (res *physical.Result, err error) {
	err = e.RunPlan(pp, func(r *physical.Result, _ physical.Rows) error {
		res = r
		return nil
	})
	return res, err
}

// ResultCacheStats snapshots the result cache counters (all
// zero when the cache is disabled).
func (e *Engine) ResultCacheStats() rescache.Stats {
	if e.res == nil {
		return rescache.Stats{}
	}
	return e.res.Stats()
}

// Run implements systems.System: optimize, select, execute.
func (e *Engine) Run(q *sparql.Query) (*systems.RunResult, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	r, err := e.ExecuteStats(p.Physical)
	if err != nil {
		return nil, err
	}
	out := &systems.RunResult{
		System: e.Name(),
		Query:  q.Name,
		Rows:   r.N,
		Time:   r.Time,
		Work:   r.Work,
		Jobs:   len(r.Jobs),
	}
	for _, j := range r.Jobs {
		if j.MapOnly {
			out.MapOnlyJobs++
		}
	}
	return out, nil
}
