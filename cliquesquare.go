// Package cliquesquare is the public facade of the CliqueSquare
// reproduction: flat, n-ary-join query plans for massively parallel RDF
// query evaluation (Goasdoué et al., ICDE 2015), with a simulated
// MapReduce runtime.
//
// Typical use:
//
//	g := cliquesquare.NewGraph()
//	g.AddSPO("alice", "knows", "bob")
//	eng, _ := cliquesquare.NewEngine(g, cliquesquare.Options{})
//	res, _ := eng.Query(`SELECT ?a ?b WHERE { ?a <knows> ?b }`)
//	for _, row := range res.Rows { fmt.Println(row) }
//
// The facade wraps the full pipeline: three-replica data partitioning
// (Section 5.1 of the paper), the CliqueSquare logical optimizer with a
// selectable decomposition variant (Sections 3-4), cost-based plan
// selection (Section 5.4) and MapReduce execution (Sections 5.2-5.3).
package cliquesquare

import (
	"fmt"
	"io"
	"time"

	"cliquesquare/internal/core"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
	"cliquesquare/internal/vargraph"
	"cliquesquare/internal/wal"
)

// Graph is an in-memory RDF dataset (re-exported from the rdf package).
type Graph = rdf.Graph

// Query is a parsed BGP query (re-exported from the sparql package).
type Query = sparql.Query

// NewGraph returns an empty RDF graph.
func NewGraph() *Graph { return rdf.NewGraph() }

// LoadNTriples parses a simplified N-Triples document into a new graph.
func LoadNTriples(r io.Reader) (*Graph, int, error) {
	g := rdf.NewGraph()
	n, err := rdf.ReadNTriples(g, r)
	return g, n, err
}

// Parse parses a BGP SPARQL query (SELECT + WHERE with triple
// patterns; PREFIX declarations and the keyword "a" supported).
func Parse(src string) (*Query, error) { return sparql.Parse(src) }

// Options configures an Engine.
type Options struct {
	// Nodes is the simulated cluster size; 0 means 7 (the paper's).
	Nodes int
	// Method names the optimizer variant ("MSC", "MSC+", "SC", ...);
	// empty means MSC, the paper's recommendation.
	Method string
	// Parallelism is the number of worker lanes a query's jobs run on;
	// 0 means GOMAXPROCS, negative means one lane (everything inline on
	// the caller, the same as 1). Results and statistics are identical
	// at any setting — only wall-clock time changes. Whatever it is, at
	// most GOMAXPROCS queries execute at once; the others wait their
	// turn in arrival order.
	Parallelism int
	// PlanCacheSize caps (approximately — sharding rounds it up to a
	// multiple of 8) the engine's prepared-plan cache, keyed on
	// canonical query fingerprints; 0 means a default of 256 entries,
	// negative keeps no prepared plan, so every query snapshots its
	// statistics, prices its shape's plan space and binds a plan again.
	// Plan spaces, compiled candidates and statistics are shared either
	// way. Cached and uncached paths produce identical results and
	// statistics — the cache only removes repeated planning work.
	PlanCacheSize int
	// ResultCacheBytes, when positive, enables the result cache with
	// that byte budget: each executed plan's answer (its result rows
	// plus every job's recorded tuple counts) is cached per (plan key,
	// data epoch) and served to every later execution of an equal plan,
	// with rows and simulated JobStats byte-identical to an uncached
	// run. Committed batches invalidate all entries (the epoch is part
	// of the key). 0 disables it.
	ResultCacheBytes int64
	// Placement names the triple-to-node placement policy: "" or
	// "modulo" is the paper's hash(id) mod n scheme, "ring" a
	// consistent-hash ring under which AddNodes/RemoveNodes relocate
	// only roughly the ideal fraction of the data. Query results and
	// simulated statistics are identical under either policy at a
	// fixed size.
	Placement string
	// Durable, when non-nil, attaches a write-ahead log: every applied
	// batch is fsynced (group-committed) before it is acknowledged,
	// and Open recovers the engine after a crash. Nil runs the same
	// commit pipeline with no log: writes behave identically, epochs
	// live only as long as the process.
	Durable *DurableOptions
}

// DurableOptions configures the write-ahead log of a durable engine.
type DurableOptions struct {
	// Dir is the log directory (required).
	Dir string
	// GroupMaxWait is ignored; the engine never reads it. A group commit
	// never waits for callers: it carries those that queued while the
	// previous one was in flight. The field remains only for callers that
	// still set it.
	GroupMaxWait time.Duration
	// CheckpointBytes is the WAL-bytes threshold at which the writer whose
	// commit crosses it runs a checkpoint + log truncation, once it has
	// answered its callers; 0 means 8 MiB, negative
	// disables automatic checkpoints (manual Compact still works). A
	// checkpoint is a delta file of the net change since the last full
	// base, so its size follows what changed; a new base is written
	// only once the deltas on the current one would reach its size.
	CheckpointBytes int64
}

func (o *DurableOptions) wal() wal.Options {
	return wal.Options{
		Dir:             o.Dir,
		CheckpointBytes: o.CheckpointBytes,
	}
}

// ErrClosed is returned by queries and updates on a closed engine.
var ErrClosed = csq.ErrClosed

// Engine evaluates queries over a partitioned dataset.
type Engine struct {
	inner *csq.Engine
	dict  *rdf.Dict
}

// NewEngine partitions g over a simulated cluster and returns an
// engine ready to answer queries. With Options.Durable set, a fresh
// write-ahead log is initialized in its directory (it is an error if
// one already exists there — recover that with Open instead).
func NewEngine(g *Graph, opts Options) (*Engine, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	if opts.Durable != nil {
		inner, err := csq.NewDurable(g, cfg, opts.Durable.wal())
		if err != nil {
			return nil, err
		}
		return &Engine{inner: inner, dict: g.Dict}, nil
	}
	return &Engine{inner: csq.New(g, cfg), dict: g.Dict}, nil
}

// Open recovers a durable engine from the write-ahead log in
// opts.Durable.Dir: the dataset is rebuilt from the newest valid
// checkpoint plus every batch fsynced after it (torn tails from a
// crash are truncated), and the recovered engine answers queries
// exactly as the pre-crash engine did, with epoch numbers continuing
// where they left off.
func Open(opts Options) (*Engine, error) {
	if opts.Durable == nil {
		return nil, fmt.Errorf("cliquesquare: Open requires Options.Durable")
	}
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	inner, err := csq.OpenDurable(cfg, opts.Durable.wal())
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner, dict: inner.Dict()}, nil
}

// config resolves the facade options into an engine config.
func (opts Options) config() (csq.Config, error) {
	cfg := csq.DefaultConfig()
	if opts.Nodes > 0 {
		cfg.Nodes = opts.Nodes
	}
	if opts.Method != "" {
		m, err := vargraph.ParseMethod(opts.Method)
		if err != nil {
			return cfg, err
		}
		cfg.Method = m
	}
	cfg.Parallelism = opts.Parallelism
	if cfg.Parallelism < 0 {
		cfg.Parallelism = 1
	}
	cfg.PlanCacheSize = opts.PlanCacheSize
	cfg.ResultCacheBytes = opts.ResultCacheBytes
	if _, ok := partition.PolicyByName(opts.Placement); !ok {
		return cfg, fmt.Errorf("cliquesquare: unknown placement policy %q", opts.Placement)
	}
	cfg.Placement = opts.Placement
	return cfg, nil
}

// Close shuts the engine down once every accepted write has been
// answered: it stops accepting writes and commits whatever is still
// queued (every already-accepted batch is still committed and
// acknowledged, and a resize that has started completes), so the data
// version no longer moves once Close has returned; with a log it then
// syncs and closes the WAL. There is nothing else to reap: no goroutine
// outlives the call that started it. After Close, queries and updates
// return ErrClosed. Close is idempotent.
func (e *Engine) Close() error { return e.inner.Close() }

// ReshardResult reports what a completed AddNodes/RemoveNodes did
// (re-exported from the engine).
type ReshardResult = csq.ReshardResult

// AddNodes grows the cluster by k nodes, relocating only the rows
// whose placement changed (under the "ring" policy, roughly the ideal
// k/(n+k) fraction). The resize commits like a batch: one store epoch
// and, on a durable engine, one WAL record written before it applies.
// Queries keep serving from their pinned snapshots throughout.
func (e *Engine) AddNodes(k int) (ReshardResult, error) { return e.inner.AddNodes(k) }

// RemoveNodes shrinks the cluster by k nodes (the highest-numbered
// ones), moving their rows to the survivors in the same epoch.
// Semantics otherwise match AddNodes.
func (e *Engine) RemoveNodes(k int) (ReshardResult, error) { return e.inner.RemoveNodes(k) }

// Nodes reports the current cluster size (Options.Nodes until the
// first resize).
func (e *Engine) Nodes() int { return e.inner.Nodes() }

// TopologyVersion reports how many resizes have completed: 0 at load,
// +1 per AddNodes/RemoveNodes.
func (e *Engine) TopologyVersion() uint64 { return e.inner.TopologyVersion() }

// Compact forces a checkpoint and write-ahead-log garbage collection
// now, in the calling goroutine, instead of waiting for the byte
// threshold. The checkpoint costs
// what changed since the last full base (a delta file), and a new base
// only once the deltas would reach its size. No-op on a non-durable
// engine.
func (e *Engine) Compact() error { return e.inner.Compact() }

// DurabilityStats is a snapshot of WAL and group-commit activity
// (re-exported from the csq engine).
type DurabilityStats = csq.DurabilityStats

// DurabilityStats snapshots commit and WAL activity: group-commit
// coalescing counters, and — zero on an engine without a log — records
// and bytes logged, fsyncs, checkpoints, files garbage-collected and
// the log directory's live bytes.
func (e *Engine) DurabilityStats() DurabilityStats { return e.inner.DurabilityStats() }

// Result is a decoded query answer plus execution statistics.
type Result struct {
	// Vars are the output column names (the SELECT variables).
	Vars []string
	// Rows are the distinct result tuples, decoded to N-Triples term
	// syntax, sorted deterministically. The row index and the cell
	// slices are this Result's own — re-slice, sort or overwrite them
	// freely; no other answer sees it. A cell's string shares its bytes
	// with the engine's dictionary (strings are immutable, so that is
	// invisible short of unsafe): decoding a cell copies a string header
	// and allocates nothing.
	Rows [][]string
	// Jobs is the number of MapReduce jobs run; MapOnly reports
	// whether all of them were map-only (a PWOC plan).
	Jobs    int
	MapOnly bool
	// SimulatedTime is the simulated response time.
	SimulatedTime time.Duration
	// PlanHeight is the executed plan's height (max joins on a
	// root-to-leaf path) and PlansExplored the optimizer's plan count
	// for the query's shape.
	PlanHeight    int
	PlansExplored int
	// PlanCached reports whether the executed plan came from the
	// engine's plan cache rather than being chosen and compiled for
	// this request.
	PlanCached bool
	// DataVersion is the data epoch this answer was computed from:
	// 1 after the initial load, +1 per applied batch or resize. An execution pins
	// one epoch end to end (snapshot isolation), so the answer reflects
	// exactly the batches committed up to this version — never a torn
	// batch.
	DataVersion uint64
}

// Term is a decoded RDF term (re-exported from the rdf package).
type Term = rdf.Term

// TermKindError is the error ApplyBatch returns (match it with
// errors.As) for a Term whose Kind is none of the three RDF kinds — one
// built by hand, not by IRI, Literal or a parser (re-exported from the
// rdf package).
type TermKindError = rdf.KindError

// IRI returns an IRI term for use in update batches.
func IRI(v string) Term { return rdf.NewIRI(v) }

// Literal returns a literal term for use in update batches.
func Literal(v string) Term { return rdf.NewLiteral(v) }

// Batch accumulates graph updates (inserts and deletes) to be applied
// atomically by Engine.ApplyBatch. The zero value is ready to use;
// builder methods return the batch for chaining.
type Batch struct {
	ins, del [][3]Term
}

// Insert adds one triple insertion to the batch.
func (b *Batch) Insert(s, p, o Term) *Batch {
	b.ins = append(b.ins, [3]Term{s, p, o})
	return b
}

// InsertSPO is Insert with all three terms as IRIs.
func (b *Batch) InsertSPO(s, p, o string) *Batch { return b.Insert(IRI(s), IRI(p), IRI(o)) }

// InsertSPOLit is Insert with IRI subject/property and a literal object.
func (b *Batch) InsertSPOLit(s, p, o string) *Batch { return b.Insert(IRI(s), IRI(p), Literal(o)) }

// Delete adds one triple deletion to the batch. Deleting a triple not
// in the graph is a no-op.
func (b *Batch) Delete(s, p, o Term) *Batch {
	b.del = append(b.del, [3]Term{s, p, o})
	return b
}

// DeleteSPO is Delete with all three terms as IRIs.
func (b *Batch) DeleteSPO(s, p, o string) *Batch { return b.Delete(IRI(s), IRI(p), IRI(o)) }

// DeleteSPOLit is Delete with IRI subject/property and a literal object.
func (b *Batch) DeleteSPOLit(s, p, o string) *Batch { return b.Delete(IRI(s), IRI(p), Literal(o)) }

// Len reports the number of buffered operations.
func (b *Batch) Len() int { return len(b.ins) + len(b.del) }

// BatchResult reports what an ApplyBatch call actually changed
// (re-exported from the csq engine).
type BatchResult = csq.BatchResult

// ApplyBatch applies the batch's deletes then inserts as one atomic
// data epoch: concurrent queries observe either none or all of it
// (snapshot isolation — each execution pins one epoch), results after
// it are identical to a fresh engine loaded from the mutated graph,
// and cached plans revalidate against the new statistics on next use.
// Inserts of triples already present and deletes of absent triples are
// no-ops, reflected in the returned effective counts. A batch holding a
// Term of no known kind is refused whole with a *TermKindError, before
// any of its terms reaches the dictionary.
func (e *Engine) ApplyBatch(b *Batch) (BatchResult, error) {
	for _, ts := range [][][3]Term{b.ins, b.del} {
		for _, t := range ts {
			for _, term := range t {
				if err := term.Check(); err != nil {
					return BatchResult{}, fmt.Errorf("cliquesquare: apply batch: %w", err)
				}
			}
		}
	}
	ins := make([]rdf.Triple, 0, len(b.ins))
	for _, t := range b.ins {
		ins = append(ins, rdf.Triple{
			S: e.dict.Encode(t[0]),
			P: e.dict.Encode(t[1]),
			O: e.dict.Encode(t[2]),
		})
	}
	var del []rdf.Triple
	for _, t := range b.del {
		// A triple with any term missing from the dictionary was never
		// inserted, so its deletion is a no-op.
		s, ok1 := e.dict.Lookup(t[0])
		p, ok2 := e.dict.Lookup(t[1])
		o, ok3 := e.dict.Lookup(t[2])
		if ok1 && ok2 && ok3 {
			del = append(del, rdf.Triple{S: s, P: p, O: o})
		}
	}
	return e.inner.ApplyBatch(ins, del)
}

// Insert applies a single-triple insertion batch.
func (e *Engine) Insert(s, p, o Term) (BatchResult, error) {
	return e.ApplyBatch(new(Batch).Insert(s, p, o))
}

// Delete applies a single-triple deletion batch.
func (e *Engine) Delete(s, p, o Term) (BatchResult, error) {
	return e.ApplyBatch(new(Batch).Delete(s, p, o))
}

// DataVersion is the engine's current data epoch: 1 after the initial
// load, incremented by every applied batch and every resize. Compare with
// Result.DataVersion to measure read staleness under concurrent
// writes.
func (e *Engine) DataVersion() uint64 { return e.inner.DataVersion() }

// UpdateStats is a snapshot of the engine's update and plan
// revalidation counters (re-exported from the csq engine). Contexts is
// the number of execution contexts idle now, at most GOMAXPROCS, and
// ScratchBytes the bytes their scratch holds: each context keeps its
// lanes times the largest temporary plus the most outputs any execution
// through it needed — not what all of them needed together, and the
// same whichever lane ran which morsel.
type UpdateStats = csq.UpdateStats

// UpdateStats snapshots batches applied, cached plans revalidated
// after epoch changes, revalidations that switched plans, optimizer
// runs and the plan spaces they left resident, candidates compiled, and
// the statistics catalog's resident patterns and graph-pass fills.
func (e *Engine) UpdateStats() UpdateStats { return e.inner.UpdateStats() }

// CacheStats is a snapshot of the plan cache counters (re-exported
// from the plancache package).
type CacheStats = plancache.Stats

// CacheStats snapshots the engine's plan cache activity: hits, misses
// (= plans chosen and bound), evictions and resident entries. A miss is
// neither an optimizer run nor, mostly, a compile: the plan space a plan
// is chosen from belongs to the query's written shape and is enumerated
// once for all its constants, and each candidate chosen from it is
// compiled once per SELECT list and bound to every query that chooses
// it — UpdateStats().Enumerations and .Compiles count those runs.
func (e *Engine) CacheStats() CacheStats { return e.inner.CacheStats() }

// ResultCacheStats snapshots the result cache: hits and misses count
// probes, one per plan execution, Bytes is the resident weight of cached
// answers, EvictedBytes the cumulative weight dropped by the byte
// budget. All zero when Options.ResultCacheBytes is unset.
func (e *Engine) ResultCacheStats() CacheStats { return e.inner.ResultCacheStats() }

// Query parses and evaluates src, returning decoded results. Repeated
// query shapes hit the plan cache (see Prepare).
func (e *Engine) Query(src string) (*Result, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Run(q)
}

// Run evaluates an already-parsed query through the plan cache.
func (e *Engine) Run(q *Query) (*Result, error) {
	p, err := e.PrepareQuery(q)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// Prepared is a planned, reusable query: its plan is chosen and its
// compiled physical plan bound to it. A Prepared is immutable and may be
// Run any number of times, from any number of goroutines.
type Prepared struct {
	eng   *Engine
	inner *csq.Prepared
	// vars are the caller's SELECT names; for a cache hit they relabel
	// the cached plan's (alpha-equivalent) output columns.
	vars   []string
	cached bool
}

// Prepare parses and plans src once, so the plan can be executed many
// times. Planning consults the engine's concurrency-safe plan cache:
// queries differing only in variable names or triple-pattern order map
// to one canonical fingerprint and share a single plan, with concurrent
// first requests collapsed by singleflight. Below that, queries written
// alike up to their constants and SELECT list share one enumerated plan
// space, and those that also share a SELECT list share the candidates
// compiled from it: a new constant costs statistics, pricing and a bind,
// not an optimizer run or a compile.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.PrepareQuery(q)
}

// PrepareQuery is Prepare for an already-parsed query.
func (e *Engine) PrepareQuery(q *Query) (*Prepared, error) {
	p, hit, err := e.inner.PrepareCached(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		eng:    e,
		inner:  p,
		vars:   append([]string(nil), q.Select...),
		cached: hit,
	}, nil
}

// PlanCached reports whether this prepared plan came from the cache.
func (p *Prepared) PlanCached() bool { return p.cached }

// Run executes the prepared plan and decodes the results. The rows and
// simulated statistics are identical to an uncached Engine.Query of the
// same text, whatever the cache did. Every call builds its own row
// index and cell slab, also when the result cache served the ids; the
// cells are header copies of the dictionary's rendered terms (see
// Result.Rows).
//
// The answer leaves the execution once: the ids are decoded where the
// execution left them — the answer packed in the context's scratch, or
// a result-cache entry's packed rows — decoded as they are read and
// each rendered as it arrives, while the execution's context
// is still held, a large answer on all of its lanes, and nothing of that
// source survives the call except dictionary-owned strings.
func (p *Prepared) Run() (*Result, error) {
	var out *Result
	err := p.eng.inner.RunPlan(p.inner.Physical, func(r *physical.Result, rows physical.Rows) error {
		n, w := rows.Len(), rows.Width()
		if n > 0 && w != len(r.Schema) {
			return fmt.Errorf("cliquesquare: %s: result rows have %d cells, the SELECT list %d variables",
				p.inner.Query.Name, w, len(r.Schema))
		}
		out = &Result{
			Vars:          p.vars,
			Rows:          make([][]string, n),
			Jobs:          len(r.Jobs),
			MapOnly:       p.inner.Physical.MapOnly(),
			SimulatedTime: time.Duration(r.Time) * time.Microsecond,
			PlanHeight:    p.inner.Height,
			PlansExplored: p.inner.PlansExplored,
			PlanCached:    p.cached,
			DataVersion:   r.DataVersion,
		}
		// One allocation for the row index, one for all cells; a row's
		// number fixes its place in both, so ranges decode independently.
		index, slab, dict := out.Rows, make([]string, n*w), p.eng.dict
		if rows.Lanes() == 1 {
			decodeRows(dict, rows, index, slab, 0, n)
		} else {
			// Only here does a closure reach the heap: a small answer, or
			// one lane, decodes without allocating beyond index and slab.
			rows.EachRange(func(lo, hi int) { decodeRows(dict, rows, index, slab, lo, hi) })
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decodeRows renders rows lo..hi of a borrowed result into their cells
// of slab and points their index entries at them.
func decodeRows(dict *rdf.Dict, rows physical.Rows, index [][]string, slab []string, lo, hi int) {
	w := rows.Width()
	rows.Each(lo, hi, func(i int, row mapreduce.Row) {
		dec := slab[i*w : (i+1)*w : (i+1)*w]
		for j, id := range row {
			dec[j] = dict.Rendered(id)
		}
		index[i] = dec
	})
}

// Explain returns a human-readable description of the plan chosen for
// src: the logical operator tree and the MapReduce job layout. The plan
// is the one Query would run, chosen from the same plan space of src's
// shape, so explaining a query runs no optimizer of its own.
func (e *Engine) Explain(src string) (string, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return "", err
	}
	p, err := e.inner.Prepare(q)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("query: %s\nplans explored: %d (unique %d), chosen height %d\n\nlogical plan:\n%s\njobs (%s):\n%s",
		q, p.PlansExplored, p.UniquePlans, p.Height, p.Logical, p.Physical.JobLabel(), p.Physical.Describe()), nil
}

// Plans enumerates the logical plans a variant builds for src,
// returning their heights and canonical signatures (for plan-space
// exploration, mirroring Section 6.2), under the engine's own count
// budgets (csq.DefaultConfig).
func (e *Engine) Plans(src, method string) (heights []int, signatures []string, err error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	m := vargraph.MSC
	if method != "" {
		if m, err = vargraph.ParseMethod(method); err != nil {
			return nil, nil, err
		}
	}
	cfg := csq.DefaultConfig()
	res, err := core.Optimize(q, core.Options{Method: m, MaxPlans: cfg.MaxPlans, MaxCoversPerStep: cfg.MaxCoversPerStep})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range res.Unique {
		heights = append(heights, p.Height())
		signatures = append(signatures, p.Signature())
	}
	return heights, signatures, nil
}

// Compile exposes the physical compilation of a logical plan for
// advanced inspection.
func Compile(p *core.Plan) (*physical.Plan, error) { return physical.Compile(p) }

// DefaultConstants returns the simulator's cost constants.
func DefaultConstants() mapreduce.Constants { return mapreduce.DefaultConstants() }
