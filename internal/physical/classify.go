// Package physical translates CliqueSquare logical plans into physical
// MapReduce plans (Section 5.2), groups physical operators into jobs
// (Section 5.3) and executes them on the mapreduce simulator over data
// partitioned per Section 5.1.
//
// Physical operators follow the paper: Map Scan (MS), Filter (F), Map
// Join (MJ, a co-located first-level join), Map Shuffler (MF, the
// repartition phase re-reading a previous job's output), Reduce Join
// (RJ) and Project (π). Jobs are formed by reduce-join level: every
// reduce join whose deepest reduce-join descendant chain has length ℓ
// runs in job ℓ, so independent joins of the same level share one job —
// the mechanism that lets flat plans run in few jobs.
//
// Compile once, run in one object. CompileWith classifies the operators,
// lays out the jobs and works out everything about running the plan
// that the plan alone decides: a dense operator table, each join's
// merge (column sources and residual checks) for its one output list,
// each scan's replica, repeated-variable checks and extraction
// positions, each reduce join's shuffle-key columns. None of it names a
// constant, so every Bind of the plan to a query of its shape shares it;
// Bind adds the query's job names. An ExecContext runs a plan on the
// epoch it is given (Run) and works out only what the epoch and the
// dictionary decide: the constants' ids, once per scan, each job's map
// morsels, and the partition files a scan reads.
//
// Execution is flat from scan to result: a relation is a
// mapreduce.Block (width, row count, one []TermID) whose columns are its
// operator's attributes; scans copy matching cells from the partition
// files' keys into blocks, joins merge their inputs and append output
// cells, projections and shuffle emission read and write cells. Every
// such block belongs to the ExecContext (its per-lane arenas,
// per-(node, range) intermediate table and shuffle scratch) and is
// recycled by the context's next execution; an intermediate relation
// exists only to feed the next job of the same execution. The result is
// flat to the end as well: each unit of the last job sorts its rows and
// packs them, one merge packs the parts into the answer, and
// ExecContext.Run lends it to its caller as a Rows decoded as it is
// read, on the context's lanes. Only what outlives an execution is
// copied into arrays of its own: a result-cache entry, which keeps a
// whole answer (the packed rows and every job's record, keyed by
// Plan.Key), and the rows of
// Rows.Materialise, for callers that keep ids — the only place a []Row
// is built.
package physical

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"

	"cliquesquare/internal/core"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
)

// Kind classifies a physical operator derived from a logical join.
type Kind uint8

const (
	// KindScan is a map scan (a logical Match).
	KindScan Kind = iota
	// KindMapJoin is a co-located join evaluated map-side: all its
	// inputs are scans, co-partitioned on the join attribute.
	KindMapJoin
	// KindReduceJoin is a repartition join evaluated reduce-side.
	KindReduceJoin
)

// String returns the physical operator abbreviation.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "MS"
	case KindMapJoin:
		return "MJ"
	case KindReduceJoin:
		return "RJ"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Info is the physical classification of one logical operator and, for
// a join, what running it needs that the plan alone decides.
type Info struct {
	Op   *core.Op
	Kind Kind
	ID   int
	// Level is the reduce-join level (job index, 1-based) for reduce
	// joins; 0 for scans and map joins.
	Level int

	// A join's inputs' infos, in order; its merge, for its one output
	// list; per input, a scan input's set-up (nil for a join input); and,
	// for a reduce join, per input the columns its shuffle key is read
	// from. Scans have none of them.
	children    []*Info
	join        *joinPlan
	scans       []*scanPlan
	shuffleCols [][]int
}

// Plan is a compiled physical plan: the logical plan, the physical
// classification of every operator, the job layout, and the schedule
// derived from them once — each join's column sources and residual
// checks, each scan's replica, filters and extraction positions, the job
// names. None of it names a constant: constants enter at scan time,
// resolved once per execution through the dictionary (ExecContext.Run).
//
// A Plan is immutable once CompileWith (or Bind) returns: execution
// never writes to the plan, its Infos, or the logical operators beneath
// it, so one compiled Plan — and everything its binds share with it —
// may be executed by any number of goroutines simultaneously. All
// per-execution state lives in the ExecContext running it. The
// constants the plan runs with are read from Logical.Query only.
type Plan struct {
	Logical *core.Plan
	// Root is the operator under the final projection.
	Root *core.Op
	// Infos classifies each logical operator (match or join) below the
	// projection, dense by ID; Infos[0] is Root's.
	Infos []*Info
	// Levels[ℓ-1] lists the reduce joins of job ℓ in a deterministic
	// order. Empty iff the plan is map-only.
	Levels [][]*Info

	// rootScan is the set-up of a plan that is one scan (nil otherwise);
	// jobs names each job in the cluster's log, rendered from the query's
	// Name.
	rootScan *scanPlan
	jobs     []string

	// key is Key's rendering, once some caller asked for it: the tail of
	// the result-cache key at the data epoch last served, once one was.
	key atomic.Pointer[renderedKey]
}

// renderedKey is a plan's Key as the tail of s: s is the result-cache
// key at data epoch version (rescache.Key) when off > 0, the Key alone
// before any epoch was served.
type renderedKey struct {
	s       string
	off     int
	version uint64
}

// Key canonically identifies the plan's whole computation for the
// result cache: two plans with equal keys over the same data epoch
// produce byte-identical rows and per-job counts. It is rendered when
// first asked for — by the result cache, when one serves the plan — and
// kept; a plan nobody asks costs nothing for it. Key is safe for
// concurrent use: every caller gets the same bytes.
func (pp *Plan) Key() string {
	if k := pp.key.Load(); k != nil {
		return k.s[k.off:]
	}
	pp.key.CompareAndSwap(nil, &renderedKey{s: pp.renderKey()})
	k := pp.key.Load()
	return k.s[k.off:]
}

// cacheKey is the plan's result-cache key at data epoch version, built
// only when the epoch served moves — so a probe at an unchanged epoch
// copies nothing — and holding Key as its tail, so the plan keeps one
// copy of its key's bytes.
func (pp *Plan) cacheKey(version uint64) string {
	if k := pp.key.Load(); k != nil && k.off > 0 && k.version == version {
		return k.s
	}
	key := pp.Key()
	s := rescache.Key(version, key)
	pp.key.Store(&renderedKey{s: s, off: len(s) - len(key), version: version})
	return s
}

// CoLocator decides whether a first-level join's scan inputs are
// co-partitioned (so the join may run map-side). nil means always
// co-locatable, which holds under the paper's three-replica
// partitioning for any join variable.
type CoLocator func(join *core.Op, q *sparql.Query) bool

// SubjectOnlyCoLocator models single-replica subject-hash partitioning
// (the Co-Hadoop-style baseline): a first-level join is co-located only
// if some join attribute is the subject variable of every input
// pattern.
func SubjectOnlyCoLocator() CoLocator {
	return func(join *core.Op, q *sparql.Query) bool {
		for _, v := range join.JoinAttrs {
			ok := true
			for _, c := range join.Children {
				tp := q.Patterns[c.Pattern]
				if !tp.S.IsVar || tp.S.Var != v {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
}

// Compile classifies p's operators and lays out jobs. Per
// Section 5.2: a join whose parents (inputs) are all match operators
// becomes a map join; every other join becomes a reduce join. Reduce
// joins at the same level share a MapReduce job.
func Compile(p *core.Plan) (*Plan, error) { return CompileWith(p, nil) }

// ShuffleWidthError is returned by CompileWith for a reduce join the
// shuffle cannot carry: a shuffled run's header tags the join input its
// tuples belong to, and counts their key cells, in 16 bits each
// (mapreduce.MaxInputs, mapreduce.MaxKeyCells).
type ShuffleWidthError struct {
	// Inputs and KeyWidth are the join's input count and join
	// attribute count.
	Inputs, KeyWidth int
}

func (e *ShuffleWidthError) Error() string {
	return fmt.Sprintf("physical: a reduce join of %d inputs on %d attributes exceeds the shuffle's %d inputs and %d key cells",
		e.Inputs, e.KeyWidth, mapreduce.MaxInputs, mapreduce.MaxKeyCells)
}

// CompileWith is Compile under an explicit co-location capability
// (partitioning-scheme dependent): operator kinds, reduce-join levels
// and with them the job count, then the schedule every execution runs —
// each join's merge for its output list (the SELECT list for the root),
// each scan input's replica, filters and extraction positions, each
// reduce join's shuffle-key columns, the job names. Its result is the
// one form of Plan the executor accepts — as is every Bind of it; a plan
// whose shuffle it could not carry fails with a *ShuffleWidthError.
func CompileWith(p *core.Plan, canColocate CoLocator) (*Plan, error) {
	if p.Root.Kind != core.OpProject || len(p.Root.Children) != 1 {
		return nil, fmt.Errorf("physical: plan root must be a projection over one operator")
	}
	q := p.Query
	pp := &Plan{Logical: p, Root: p.Root.Children[0]}
	infos := make(map[*core.Op]*Info, 2*len(q.Patterns))
	// reduces collects the reduce joins children-first, each once: the
	// deterministic order Levels lists them in.
	var reduces []*Info
	var walk func(op *core.Op) (*Info, error)
	walk = func(op *core.Op) (*Info, error) {
		if in, ok := infos[op]; ok {
			return in, nil
		}
		in := &Info{Op: op, ID: len(pp.Infos)}
		infos[op] = in
		pp.Infos = append(pp.Infos, in)
		switch op.Kind {
		case core.OpMatch:
			in.Kind = KindScan
		case core.OpJoin:
			if len(op.JoinAttrs) == 0 {
				return nil, fmt.Errorf("physical: join with no join attributes")
			}
			allScans := true
			maxLevel := 0
			in.children = make([]*Info, len(op.Children))
			for i, c := range op.Children {
				ci, err := walk(c)
				if err != nil {
					return nil, err
				}
				in.children[i] = ci
				if ci.Kind != KindScan {
					allScans = false
				}
				if ci.Level > maxLevel {
					maxLevel = ci.Level
				}
			}
			if allScans && (canColocate == nil || canColocate(op, q)) {
				in.Kind = KindMapJoin
			} else {
				in.Kind = KindReduceJoin
				in.Level = maxLevel + 1
				reduces = append(reduces, in)
			}
		default:
			return nil, fmt.Errorf("physical: unexpected operator %v below the projection", op.Kind)
		}
		return in, nil
	}
	ri, err := walk(pp.Root)
	if err != nil {
		return nil, err
	}
	if ri.Kind == KindReduceJoin {
		pp.Levels = make([][]*Info, ri.Level)
		for _, in := range reduces {
			pp.Levels[in.Level-1] = append(pp.Levels[in.Level-1], in)
		}
	}
	for _, level := range pp.Levels {
		for _, in := range level {
			if n, k := len(in.Op.Children), len(in.Op.JoinAttrs); n > mapreduce.MaxInputs || k > mapreduce.MaxKeyCells {
				return nil, &ShuffleWidthError{Inputs: n, KeyWidth: k}
			}
		}
	}

	// The schedule. A scan reads the replica its parent join's first
	// attribute places, so that co-located joins see co-partitioned
	// inputs; the root scan of a one-scan plan has no parent and writes
	// the SELECT list.
	if ri.Kind == KindScan {
		pp.rootScan = newScanPlan(ri, q, "", p.Root.Attrs)
	}
	for _, in := range pp.Infos {
		if in.Kind == KindScan {
			continue
		}
		op, attrs := in.Op, in.Op.Attrs
		if in == ri {
			attrs = p.Root.Attrs
		}
		schemas := make([][]string, len(op.Children))
		in.scans = make([]*scanPlan, len(op.Children))
		for i, c := range op.Children {
			schemas[i] = c.Attrs
			if in.children[i].Kind == KindScan {
				in.scans[i] = newScanPlan(in.children[i], q, op.JoinAttrs[0], c.Attrs)
			}
		}
		in.join = newJoinPlan(schemas, op.JoinAttrs, attrs)
		if in.Kind == KindReduceJoin {
			in.shuffleCols = make([][]int, len(op.Children))
			for i, c := range op.Children {
				for _, a := range op.JoinAttrs {
					in.shuffleCols[i] = append(in.shuffleCols[i], slices.Index(c.Attrs, a))
				}
			}
		}
	}
	pp.jobs = jobNames(q.Name, pp)
	return pp, nil
}

// jobNames names pp's jobs in the cluster's log for a query named name.
func jobNames(name string, pp *Plan) []string {
	if pp.MapOnly() {
		return []string{name + "-map-only"}
	}
	names := make([]string, len(pp.Levels))
	for l := range names {
		names[l] = name + "-job" + strconv.Itoa(l+1)
	}
	return names
}

// Bind returns pp's plan for q, a query of the written shape
// (core.WrittenShape) and SELECT list of the one pp was compiled for,
// whatever its constants: a new header whose logical plan is q's, whose
// jobs are named for q and whose Key, when asked for, is rendered for
// q. The operator DAG, Infos, Levels and the schedule are pp's, shared
// read-only — none of them names a constant (Sections 3-4: a plan is a
// function of the variable graph), so they are what a compile of q
// would build. Constants enter only where an execution resolves q's
// patterns, at scan time, and in the key.
func (pp *Plan) Bind(q *sparql.Query) *Plan {
	b := &Plan{Logical: &core.Plan{Query: q, Root: pp.Logical.Root}, Root: pp.Root, Infos: pp.Infos, Levels: pp.Levels,
		rootScan: pp.rootScan, jobs: pp.jobs}
	if q.Name != pp.Logical.Query.Name {
		b.jobs = jobNames(q.Name, pp)
	}
	return b
}

// renderKey renders Key for the plan's logical query in one pass. The
// key must pin down everything besides the data epoch (which the result
// cache layers in) that shapes the rows and every job's recorded
// counts: per job level,
// the content of its reduce joins (their whole subtrees, children in
// order, patterns by their terms) and their plan-global IDs — shuffle
// routing and group order derive from the ID — or, for a map-only
// plan, the content of its root; then the SELECT list the final
// projection targets. Nothing is memoized on the operators: they may be
// shared by the plans of queries that differ in their constants.
func (pp *Plan) renderKey() string {
	q := pp.Logical.Query
	var b []byte
	if pp.MapOnly() {
		b = appendContent(append(b, "MO|"...), pp.Root, q)
	}
	for l, infos := range pp.Levels {
		if l > 0 {
			b = append(b, '\n')
		}
		b = strconv.AppendInt(append(b, 'L'), int64(l+1), 10)
		for _, in := range infos {
			b = strconv.AppendInt(append(b, '|'), int64(in.ID), 10)
			b = appendContent(append(b, ':'), in.Op, q)
		}
	}
	b = appendJoined(append(b, "|S:"...), q.Select)
	// b is never written again: the key takes its bytes, as
	// strings.Builder hands over its buffer, rather than a copy.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendContent appends the content of the subplan under op, a match or
// a join of q's plan: a match as its pattern's terms and its attributes,
// a join as its join, residual and output attributes and its inputs in
// order — the physical layer derives shuffle routing from input order.
func appendContent(b []byte, op *core.Op, q *sparql.Query) []byte {
	if op.Kind == core.OpMatch {
		tp := &q.Patterns[op.Pattern]
		b = tp.S.Append(append(b, "M("...))
		b = tp.P.Append(append(b, ' '))
		b = tp.O.Append(append(b, ' '))
		return append(appendJoined(append(b, ")["...), op.Attrs), ']')
	}
	b = appendJoined(append(b, "J["...), op.JoinAttrs)
	b = appendJoined(append(b, "]["...), op.Residual)
	b = appendJoined(append(b, "]["...), op.Attrs)
	b = append(b, "]("...)
	for i, c := range op.Children {
		if i > 0 {
			b = append(b, ';')
		}
		b = appendContent(b, c, q)
	}
	return append(b, ')')
}

// appendJoined appends ss separated by commas.
func appendJoined(b []byte, ss []string) []byte {
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return b
}

// MapOnly reports whether the whole plan evaluates in a single map-only
// job (a PWOC plan for this partitioning).
func (pp *Plan) MapOnly() bool { return len(pp.Levels) == 0 }

// NumJobs is the number of MapReduce jobs the plan needs.
func (pp *Plan) NumJobs() int {
	if pp.MapOnly() {
		return 1
	}
	return len(pp.Levels)
}

// JobLabel renders the job count in the paper's figure notation: "M"
// for a map-only plan, otherwise the number of jobs.
func (pp *Plan) JobLabel() string {
	if pp.MapOnly() {
		return "M"
	}
	return fmt.Sprintf("%d", len(pp.Levels))
}

// Describe renders the job layout, one line per job, in the spirit of
// Figure 15.
func (pp *Plan) Describe() string {
	var b strings.Builder
	if pp.MapOnly() {
		fmt.Fprintf(&b, "job 1 (map-only): %s\n", pp.describeSubtree(pp.Root))
		return b.String()
	}
	for l, infos := range pp.Levels {
		fmt.Fprintf(&b, "job %d:", l+1)
		for _, in := range infos {
			fmt.Fprintf(&b, " RJ_%s(", strings.Join(in.Op.JoinAttrs, ","))
			for i, c := range in.Op.Children {
				if i > 0 {
					b.WriteString("; ")
				}
				if ci := in.children[i]; ci.Kind == KindReduceJoin {
					fmt.Fprintf(&b, "MF[rj%d]", ci.ID)
				} else {
					b.WriteString(pp.describeSubtree(c))
				}
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (pp *Plan) describeSubtree(op *core.Op) string {
	switch op.Kind {
	case core.OpMatch:
		return fmt.Sprintf("MS[t%d]", op.Pattern+1)
	case core.OpJoin:
		parts := make([]string, len(op.Children))
		for i, c := range op.Children {
			parts[i] = pp.describeSubtree(c)
		}
		return fmt.Sprintf("MJ_%s(%s)", strings.Join(op.JoinAttrs, ","), strings.Join(parts, "; "))
	}
	return op.Kind.String()
}
