package physical

import (
	"runtime"
	"slices"

	"cliquesquare/internal/core"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// ExecContext carries cross-layer execution state threaded from the
// engine facade down to the workers: the worker lanes jobs run on, an
// optional per-job stats sink, and the reusable scratch (per-lane
// arenas, shuffle buffers, plan-shaped intermediate tables) the
// executor draws from. One ExecContext may serve many plan executions;
// the scratch amortizes allocations across them. An ExecContext serves
// one execution at a time.
//
// Ownership: every buffer that lives inside one execution is carved
// from the context's scratch (mapreduce.Bufs) once, at a counted size. A
// morsel's temporaries (scan and map-join blocks, a reduce group's
// inputs) come from its lane's bump arena, emptied when the
// morsel ends; the outputs (node and range outputs, intermediate
// relations, the final merge's marks) last until release, at the end of
// Executor.Run (also when its consumer panics), drops every header and
// resets the scratch; the shuffle's buckets and records last their job.
// The scratch keeps the lanes times the largest temporary plus the most
// the outputs held at once, over every execution through the context —
// a function of plan, data and lane count, never of the schedule. Each
// tuple is held once, and nothing that outlives the execution may alias
// the scratch. The final result is not copied out unless somebody asks:
// mergeParts sorts the last job's output in place and keeps only the
// merge's heads every mergeMark survivors, and Executor.Run lends that
// to its callback as a Rows, which merges again as it is read, valid
// until the callback returns. What does outlive the execution — the
// rows Execute returns (Rows.Materialise) and a result-cache entry's
// answer (Rows.pack) — is copied into exactly sized arrays of its own.
// A result-cache hit reads none of this scratch: it never prepares the
// context.
//
// The lane count is fixed by NewExecContext. A context owns no
// goroutine: each phase of a job starts its helper lanes and waits for
// them (mapreduce.Pool), so an idle context is memory only and needs no
// closing. A zero-value context — what Executor.Execute uses when handed
// none — is one inline lane.
type ExecContext struct {
	// StatsSink, if non-nil, receives each job's stats as the job
	// completes (before the next job starts).
	StatsSink func(mapreduce.JobStats)

	// pool is the context's worker lanes; nil is one inline lane.
	pool *mapreduce.Pool

	// bufs is the scratch every execution through the context carves
	// its buffers from: one bump arena per lane, then the outputs.
	bufs mapreduce.Bufs

	// arenas is per-lane scratch: morsels of one node may run on any
	// lane, so mutable evaluation state is keyed by the lane a morsel
	// runs on, not by node. A lane runs one morsel at a time, so its
	// arena needs no locking.
	arenas []*arena

	// shuffle is the reusable mapreduce shuffle scratch handed to the
	// cluster for every job of every execution this context serves.
	shuffle mapreduce.Scratch

	// byID and interm are the executor's plan-shaped scratch: infos
	// dense by ID and interm[id][node][rng], a reduce join's output in
	// one key range of one node; in range order, a node's ranges are
	// its relation.
	byID   []*Info
	interm [][][]mapreduce.Block

	// morsels is the per-node map-morsel table of the current job,
	// built sequentially before the job runs.
	morsels [][]mapMorsel

	// The job in flight (jobX runs job jobLevel of jobPlan), the two job
	// forms whose callbacks read it, bound once (prepare), and what
	// Executor hands out: one execution's executor and cluster clock.
	jobX                 *Executor
	jobPlan              *Plan
	jobLevel             int
	mapOnlyJob, levelJob mapreduce.Job
	x                    Executor
	cluster              mapreduce.Cluster

	// mergeParts' product: the parts merged (the last job's per-node
	// output, each sorted in place) and the merge's heads at every
	// mergeMark-th survivor, carved from the scratch — what a merged Rows
	// reads. sortFn is sortPart bound once.
	sortParts  []mapreduce.Block
	mergeMarks []int32
	sortFn     func(part, lane int)
}

// mapMorsel is one schedulable unit of a reduce-level job's map phase:
// one child of one reduce join on one node — per partition file for
// scans, per key range for shufflers, whole-subtree for map joins.
type mapMorsel struct {
	rj    *Info    // the reduce join being fed
	child *core.Op // the child producing records
	ci    *Info    // child's classification (nil for per-file scans)
	tag   int      // child index within rj (the emitted records' tag)
	file  string   // partition file for per-file scan morsels
	rng   int      // key range of the re-read output for shuffler morsels
}

// NewExecContext returns a context running jobs on the given number of
// lanes (0 or less means GOMAXPROCS). It builds memory only.
func NewExecContext(lanes int) *ExecContext {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	return &ExecContext{pool: mapreduce.NewPool(lanes)}
}

// lanes is the number of worker lanes executions through this context
// run on.
func (c *ExecContext) lanes() int { return c.pool.Lanes() }

// Executor returns the context's own executor, valid until the next
// call, on a fresh cluster clock priced with k (its job log keeps its
// array), for one execution; the caller sets Part, Dict, View and
// ResultCache.
func (c *ExecContext) Executor(k mapreduce.Constants) *Executor {
	c.cluster = mapreduce.Cluster{C: k, Jobs: c.cluster.Jobs[:0]}
	c.x = Executor{Cluster: &c.cluster, Ctx: c}
	return &c.x
}

// prepare readies the context for one execution of pp: an arena per
// lane, the infos dense by ID, and every reduce join's blocks emptied
// for nodes × lanes key ranges — all pre-sized, so concurrent morsel
// workers index already-built tables without synchronization. Every
// buffer is carved from the context's scratch as it is filled.
func (c *ExecContext) prepare(pp *Plan, nodes int) {
	if c.levelJob.MapMorsel == nil {
		c.mapOnlyJob = mapreduce.Job{MapMorsel: c.mapOnlyMorsel}
		c.levelJob = mapreduce.Job{MapMorsels: c.levelMorsels, MapMorsel: c.levelMapMorsel, ReduceRange: c.levelReduce, ReduceSize: c.levelSize}
	}
	for len(c.arenas) < c.lanes() {
		c.arenas = append(c.arenas, &arena{mem: c.bufs.Lane(len(c.arenas))})
	}
	c.shuffle.Bufs = &c.bufs
	c.byID = append(c.byID[:0], make([]*Info, len(pp.Infos))...)
	for len(c.interm) < len(pp.Infos) {
		c.interm = append(c.interm, nil)
	}
	for _, in := range pp.Infos {
		c.byID[in.ID] = in
		if in.Kind == KindReduceJoin {
			per := slices.Grow(c.interm[in.ID][:0], nodes)[:nodes]
			for node := range per {
				per[node] = mapreduce.ResetBlocks(per[node], c.lanes(), &c.bufs)
			}
			c.interm[in.ID] = per
		}
	}
}

// release drops every header into the scratch the execution carved and
// resets it.
func (c *ExecContext) release() {
	c.jobX, c.jobPlan = nil, nil
	c.shuffle.Release()
	for _, a := range c.arenas {
		a.release()
	}
	for _, per := range c.interm {
		for node := range per {
			per[node] = mapreduce.ResetBlocks(per[node], 0, nil)
		}
	}
	c.sortParts, c.mergeMarks = nil, nil
	c.bufs.Reset()
}

// ScratchBytes reports the bytes the context's scratch holds.
func (c *ExecContext) ScratchBytes() int64 { return c.bufs.Bytes() }

// arena is one worker lane's reusable scratch for local evaluation: the
// headers of the blocks scans and map joins write to, the cursors and
// column buffers naryJoin and the shuffle emitters need per call, scan
// filter scratch and reduce-group inputs. Blocks carve their bytes from
// mem, emptied when the morsel ends: nothing in them may be used after
// that, nor their room reused. A join builds nothing there: it merges
// its inputs where they lie.
type arena struct {
	mem *mapreduce.Arena // the lane's arena in the context's scratch

	// blocks is the morsel-scoped block stack: a morsel's local
	// evaluation takes one block per relation it builds (nextBlock), and
	// the next morsel on the lane takes the same blocks again.
	blocks []*mapreduce.Block
	used   int

	at, lo, hi []int // per join child: the current row's cell offset, the current key's run
	emitCols   []int // shuffle-key column indexes, hoisted per relation

	// sorts counts the join children that arrived out of key order
	// (sortOn).
	sorts int

	// joinPlans memoizes the schema-derived part of naryJoin (output
	// column sources, residual checks) keyed on the children's schema
	// and output-attrs slice identities.
	joinPlans []*joinPlan

	// scan filter scratch (Executor.scanFiles).
	scanConsts  []constCheck
	scanRepeats [][2]rdf.Pos
	scanVarPos  []rdf.Pos

	// scan file-name memo: partition-file resolution is pure per
	// (pattern, replica position) within one pinned view, so the
	// resolved name lists are cached until the view changes.
	fileView  *partition.View
	fileNames map[fileKey][]string

	// per-group join inputs of the reduce phase (groupRels) and a map
	// join's inputs (joinInputs). A lane runs a map morsel or a reduce
	// range, never both at once.
	groupRels  []relation
	joinInputs []relation
}

// nextBlock hands out the morsel's next block, empty, for rows of the
// given width, carving from the lane's arena. The block is valid until
// the lane's morsel ends.
func (a *arena) nextBlock(width int) *mapreduce.Block {
	if a.used == len(a.blocks) {
		a.blocks = append(a.blocks, new(mapreduce.Block))
	}
	b := a.blocks[a.used]
	a.used++
	*b = mapreduce.NewBlock(a.mem)
	b.Width = width
	return b
}

// resetBlocks starts a new morsel: every block header is up for reuse.
func (a *arena) resetBlocks() { a.used = 0 }

// release drops every header into the lane's arena.
func (a *arena) release() {
	for _, b := range a.blocks {
		*b = mapreduce.Block{}
	}
	for i := range a.groupRels {
		a.groupRels[i].Cells = nil
	}
	clear(a.joinInputs[:cap(a.joinInputs)])
}

// fileKey identifies one scan's file resolution: the pattern it matches
// plus the replica position it reads.
type fileKey struct {
	tp  sparql.TriplePattern
	pos rdf.Pos
}

// fileNamesCap bounds the per-arena file-name memo (shapes per pooled
// context are few; the bound only guards pathological plan churn).
const fileNamesCap = 1024

// groupInputs returns the group's records split by input — rj's
// children — counted in their blocks' N; with fill, their cells copied
// out of the shuffle buffers into blocks carved from the lane's arena,
// each once, at its counted size.
func (a *arena) groupInputs(g mapreduce.Group, rj *Info, fill bool) []relation {
	children := rj.Op.Children
	for len(a.groupRels) < len(children) {
		a.groupRels = append(a.groupRels, relation{Block: mapreduce.NewBlock(a.mem)})
	}
	rels := a.groupRels[:len(children)]
	for i, ch := range children {
		rels[i].schema, rels[i].Width, rels[i].N, rels[i].Cells = ch.Attrs, len(ch.Attrs), 0, nil
	}
	for i := 0; i < g.Len(); i++ {
		tag, _ := g.Record(i)
		rels[tag].N++
	}
	if fill {
		for i := range rels {
			rels[i].Reserve(rels[i].N, rels[i].Width)
			rels[i].N = 0
		}
		for i := 0; i < g.Len(); i++ {
			tag, row := g.Record(i)
			rels[tag].Append(row)
		}
	}
	return rels
}

// joinPlan is the memoized schema-derived scaffolding of one join
// shape. Child schema and output-attrs slices come from the immutable
// physical plan (operator Attrs), so pointer identity implies content
// equality and the derived slices can be shared by every join of that
// shape. Output columns are resolved directly against the requested
// attrs, fusing the post-join conform/projection into the join's
// output write.
type joinPlan struct {
	schemas  [][]string // the children's schema slices (identity key)
	keys     []string   // the join attributes slice (identity key)
	attrs    []string   // the output schema slice (identity key)
	srcChild []int      // per output attr: providing child...
	srcCol   []int      // ...and column within it
	keyCols  []int      // per child: the column of the merged attribute
	// checks are the residual equalities over the shared attributes but
	// the merged one: the further join attributes' keyChecks first, then
	// the others'.
	checks    []eqCheck
	keyChecks int
}

// joinPlanCap bounds the memo; reaching it resets the memo (shapes per
// plan are few — the bound only guards pathological pooled reuse).
const joinPlanCap = 64

// sameSchema reports whether two schema slices are the same slice.
func sameSchema(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// joinPlanFor returns the memoized join scaffolding for the children's
// schema combination, join attributes and output attrs, computing and
// caching it on first sight.
func (a *arena) joinPlanFor(children []relation, joinAttrs, attrs []string) *joinPlan {
outer:
	for _, jp := range a.joinPlans {
		if len(jp.schemas) != len(children) || !sameSchema(jp.attrs, attrs) || !sameSchema(jp.keys, joinAttrs) {
			continue
		}
		for i := range children {
			if !sameSchema(jp.schemas[i], children[i].schema) {
				continue outer
			}
		}
		return jp
	}
	jp := &joinPlan{
		schemas: make([][]string, len(children)),
		keys:    joinAttrs,
		attrs:   attrs,
	}
	for i := range children {
		jp.schemas[i] = children[i].schema
	}
	// Residual checks cover every attribute but the merged one shared by
	// two or more children, whether or not it survives into attrs.
	if len(joinAttrs) > 0 {
		jp.keyCols = make([]int, len(children))
		for i := range children {
			jp.keyCols[i] = children[i].col(joinAttrs[0])
		}
		rest := joinAttrs[1:]
		kChild, kCol := columnSources(rest, children)
		jp.checks = residualChecks(rest, children, kChild, kCol)
		jp.keyChecks = len(jp.checks)
	}
	union := slices.DeleteFunc(unionSchema(children), func(s string) bool { return slices.Contains(joinAttrs, s) })
	uChild, uCol := columnSources(union, children)
	jp.checks = append(jp.checks, residualChecks(union, children, uChild, uCol)...)
	jp.srcChild, jp.srcCol = columnSources(attrs, children)
	if len(a.joinPlans) >= joinPlanCap {
		a.joinPlans = a.joinPlans[:0]
	}
	a.joinPlans = append(a.joinPlans, jp)
	return jp
}

// grow sizes the per-child cursors for a join of nc inputs.
func (a *arena) grow(nc int) {
	for len(a.at) < nc {
		a.at, a.lo, a.hi = append(a.at, 0), append(a.lo, 0), append(a.hi, 0)
	}
}
