package physical

import (
	"runtime"

	"cliquesquare/internal/core"
	"cliquesquare/internal/dstore"
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
// Ownership: every block of cells that lives inside one execution —
// scan and map-join outputs (arena blocks), reduce-group inputs, the
// per-(node, range) intermediate relations, the shuffle's cell buffers
// and the jobs' per-node outputs — belongs to the context and is
// recycled, in place, by the next execution it serves. Nothing that
// outlives the execution may alias it. The final result is not copied
// out at all unless somebody asks: mergeParts leaves it as an order
// over the last job's output, both context scratch, and Executor.Run
// lends that to its callback as a Rows, valid until the callback
// returns. What does outlive the execution — the rows Execute returns
// (Rows.Materialise) and a result-cache entry's answer (Rows.block) —
// is copied into exactly sized blocks of its own. A result-cache hit
// reads none of this scratch: it never prepares the context.
//
// The lane count is fixed by NewExecContext, which spawns the context's
// persistent mapreduce worker pool (parked between jobs); the owner
// must call Close to reap the workers. A zero-value context — what
// Executor.Execute uses when handed none — is one inline lane, as is a
// closed one; neither holds goroutines.
type ExecContext struct {
	// StatsSink, if non-nil, receives each job's stats as the job
	// completes (before the next job starts).
	StatsSink func(mapreduce.JobStats)

	// pool is the context's worker lanes; nil is one inline lane.
	pool *mapreduce.Pool

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

	// mergeParts' scratch and product: the parts being merged (the last
	// job's per-node output), their offsets, merge heads and head
	// prefixes, each part's sorted row numbers, and the merged order of
	// the survivors — which, with sortParts and sortOffs, is what a
	// merged Rows reads. sortFn is sortPart bound once.
	sortParts           []mapreduce.Block
	sortOffs, sortHeads []int
	sortPrefix          []uint64
	sortIdx, sortOrder  []int32
	sortFn              func(part, lane int)
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
// lanes (0 or less means GOMAXPROCS); callers must Close it.
func NewExecContext(lanes int) *ExecContext {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	return &ExecContext{pool: mapreduce.NewPool(lanes)}
}

// lanes is the number of worker lanes executions through this context
// run on.
func (c *ExecContext) lanes() int { return c.pool.Lanes() }

// Close reaps the context's worker pool. The context must be idle;
// afterwards it is one inline lane. Closing twice is a no-op.
func (c *ExecContext) Close() {
	c.pool.Close()
	c.pool = nil
}

// prepare readies the context for one execution of pp: an arena per
// lane, the infos dense by ID, and every reduce join's blocks emptied
// for nodes × lanes key ranges — all pre-sized, so concurrent morsel
// workers index already-built tables without synchronization. Backing
// arrays are kept across executions.
func (c *ExecContext) prepare(pp *Plan, nodes int) {
	for len(c.arenas) < c.lanes() {
		c.arenas = append(c.arenas, &arena{})
	}
	c.byID = append(c.byID[:0], make([]*Info, len(pp.Infos))...)
	for len(c.interm) < len(pp.Infos) {
		c.interm = append(c.interm, nil)
	}
	for _, in := range pp.Infos {
		c.byID[in.ID] = in
		if in.Kind == KindReduceJoin {
			per := mapreduce.ResetBufs(c.interm[in.ID], nodes)
			for node := range per {
				per[node] = mapreduce.ResetBlocks(per[node], c.lanes())
			}
			c.interm[in.ID] = per
		}
	}
}

// arena is one worker lane's reusable scratch for local evaluation:
// the cell blocks scans and map joins write their output relations to,
// the join tables, cursor slices and column buffers naryJoin and the
// shuffle emitters need per call, scan filter scratch and reduce-group
// input relations. Everything is reused across calls, morsels and
// executions; nothing in it may be referenced once the execution that
// filled it has returned.
type arena struct {
	// blocks is the morsel-scoped block stack: a morsel's local
	// evaluation takes one block per relation it builds (nextBlock), and
	// the next morsel on the lane takes the same blocks again.
	blocks []*mapreduce.Block
	used   int

	tables   []*joinTable
	colIdx   [][]int
	lists    [][]int32 // per join child: the probed row numbers
	at       []int     // per join child: cell offset of the current row
	emitCols []int     // shuffle-key column indexes, hoisted per relation

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

	// per-group join inputs of the reduce phase (groupRels), a map
	// join's inputs (joinInputs) and the hoisted final-projection columns
	// of a map-only job (projCols). A lane runs a map morsel or a reduce
	// range, never both at once.
	groupRels  []relation
	joinInputs []relation
	projCols   []int
}

// nextBlock hands out the morsel's next block, emptied for rows of the
// given width. The block is valid until the lane's next morsel starts
// (resetBlocks).
func (a *arena) nextBlock(width int) *mapreduce.Block {
	if a.used == len(a.blocks) {
		a.blocks = append(a.blocks, &mapreduce.Block{})
	}
	b := a.blocks[a.used]
	a.used++
	b.Reset(width)
	return b
}

// resetBlocks starts a new morsel: every block is up for reuse.
func (a *arena) resetBlocks() { a.used = 0 }

// fileKey identifies one scan's file resolution: the pattern it matches
// plus the replica position it reads.
type fileKey struct {
	tp  sparql.TriplePattern
	pos rdf.Pos
}

// fileNamesCap bounds the per-arena file-name memo (shapes per pooled
// context are few; the bound only guards pathological plan churn).
const fileNamesCap = 1024

// scanFile is one file's planned contribution to a scan: either an
// index-probed candidate selection vector or a full slab sweep.
type scanFile struct {
	f      *dstore.File
	cand   []int32
	useIdx bool
}

// relBuf returns nc reusable group-input relations (their blocks keep
// their backing arrays; the caller resets schema and block).
func (a *arena) relBuf(nc int) []relation {
	for len(a.groupRels) < nc {
		a.groupRels = append(a.groupRels, relation{})
	}
	return a.groupRels[:nc]
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
	attrs    []string   // the output schema slice (identity key)
	srcChild []int      // per output attr: providing child...
	srcCol   []int      // ...and column within it
	checks   []eqCheck  // residual equality over all shared attrs
}

// joinPlanCap bounds the memo; reaching it resets the memo (shapes per
// plan are few — the bound only guards pathological pooled reuse).
const joinPlanCap = 64

// sameSchema reports whether two schema slices are the same slice.
func sameSchema(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// joinPlanFor returns the memoized join scaffolding for the children's
// schema combination and output attrs, computing and caching it on
// first sight.
func (a *arena) joinPlanFor(children []relation, attrs []string) *joinPlan {
outer:
	for _, jp := range a.joinPlans {
		if len(jp.schemas) != len(children) || !sameSchema(jp.attrs, attrs) {
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
		attrs:   attrs,
	}
	for i := range children {
		jp.schemas[i] = children[i].schema
	}
	// Residual checks cover every attribute shared by two or more
	// children, whether or not it survives into attrs.
	union := unionSchema(children)
	uChild, uCol := columnSources(union, children)
	jp.checks = residualChecks(union, children, uChild, uCol)
	jp.srcChild, jp.srcCol = columnSources(attrs, children)
	if len(a.joinPlans) >= joinPlanCap {
		a.joinPlans = a.joinPlans[:0]
	}
	a.joinPlans = append(a.joinPlans, jp)
	return jp
}

// grow sizes the per-child scratch slices for a join of nc inputs.
func (a *arena) grow(nc int) {
	for len(a.tables) < nc {
		a.tables = append(a.tables, &joinTable{})
		a.colIdx = append(a.colIdx, nil)
		a.lists = append(a.lists, nil)
		a.at = append(a.at, 0)
	}
}

// joinTable is an open-addressing hash table over one join child's
// rows, grouped by join key. Buckets index entries; after build, each
// entry owns a contiguous span of the child's row numbers laid out
// grouped by key (CSR layout), so a probe returns a ready list with no
// per-key allocation. Keys are hashed and compared directly on the
// rows' cells — the specialized equivalent of a map[uint32][]int32 for
// the dominant single-attribute join, generalizing to multi-attribute
// keys. All storage is arena-owned, pointer-free and reused across
// joins.
type joinTable struct {
	mask    uint32
	buckets []int32         // entry index + 1; 0 = empty
	hashes  []uint64        // per entry: full key hash
	rep     []int32         // per entry: first row carrying the key
	off     []int32         // per entry +1: CSR offsets into ordered
	cnt     []int32         // build scratch: per entry count, then fill cursor
	rowEnt  []int32         // build scratch: per row, its entry
	ordered []int32         // row numbers, grouped by entry
	rel     mapreduce.Block // the build child
	cols    []int           // join-key columns in the child's schema
}

// mix64 is a splitmix64-style finalizer giving the table good low bits
// from the FNV word folding.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashRowKey hashes the join-key cells of row, with a branch-free fast
// path for single-attribute keys.
func hashRowKey(row mapreduce.Row, cols []int) uint64 {
	if len(cols) == 1 {
		return mix64(uint64(uint32(row[cols[0]])))
	}
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ uint64(uint32(row[c]))) * 1099511628211
	}
	return mix64(h)
}

// keyEqual compares row a's key (columns ca) with row b's (columns cb).
func keyEqual(a mapreduce.Row, ca []int, b mapreduce.Row, cb []int) bool {
	for i := range ca {
		if a[ca[i]] != b[cb[i]] {
			return false
		}
	}
	return true
}

// sized returns buf at length n, reallocating only when it is too small
// (contents are unspecified).
func sized[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// build indexes rel's rows by their key columns.
func (t *joinTable) build(rel mapreduce.Block, cols []int) {
	t.rel = rel
	t.cols = append(t.cols[:0], cols...)
	size := 8
	for size < 2*rel.N {
		size <<= 1
	}
	t.buckets = sized(t.buckets, size)
	clear(t.buckets)
	t.mask = uint32(size - 1)
	t.hashes = t.hashes[:0]
	t.rep = t.rep[:0]
	t.cnt = t.cnt[:0]
	t.rowEnt = sized(t.rowEnt, rel.N)
	for ri := 0; ri < rel.N; ri++ {
		row := rel.Row(ri)
		h := hashRowKey(row, cols)
		slot := uint32(h) & t.mask
		for {
			e := t.buckets[slot]
			if e == 0 {
				t.buckets[slot] = int32(len(t.rep)) + 1
				t.rowEnt[ri] = int32(len(t.rep))
				t.hashes = append(t.hashes, h)
				t.rep = append(t.rep, int32(ri))
				t.cnt = append(t.cnt, 1)
				break
			}
			ei := e - 1
			if t.hashes[ei] == h && keyEqual(rel.Row(int(t.rep[ei])), cols, row, cols) {
				t.cnt[ei]++
				t.rowEnt[ri] = ei
				break
			}
			slot = (slot + 1) & t.mask
		}
	}
	// CSR layout: list row numbers contiguously per entry, preserving
	// their original order within each key group.
	nEnt := len(t.rep)
	t.off = sized(t.off, nEnt+1)
	t.off[0] = 0
	for e := 0; e < nEnt; e++ {
		t.off[e+1] = t.off[e] + t.cnt[e]
		t.cnt[e] = t.off[e] // reuse as fill cursor
	}
	t.ordered = sized(t.ordered, rel.N)
	for ri, e := range t.rowEnt {
		t.ordered[t.cnt[e]] = int32(ri)
		t.cnt[e]++
	}
}

// probe returns the numbers of the build child's rows whose key equals
// probe's key cells (columns probeCols, hash h), or nil. The returned
// slice is valid until the table is rebuilt.
func (t *joinTable) probe(probe mapreduce.Row, probeCols []int, h uint64) []int32 {
	slot := uint32(h) & t.mask
	for {
		e := t.buckets[slot]
		if e == 0 {
			return nil
		}
		ei := e - 1
		if t.hashes[ei] == h && keyEqual(t.rel.Row(int(t.rep[ei])), t.cols, probe, probeCols) {
			return t.ordered[t.off[ei]:t.off[ei+1]]
		}
		slot = (slot + 1) & t.mask
	}
}
