package physical

import (
	"runtime"

	"cliquesquare/internal/core"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
)

// ExecContext carries cross-layer execution state threaded from the
// engine facade down to the workers: the worker lanes jobs run on, an
// optional per-job stats sink, and the reusable scratch (per-lane
// arenas, shuffle buffers, plan-shaped intermediate tables) the
// executor draws from. One ExecContext may serve many plan executions;
// the scratch amortizes allocations across them. An ExecContext serves
// one execution at a time.
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
	// runs on, not by node.
	arenas []*arena

	// shuffle is the reusable mapreduce shuffle scratch handed to the
	// cluster for every job of every execution this context serves.
	shuffle mapreduce.Scratch

	// byID and interm are the executor's plan-shaped scratch: infos
	// dense by ID and, per reduce join, its output rows per node.
	byID   []*Info
	interm [][][]mapreduce.Row

	// morsels is the per-node map-morsel table of the current job,
	// built sequentially before the job runs.
	morsels [][]mapMorsel

	// ranges is the per-(node, range) reduce accumulation: ReduceRange
	// morsels fill disjoint slots, ReduceFinish merges a node's slots
	// in range order. Sized node-major at nodes×lanes.
	ranges     []rangeSlot
	rangeWidth int
}

// rangeSlot is one key range's reduce-join accumulation: output rows,
// per-group output counts and first-production order, per info ID —
// the range-local shard of what a whole-node reduce used to build.
type rangeSlot struct {
	rows   [][]mapreduce.Row
	counts [][]int32
	order  []int32
}

// reset empties the slot for n infos.
func (s *rangeSlot) reset(n int) {
	s.rows = mapreduce.ResetBufs(s.rows, n)
	s.counts = mapreduce.ResetBufs(s.counts, n)
	s.order = s.order[:0]
}

// mapMorsel is one schedulable unit of a reduce-level job's map phase:
// one child of one reduce join on one node — split per partition file
// for scans, whole-subtree for map joins and shufflers.
type mapMorsel struct {
	rj    *Info    // the reduce join being fed
	child *core.Op // the child producing records
	ci    *Info    // child's classification (nil for per-file scans)
	tag   int      // child index within rj (the Keyed Tag)
	file  string   // partition file for per-file scan morsels
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

// ensureLanes sizes the per-lane arena set before jobs run, so the
// concurrent morsel workers index it without synchronization.
func (c *ExecContext) ensureLanes() {
	for len(c.arenas) < c.lanes() {
		c.arenas = append(c.arenas, &arena{})
	}
}

// arenaFor returns a lane's scratch arena. A lane runs one morsel at a
// time, so the arena needs no locking.
func (c *ExecContext) arenaFor(lane int) *arena { return c.arenas[lane] }

// infoSlots returns the dense info-by-ID table, zeroed at length n.
func (c *ExecContext) infoSlots(n int) []*Info {
	c.byID = append(c.byID[:0], make([]*Info, n)...)
	return c.byID
}

// intermSlots returns the per-info intermediate table at length n.
// Slots are left as-is (the executor resets the ones actually used).
func (c *ExecContext) intermSlots(n int) [][][]mapreduce.Row {
	for len(c.interm) < n {
		c.interm = append(c.interm, nil)
	}
	return c.interm[:n]
}

// rangeSlots sizes the reduce accumulation table for nodes×width
// ranges (slots are reset lazily by their range).
func (c *ExecContext) rangeSlots(nodes, width int) {
	for len(c.ranges) < nodes*width {
		c.ranges = append(c.ranges, rangeSlot{})
	}
	c.rangeWidth = width
}

// rangeSlot returns the accumulation slot of (node, rng).
func (c *ExecContext) rangeSlot(node, rng int) *rangeSlot {
	return &c.ranges[node*c.rangeWidth+rng]
}

// arena is one worker lane's reusable scratch for local evaluation:
// the join tables, cursor slices and key-cell buffers naryJoin and the
// shuffle emitters need per call, scan filter scratch, reduce-group
// input buffers, plus a slab allocator for output rows. Scratch
// buffers are reused across calls; slab rows are never reused (they
// escape into relations and results), only allocated in large chunks.
type arena struct {
	tables   []*joinTable
	colIdx   [][]int
	lists    [][]mapreduce.Row
	group    []mapreduce.Row
	slab     []rdf.TermID
	emitCols []int // shuffle-key column indexes, hoisted per relation

	// joinPlans memoizes the schema-derived part of naryJoin (output
	// column sources, residual checks) keyed on the children's schema
	// and output-attrs slice identities.
	joinPlans []*joinPlan

	// scan filter scratch (Executor.scan).
	scanConsts  []constCheck
	scanRepeats [][2]rdf.Pos
	scanVarPos  []rdf.Pos
	scanPlans   []scanFile

	// scan file-name memo: partition-file resolution is pure per
	// (operator, replica position) within one pinned view, so the
	// resolved name lists are cached until the view changes.
	fileView  *partition.View
	fileNames map[fileKey][]string

	// reduce-phase scratch: per-group join inputs (groupRels), the
	// finish pass's merged info order (rjOrder) with its seen marks
	// (rjSeen), and the hoisted final-projection columns (projCols).
	groupRels []relation
	rjOrder   []int32
	rjSeen    []bool
	projCols  []int
}

// fileKey identifies one scan's file resolution: the (immutable) plan
// operator plus the replica position it reads.
type fileKey struct {
	op  *core.Op
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

// relBuf returns nc reusable group-input relations (rows buffers keep
// their backing arrays; the caller resets schema and length).
func (a *arena) relBuf(nc int) []relation {
	for len(a.groupRels) < nc {
		a.groupRels = append(a.groupRels, relation{})
	}
	return a.groupRels[:nc]
}

// seenBuf returns the per-info seen marks at length n. Callers must
// clear every mark they set before returning (cheaper than zeroing n).
func (a *arena) seenBuf(n int) []bool {
	if cap(a.rjSeen) < n {
		a.rjSeen = make([]bool, n)
	}
	a.rjSeen = a.rjSeen[:n]
	return a.rjSeen
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

const slabChunk = 8192

// newRow returns a fresh width-w row, drawn from the arena's slab when
// one is available (a nil arena degrades to a plain allocation). Slab
// rows are handed out exactly once and never recycled, so they may
// safely escape into results that outlive the arena's next reuse.
func (a *arena) newRow(w int) mapreduce.Row {
	if a == nil {
		return make(mapreduce.Row, w)
	}
	if w > len(a.slab) {
		n := slabChunk
		if w > n {
			n = w
		}
		a.slab = make([]rdf.TermID, n)
	}
	r := mapreduce.Row(a.slab[:w:w])
	a.slab = a.slab[w:]
	return r
}

// grow sizes the per-child scratch slices for a join of nc inputs.
func (a *arena) grow(nc int) {
	for len(a.tables) < nc {
		a.tables = append(a.tables, &joinTable{})
		a.colIdx = append(a.colIdx, nil)
		a.lists = append(a.lists, nil)
	}
	if cap(a.group) < nc {
		a.group = make([]mapreduce.Row, nc)
	}
}

// joinTable is an open-addressing hash table over one join child's
// rows, grouped by join key. Buckets index entries; after build, each
// entry owns a contiguous span of the child's rows laid out grouped by
// key (CSR layout), so a probe returns a ready []Row with no per-key
// allocation. Keys are hashed and compared directly on the rows' cells
// — the specialized equivalent of a map[uint32][]Row for the dominant
// single-attribute join, generalizing to multi-attribute keys. All
// storage is arena-owned and reused across joins.
type joinTable struct {
	mask    uint32
	buckets []int32  // entry index + 1; 0 = empty
	hashes  []uint64 // per entry: full key hash
	rep     []int32  // per entry: first row carrying the key
	off     []int32  // per entry +1: CSR offsets into ordered
	cnt     []int32  // build scratch: per entry count, then fill cursor
	rowEnt  []int32  // build scratch: per row, its entry
	ordered []mapreduce.Row
	rows    []mapreduce.Row // the build child's rows (pinned until release)
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

// build indexes rows by their key columns.
func (t *joinTable) build(rows []mapreduce.Row, cols []int) {
	t.rows = rows
	t.cols = append(t.cols[:0], cols...)
	size := 8
	for size < 2*len(rows) {
		size <<= 1
	}
	if cap(t.buckets) < size {
		t.buckets = make([]int32, size)
	} else {
		t.buckets = t.buckets[:size]
		clear(t.buckets)
	}
	t.mask = uint32(size - 1)
	t.hashes = t.hashes[:0]
	t.rep = t.rep[:0]
	t.cnt = t.cnt[:0]
	if cap(t.rowEnt) < len(rows) {
		t.rowEnt = make([]int32, len(rows))
	} else {
		t.rowEnt = t.rowEnt[:len(rows)]
	}
	for ri, row := range rows {
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
			if t.hashes[ei] == h && keyEqual(rows[t.rep[ei]], cols, row, cols) {
				t.cnt[ei]++
				t.rowEnt[ri] = ei
				break
			}
			slot = (slot + 1) & t.mask
		}
	}
	// CSR layout: lay rows out contiguously per entry, preserving their
	// original order within each key group.
	nEnt := len(t.rep)
	if cap(t.off) < nEnt+1 {
		t.off = make([]int32, nEnt+1)
	} else {
		t.off = t.off[:nEnt+1]
	}
	t.off[0] = 0
	for e := 0; e < nEnt; e++ {
		t.off[e+1] = t.off[e] + t.cnt[e]
		t.cnt[e] = t.off[e] // reuse as fill cursor
	}
	if cap(t.ordered) < len(rows) {
		t.ordered = make([]mapreduce.Row, len(rows))
	} else {
		t.ordered = t.ordered[:len(rows)]
	}
	for ri, row := range rows {
		e := t.rowEnt[ri]
		t.ordered[t.cnt[e]] = row
		t.cnt[e]++
	}
}

// probe returns the rows whose key equals probe's key cells (columns
// probeCols, hash h), or nil. The returned slice is valid until the
// table is rebuilt or released.
func (t *joinTable) probe(probe mapreduce.Row, probeCols []int, h uint64) []mapreduce.Row {
	slot := uint32(h) & t.mask
	for {
		e := t.buckets[slot]
		if e == 0 {
			return nil
		}
		ei := e - 1
		if t.hashes[ei] == h && keyEqual(t.rows[t.rep[ei]], t.cols, probe, probeCols) {
			return t.ordered[t.off[ei]:t.off[ei+1]]
		}
		slot = (slot + 1) & t.mask
	}
}

// release drops the table's references to the build child's rows so a
// pooled arena doesn't pin a finished query's intermediates until its
// next reuse. The index storage itself stays for the next build.
func (t *joinTable) release() {
	t.rows = nil
	clear(t.ordered)
	t.ordered = t.ordered[:0]
}
