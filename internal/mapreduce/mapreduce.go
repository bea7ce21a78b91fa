// Package mapreduce is a deterministic, in-process simulator of a
// Hadoop-style MapReduce cluster: jobs with a map phase, a hash shuffle
// and a reduce phase run over the nodes of a simulated cluster, with a
// simulated clock charging per-tuple I/O, CPU and network costs plus a
// fixed per-job initialization overhead. The paper evaluates CliqueSquare
// on a 7-node Hadoop cluster; this simulator substitutes for it while
// preserving what the evaluation measures — how plan shape (number of
// jobs, join levels, intermediate sizes) drives response time.
//
// There is one job form and one way to run it. A job's map work is
// split into sub-node morsels (per partition file, via Job.MapMorsel)
// and its reduce work into per-key-range morsels; Cluster.RunWith
// dispatches every phase through Pool.ForEach, which runs inline on a
// nil or width-1 pool and across persistent worker lanes otherwise.
// Simulated statistics are byte-identical whatever the lane count: with
// one lane, morsels run in canonical order and charge their node's
// meter directly; with more, every morsel logs its charges privately
// and the logs are replayed into the per-node meters in canonical
// morsel order, so the floating-point sums accumulate in exactly the
// one-lane order.
//
// The data plane is flat: tuples are cells in width-strided []TermID
// arrays, never one slice header per row. A relation body is a Block
// (width, row count, cells). An emitted tuple is a record — a 24-byte
// pointer-free struct holding the group, the first key cell, the tag
// and where the tuple's cells are — over cells written once, at
// emission, into the cell buffer of the (morsel, destination) bucket
// the key routes to. Routing concatenates a destination's buckets'
// records in (source node, morsel) order and sorting permutes records
// only; the cells never move again, and neither array holds a pointer,
// so the garbage collector skips both.
//
// A Scratch owns every buffer a run fills — buckets, routed records,
// slot tables and the per-node output blocks — and the next run handed
// the same Scratch recycles all of them: a run's Output, and every view
// Groups.Each hands a reducer (a group's key cells and its records'
// rows, valid for the duration of the callback), alias that memory.
// Whatever must outlive the next run is copied out by the caller.
package mapreduce

import (
	"encoding/binary"
	"slices"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/rdf"
)

// Row is one tuple: width cells. Inside the runtime a Row is always a
// view of some flat array (a Block, a partition file, a shuffle cell
// buffer), valid as long as that array is.
type Row = dstore.Row

// Block is a flat relation body: N rows of Width cells each, row i at
// Cells[i*Width:(i+1)*Width]. The count is explicit because zero-width
// rows (a fully bound pattern's matches) carry no cells but still
// count.
type Block struct {
	Width, N int
	Cells    []rdf.TermID
}

// Reset empties the block for rows of the given width, keeping its
// backing array.
func (b *Block) Reset(width int) { b.Width, b.N, b.Cells = width, 0, b.Cells[:0] }

// Row returns row i as a view of the block, capacity clipped.
func (b *Block) Row(i int) Row {
	lo, hi := i*b.Width, (i+1)*b.Width
	return b.Cells[lo:hi:hi]
}

// Extend grows the block by rows rows of the given width and returns
// their cells for the caller to fill — the one way rows get into a
// block. The first rows of an empty block fix its width.
func (b *Block) Extend(rows, width int) []rdf.TermID {
	if rows == 0 {
		return nil
	}
	if b.N == 0 {
		b.Width = width
	} else if width != b.Width {
		panic("mapreduce: rows of another width appended to a block")
	}
	n := len(b.Cells)
	b.Cells = slices.Grow(b.Cells, rows*width)[:n+rows*width]
	b.N += rows
	return b.Cells[n:]
}

// Append copies one row's cells onto the block.
func (b *Block) Append(row Row) { copy(b.Extend(1, len(row)), row) }

// AppendBlock copies all of o's rows onto the block.
func (b *Block) AppendBlock(o Block) { copy(b.Extend(o.N, o.Width), o.Cells) }

// Clone returns an exactly sized copy that shares nothing with b: the
// form in which rows outlive the scratch they were computed in.
func (b *Block) Clone() Block {
	cells := make([]rdf.TermID, len(b.Cells))
	copy(cells, b.Cells)
	return Block{Width: b.Width, N: b.N, Cells: cells}
}

// Constants are the per-tuple cost constants of Section 5.4 plus the
// per-job initialization overhead that makes extra MapReduce jobs
// expensive (the effect flat plans exploit). Units are microseconds of
// simulated time per tuple (or per job for JobInit).
type Constants struct {
	Read    float64 // c_read: read one tuple from the store
	Write   float64 // c_write: write one tuple to the store
	Shuffle float64 // c_shuffle: move one tuple across the network
	Check   float64 // c_check: evaluate a filter/projection on a tuple
	Join    float64 // c_join: process one tuple through a join
	JobInit float64 // fixed startup cost of one MapReduce job
}

// DefaultConstants returns cost constants roughly proportioned like a
// small Hadoop cluster: network ~3× disk, job startup measured in
// seconds (5e6 µs).
func DefaultConstants() Constants {
	return Constants{Read: 1, Write: 1, Shuffle: 3, Check: 0.1, Join: 1, JobInit: 5e6}
}

// Accumulator lanes of a Meter.
const (
	chargeIO = iota
	chargeCPU
	chargeNet
)

// charge is one recorded metering event: which accumulator it hit and
// the exact amount added. Replaying a morsel's charges into a node
// meter in canonical morsel order reproduces, bit for bit, the sums a
// one-lane sweep accumulates — each amount is the same product, added
// in the same order.
type charge struct {
	lane uint8
	v    float64
}

// Meter accumulates one node's (or one morsel's) simulated work during
// one phase. A meter with a recorder attached additionally logs each
// charge for ordered replay.
type Meter struct {
	IO, CPU, Net float64
	rec          *[]charge
}

func (m *Meter) charge(lane uint8, v float64) {
	switch lane {
	case chargeIO:
		m.IO += v
	case chargeCPU:
		m.CPU += v
	default:
		m.Net += v
	}
	if m.rec != nil {
		*m.rec = append(*m.rec, charge{lane, v})
	}
}

// replay adds recorded charges in their recorded order.
func (m *Meter) replay(cs []charge) {
	for _, c := range cs {
		m.charge(c.lane, c.v)
	}
}

// Read charges reading n tuples.
func (m *Meter) Read(c *Constants, n int) { m.charge(chargeIO, c.Read*float64(n)) }

// Write charges writing n tuples.
func (m *Meter) Write(c *Constants, n int) { m.charge(chargeIO, c.Write*float64(n)) }

// Check charges n filter/projection evaluations.
func (m *Meter) Check(c *Constants, n int) { m.charge(chargeCPU, c.Check*float64(n)) }

// Join charges processing n tuples through a join.
func (m *Meter) Join(c *Constants, n int) { m.charge(chargeCPU, c.Join*float64(n)) }

// Shuffle charges receiving n tuples over the network.
func (m *Meter) Shuffle(c *Constants, n int) { m.charge(chargeNet, c.Shuffle*float64(n)) }

// Total is the node's simulated time for the phase.
func (m *Meter) Total() float64 { return m.IO + m.CPU + m.Net }

// Job describes one MapReduce job as independently schedulable morsels.
//
// MapMorsel runs MapMorsels(node) times per node; it may emit keyed
// records into the shuffle (Emitter.Emit) and/or append rows to out,
// the job's direct output (map-only output). Morsels of one node may run on different lanes
// concurrently, so per-call scratch must be indexed by the lane
// argument, and the concatenation of a node's morsel emissions, outputs
// and metered charges in morsel order must equal what one per-node
// sweep would produce (that concatenation is exactly what the runtime
// reconstructs). ReduceRange — nil for a map-only job — runs over one
// group-aligned key range of the records routed to a node, grouped by
// exact key and presented in canonical key order through the Groups
// iterator; ranges partition the node's canonical group order, at most
// one per lane. ReduceFinish, if non-nil, then runs once per node to
// combine the ranges (its metered charges and outputs follow all range
// charges of that node, matching a groups-then-combine sweep). The
// closures must charge their work to the provided Meter, and write
// their output rows by appending to out — the runtime counts them.
type Job struct {
	Name string
	// MapMorsels reports how many map morsels a node splits into (nil
	// means 1). Zero is allowed and means the node's map phase does
	// nothing.
	MapMorsels func(node int) int
	// MapMorsel runs one map morsel of a node on a lane.
	MapMorsel func(node, morsel, lane int, m *Meter, emit *Emitter, out *Block)
	// ReduceRange runs one key range of a node's reduce input on a
	// lane. ranges is the number of ranges the node was split into.
	ReduceRange func(node, rng, ranges, lane int, m *Meter, groups *Groups, out *Block)
	// ReduceFinish combines a node's ranges after all of them ran.
	ReduceFinish func(node, ranges, lane int, m *Meter, out *Block)
}

// ClassicJob adapts the classic MapReduce form — mapFn once per node,
// reduce (nil for a map-only job) over the groups routed to a node — to
// the morsel form. The runtime cuts a node's groups into key ranges and
// calls reduce once per range, so reduce must be group-local: whatever
// it charges and emits, it charges and emits per group, from that
// group's records alone, carrying nothing from one group to the next.
// The per-range charges and rows of such a reducer concatenate, in
// range order, to exactly those of one call over the whole node.
func ClassicJob(name string, mapFn func(node int, m *Meter, emit *Emitter, out *Block), reduce func(node int, m *Meter, groups *Groups, out *Block)) Job {
	job := Job{Name: name, MapMorsel: func(node, _, _ int, m *Meter, emit *Emitter, out *Block) { mapFn(node, m, emit, out) }}
	if reduce != nil {
		job.ReduceRange = func(node, _, _, _ int, m *Meter, groups *Groups, out *Block) { reduce(node, m, groups, out) }
	}
	return job
}

// JobStats records one executed job's simulated timing.
type JobStats struct {
	Name          string
	MapOnly       bool
	MapTime       float64 // max over nodes
	ShuffleTime   float64
	ReduceTime    float64
	Shuffled      int     // records through the shuffle
	ShuffledCells int     // total row cells through the shuffle (volume)
	Output        int     // rows written to the job output
	Time          float64 // init + map + shuffle + reduce
}

// JobRecord is what one executed job metered: the final per-node meters
// of every phase plus the job's integer counters — all that JobStats
// and the total-work sum are folded from. Replaying a record
// (Cluster.Replay) puts it through the same fold as the live run, so
// the replayed JobStats are bit-identical without running any
// map/shuffle/reduce work, which is what lets the subplan result cache
// serve cached relations with stats indistinguishable from an uncached
// run. Per-node meters are lane-count invariant, so one record is valid
// at every parallelism level.
//
// A record is bound to the cluster geometry (node count) and cost
// constants it was captured under. It excludes the job name, which is
// query-dependent; Replay takes the name to stamp on the stats.
type JobRecord struct {
	stats             JobStats // MapOnly and the counters; name and times unset
	mapM, shufM, redM []Meter  // per node; shufM and redM are nil when map-only
}

// MemBytes estimates the record's resident size for cache accounting.
func (r *JobRecord) MemBytes() int64 {
	const meterSize = 32 // Meter{3 × float64, pointer}
	return 256 + meterSize*int64(len(r.mapM)+len(r.shufM)+len(r.redM))
}

// Replay appends a job to the cluster's stats as if the recorded job
// had just run: JobStats (under the given name) and the total-work sum
// come out of the same fold as an actual execution. The record must
// have been captured on a cluster with the same cost constants; the
// node count comes from the record itself, so a replay stays faithful
// even after the live cluster was resized.
func (cl *Cluster) Replay(name string, r *JobRecord) JobStats {
	stats := r.stats
	stats.Name = name
	return cl.fold(stats, r.mapM, r.shufM, r.redM)
}

// fold turns a job's per-node phase meters, plus the integer counters
// already in stats, into the job's JobStats and total-work sum, and
// logs the job. Phase times are maxima over nodes; work sums the map
// totals in node order, then per node the shuffle and reduce totals,
// then the job-init charge. Live runs and replays both end here, which
// is what makes their floating-point results agree bit for bit.
func (cl *Cluster) fold(stats JobStats, mapM, shufM, redM []Meter) JobStats {
	work := 0.0
	peak := func(phase *float64, m *Meter) {
		t := m.Total()
		if t > *phase {
			*phase = t
		}
		work += t
	}
	for i := range mapM {
		peak(&stats.MapTime, &mapM[i])
	}
	for i := range shufM {
		peak(&stats.ShuffleTime, &shufM[i])
		peak(&stats.ReduceTime, &redM[i])
	}
	stats.Time = cl.C.JobInit + stats.MapTime + stats.ShuffleTime + stats.ReduceTime
	work += cl.C.JobInit
	cl.totalWork += work
	cl.Jobs = append(cl.Jobs, stats)
	return stats
}

// Cluster is a simulated MapReduce cluster over a shared file store.
//
// Phases run as morsels (RunWith), mirroring the real parallelism
// CliqueSquare's flat plans exploit. Each morsel fills only private
// buffers; the buffers are merged in canonical (node, morsel) order
// afterwards, so outputs and JobStats do not depend on scheduling.
type Cluster struct {
	Store *dstore.Store
	C     Constants

	// Jobs lists per-job stats in execution order.
	Jobs []JobStats

	totalWork float64
}

// RunOptions is what one RunWith call borrows from its caller. The zero
// value means: one inline lane, per-run buffers, the store's node
// count, no record.
type RunOptions struct {
	// Pool supplies the worker lanes: the job runs on Pool.Lanes() of
	// them, and a nil pool is one lane, inline on the caller.
	Pool *Pool
	// Nodes, when > 0, overrides the cluster size for this run.
	// Executors pinned to a snapshot pass the snapshot's node count so
	// a concurrent resize (which changes Store.N) cannot skew routing
	// mid-query.
	Nodes int
	// Scratch, if non-nil, provides the reusable buffers.
	Scratch *Scratch
	// Record, if non-nil, is filled with what the job metered (see
	// JobRecord). It shares nothing with Scratch, so it outlives the
	// run and any Scratch reuse.
	Record *JobRecord
}

// slot is the private state of one schedulable unit — a map morsel, a
// reduce key range or a node's reduce finish: whose it is, what it
// metered and what it produced. A unit writes only its own slot, so
// lanes share no mutable state; merging slots in table order is
// merging in canonical (node, index) order.
type slot struct {
	node, idx, of int      // the node, and the unit's index among that node's of units
	meter         Meter    // private meter logging into log (more than one lane only)
	log           []charge // the unit's charges, in charge order
	out           Block    // rows written, unless the unit writes the node output directly
	outputs       int      // rows written
	count, cells  int      // records and row cells emitted into the shuffle
	groups        Groups   // a key range's records
}

// layout returns the slot table s sized for one phase: units(node)
// slots per node, in node order, each reset for a new run but keeping
// the backing arrays of its log and output block.
func layout(s []slot, n int, units func(node int) int) []slot {
	s = s[:0]
	for node := 0; node < n; node++ {
		k := units(node)
		for i := 0; i < k; i++ {
			if len(s) < cap(s) {
				s = s[:len(s)+1]
			} else {
				s = append(s, slot{})
			}
			u := &s[len(s)-1]
			*u = slot{node: node, idx: i, of: k, log: u.log[:0], out: Block{Cells: u.out.Cells[:0]}}
		}
	}
	return s
}

// resize returns buf at n elements, keeping — untouched, backing arrays
// included — the elements a shorter run left parked beyond buf's
// length. The caller resets the ones it is about to use.
func resize[E any](buf []E, n int) []E {
	buf = buf[:cap(buf)]
	if n > len(buf) {
		buf = append(buf, make([]E, n-len(buf))...)
	}
	return buf[:n]
}

// ResetBufs returns buf at n buffers, each reset to length zero but
// keeping its backing array: resize for tables of plain slices.
func ResetBufs[E any](buf [][]E, n int) [][]E {
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

// ResetBlocks returns buf at n empty blocks that keep their backing
// arrays: resize for tables of blocks.
func ResetBlocks(buf []Block, n int) []Block {
	buf = resize(buf, n)
	for i := range buf {
		buf[i].Reset(0)
	}
	return buf
}

// bucket holds what one map morsel emitted for one destination node:
// the records, and the cells they point into.
type bucket struct {
	recs  []record
	cells []rdf.TermID
}

// Emitter is a lane's handle on the shuffle while it runs one map
// morsel. The runtime keeps one per lane and retargets it per unit, so
// emitting allocates nothing once the buckets have grown.
type Emitter struct {
	n       int      // cluster size (routing modulus)
	unit    *slot    // the running unit: its counters
	base    uint32   // index of the unit's first bucket in the scratch's table
	buckets []bucket // the unit's per-destination buckets
}

// Emit sends row into the shuffle under the key (group, row[keyCols...])
// with the given input tag (which join input the row belongs to). The
// row's cells are copied — once, into the cell buffer of the bucket the
// key routes to — so the caller may reuse row as soon as Emit returns.
func (e *Emitter) Emit(group uint32, tag int, row Row, keyCols []int) {
	h := hashCell(fnv32Offset, group)
	for _, c := range keyCols {
		h = hashCell(h, uint32(row[c]))
	}
	dest := route(h, e.n)
	b := &e.buckets[dest]
	r := record{
		group: group,
		buf:   e.base + uint32(dest),
		off:   uint32(len(b.cells)),
		width: uint32(len(row)),
		tag:   uint16(tag),
		nkey:  uint16(len(keyCols)),
	}
	if len(keyCols) > 0 {
		r.k0 = uint32(row[keyCols[0]])
		for _, c := range keyCols[1:] {
			b.cells = append(b.cells, row[c])
		}
	}
	b.cells = append(b.cells, row...)
	b.recs = append(b.recs, r)
	e.unit.count++
	e.unit.cells += len(row)
}

// Scratch holds the buffers one RunWith draws from: per-(morsel,
// destination) emission buckets, the routed per-destination records,
// the slot tables, the per-node output blocks and the per-lane
// emitters. Buffers are sized on first use and reused (at their
// high-water capacity) by every subsequent run handed the same Scratch
// — which is why a run's Output is only valid until the next one. A
// Scratch serves one run at a time: the lanes inside a run partition it
// per unit, but two concurrent runs must not share one.
type Scratch struct {
	buckets  []bucket   // map slot*n+dest -> what the morsel emitted for dest
	shuffled [][]record // dest node -> routed records
	rangeOff [][]int32  // node -> group-aligned range offsets
	outputs  []Block    // node -> the job's output rows

	// One slot per unit of each phase, in canonical order.
	morsels, ranges, finishes []slot

	lanes []Emitter
}

// NewCluster creates a cluster over the given store.
func NewCluster(store *dstore.Store, c Constants) *Cluster {
	return &Cluster{Store: store, C: c}
}

// N reports the number of nodes.
func (cl *Cluster) N() int { return cl.Store.N() }

// ResponseTime is the total simulated wall-clock time of all jobs run
// so far (jobs execute sequentially, phases within a job in parallel
// across nodes).
func (cl *Cluster) ResponseTime() float64 {
	t := 0.0
	for _, j := range cl.Jobs {
		t += j.Time
	}
	return t
}

// TotalWork is the summed per-node work of all jobs (the cost model's
// total-work metric, Section 5.4).
func (cl *Cluster) TotalWork() float64 {
	return cl.totalWork
}

// Output of a job: one block of rows per node. The blocks belong to the
// run's Scratch and are recycled by its next run; without a caller's
// Scratch they are the Output's own.
type Output struct {
	PerNode []Block
}

// Len is the total number of output rows.
func (o *Output) Len() int {
	n := 0
	for i := range o.PerNode {
		n += o.PerNode[i].N
	}
	return n
}

// splitRanges cuts sorted recs into at most maxRanges group-aligned
// ranges of roughly equal size and returns their offsets in offs[:0]:
// range i is recs[offs[i]:offs[i+1]], and no group straddles a cut.
func splitRanges(offs []int32, recs []record, bk []bucket, maxRanges int) []int32 {
	offs = append(offs[:0], 0)
	target := (len(recs) + maxRanges - 1) / maxRanges
	for r := 1; r < maxRanges; r++ {
		pos := r * target
		if pos <= int(offs[len(offs)-1]) {
			continue
		}
		for pos < len(recs) && sameKey(&recs[pos], &recs[pos-1], bk) {
			pos++
		}
		if pos >= len(recs) {
			break
		}
		offs = append(offs, int32(pos))
	}
	return append(offs, int32(len(recs)))
}

// RunWith executes one job and returns its output. Map outputs and
// reduce outputs append to the same per-node output set; a job uses one
// or the other (map-only vs map+reduce) per the physical plan's
// structure.
//
// Determinism: rows and JobStats are byte-identical whatever the lane
// count or scheduling. Integer counters are order-free; floating-point
// meters see every charge in canonical (node, morsel) — then (node,
// range), then finish — order, either directly (one lane runs the units
// in that order) or by replaying each unit's logged charges in it; and
// the shuffle input of every destination is the concatenation of
// pre-routed per-(source, destination) buckets in (source node, morsel)
// order.
func (cl *Cluster) RunWith(job Job, opts RunOptions) *Output {
	n := cl.N()
	if opts.Nodes > 0 {
		n = opts.Nodes
	}
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	pool := opts.Pool
	lanes := pool.Lanes()
	sc.lanes = resize(sc.lanes, lanes)
	sc.outputs = ResetBlocks(sc.outputs, n)
	out := &Output{PerNode: sc.outputs}
	stats := JobStats{Name: job.Name, MapOnly: job.ReduceRange == nil}
	mapM := make([]Meter, n)

	// begin points a lane at the unit it is about to run and returns the
	// meter the unit charges and the block it writes — the node output
	// itself for direct units, the unit's own slot otherwise. This is the
	// one place the lane count decides anything about metering: one lane
	// runs the units in canonical order, so they charge their node's
	// meter and log nothing; more lanes run them in any order, so each
	// charges a private meter whose log merge replays in canonical order.
	begin := func(lane int, u *slot, nodeM []Meter, direct bool) (*Meter, *Block) {
		sc.lanes[lane].unit = u
		dst := &u.out
		if direct {
			dst = &out.PerNode[u.node]
		}
		if lanes == 1 {
			return &nodeM[u.node], dst
		}
		u.meter.rec = &u.log
		return &u.meter, dst
	}
	// merge folds finished units into their nodes in canonical order.
	// Replaying an empty log and appending no rows are no-ops, so this
	// is the same loop whatever begin chose.
	merge := func(units []slot, nodeM []Meter) {
		for i := range units {
			u := &units[i]
			nodeM[u.node].replay(u.log)
			stats.Shuffled += u.count
			stats.ShuffledCells += u.cells
			stats.Output += u.outputs
			out.PerNode[u.node].AppendBlock(u.out)
		}
	}

	// ---- Map phase: one unit per (node, morsel). ----
	sc.morsels = layout(sc.morsels, n, func(node int) int {
		if job.MapMorsels == nil {
			return 1
		}
		return job.MapMorsels(node)
	})
	sc.buckets = resize(sc.buckets, len(sc.morsels)*n)
	for i := range sc.buckets {
		b := &sc.buckets[i]
		b.recs, b.cells = b.recs[:0], b.cells[:0]
	}
	pool.ForEach(len(sc.morsels), func(i, lane int) {
		u := &sc.morsels[i]
		// A node's only morsel writes the node output directly.
		m, dst := begin(lane, u, mapM, u.of == 1)
		e := &sc.lanes[lane]
		e.n, e.base, e.buckets = n, uint32(i*n), sc.buckets[i*n:(i+1)*n]
		before := dst.N
		job.MapMorsel(u.node, u.idx, lane, m, e, dst)
		u.outputs = dst.N - before
	})
	merge(sc.morsels, mapM)

	// ---- Shuffle + reduce phases. ----
	var shufM, redM []Meter
	if !stats.MapOnly {
		shufM, redM = make([]Meter, n), make([]Meter, n)
		sc.shuffled = ResetBufs(sc.shuffled, n)
		sc.rangeOff = ResetBufs(sc.rangeOff, n)
		// Per destination: concatenate the pre-routed buckets' records in
		// (source node, morsel) order, charge, sort into canonical group
		// order and split into group-aligned ranges, one per lane at most.
		// The single Shuffle charge per node needs no replay.
		pool.ForEach(n, func(dest, _ int) {
			buf := sc.shuffled[dest]
			for s := range sc.morsels {
				buf = append(buf, sc.buckets[s*n+dest].recs...)
			}
			sc.shuffled[dest] = buf
			shufM[dest].Shuffle(&cl.C, len(buf))
			sortRecords(buf, sc.buckets)
			sc.rangeOff[dest] = splitRanges(sc.rangeOff[dest], buf, sc.buckets, lanes)
		})

		// One unit per (node, range): ranges of all nodes share one queue.
		sc.ranges = layout(sc.ranges, n, func(node int) int { return len(sc.rangeOff[node]) - 1 })
		pool.ForEach(len(sc.ranges), func(i, lane int) {
			u := &sc.ranges[i]
			offs := sc.rangeOff[u.node]
			u.groups = Groups{recs: sc.shuffled[u.node][offs[u.idx]:offs[u.idx+1]], bk: sc.buckets}
			m, dst := begin(lane, u, redM, u.of == 1 && job.ReduceFinish == nil)
			before := dst.N
			job.ReduceRange(u.node, u.idx, u.of, lane, m, &u.groups, dst)
			u.outputs = dst.N - before
		})
		// Range charges and range outputs land before any finish work.
		merge(sc.ranges, redM)
		if job.ReduceFinish != nil {
			sc.finishes = layout(sc.finishes, n, func(int) int { return 1 })
			pool.ForEach(n, func(node, lane int) {
				u := &sc.finishes[node]
				m, dst := begin(lane, u, redM, true)
				before := dst.N
				job.ReduceFinish(node, len(sc.rangeOff[node])-1, lane, m, dst)
				u.outputs = dst.N - before
			})
			merge(sc.finishes, redM)
		}
	}

	if rec := opts.Record; rec != nil {
		*rec = JobRecord{stats: stats, mapM: mapM, shufM: shufM, redM: redM}
		rec.stats.Name = ""
	}
	cl.fold(stats, mapM, shufM, redM)
	return out
}

// Reset clears accumulated job statistics (the store is untouched).
func (cl *Cluster) Reset() {
	cl.Jobs = nil
	cl.totalWork = 0
}

// EncodeKey builds the seed runtime's string shuffle key from a group
// identifier and attribute values. The execution path keys records
// in binary (Emitter.Emit); this encoding is retained as the reference
// representation — property tests compare the binary path against it,
// and the baseline simulators use it for distinct-row counting.
func EncodeKey(group int, vals []uint32) string {
	buf := make([]byte, 4+4*len(vals))
	binary.LittleEndian.PutUint32(buf, uint32(group))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4+4*i:], v)
	}
	return string(buf)
}
