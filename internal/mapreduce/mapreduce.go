// Package mapreduce is a deterministic, in-process simulator of a
// Hadoop-style MapReduce cluster: jobs with a map phase, a hash shuffle
// and a reduce phase run over the nodes of a simulated cluster, with a
// simulated clock charging per-tuple I/O, CPU and network costs plus a
// fixed per-job initialization overhead. The paper evaluates CliqueSquare
// on a 7-node Hadoop cluster; this simulator substitutes for it while
// preserving what the evaluation measures — how plan shape (number of
// jobs, join levels, intermediate sizes) drives response time.
//
// There is one job form and one way to run it. Work runs in units of
// at most M rows of one input (UnitRows), as Hadoop's map tasks read
// bounded input splits: a job's map side as the morsels it lays out
// (Job.MapMorsels), its reduce side as key ranges of each node's input;
// Cluster.RunWith dispatches every phase through Pool.ForEach, which
// runs inline on a nil or width-1 pool and otherwise across helper lanes
// that live for that one batch. Simulated statistics are byte-identical
// whatever the units and the lanes: a Meter counts tuples — reads,
// writes, checks, joins, shuffled — in integers, every unit counts into
// a meter of its own, and a node's counts are their exact, order-free
// sums. As in Section 5.4, a phase's time is the per-tuple cost
// constants times those counts; the constants are applied once, in the
// fold that builds a job's JobStats.
//
// The data plane is flat: tuples are cells in width-strided []TermID
// arrays, never one slice header per row. A relation body is a Block
// (width, row count, cells). The shuffle is Hadoop's, sorted at the map
// side and merged at the reducer: an emitted tuple is its key cells but
// the first (a row cell) and its row cells, written once, at emission,
// into the bucket of its (morsel, destination), under one header per run
// of one shape; as the morsel ends, each run is sorted by key in place
// by SortRows, the one row sort, and a reducer merges the sorted runs
// routed to its node through a tree of losers (Loser), the one merge,
// ties broken by (source node, morsel, emission).
// Nothing is kept per tuple but its cells, and no array holds a pointer.
// A finished answer is a Packed: sorted distinct rows gap-coded against
// each other, decoded as read.
//
// A Scratch holds the positions a run fills — buckets, range cuts, slot
// tables and meters — and takes their bytes from its Bufs pool, each
// piece filled once. A job keeps no output: as a Hadoop task hands its
// rows to its one output collector, every unit of a job's output phase
// hands its rows to the job's sink (Job.Sink), every M rows and as the
// unit ends. Those rows, and every view Groups.Each hands a reducer,
// alias pool memory that the run takes back; whatever must outlive that
// the sink copies out.
package mapreduce

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// Row is one tuple: width cells. Inside the runtime a Row is a view of
// some flat array (a Block, a shuffle cell buffer), valid as long as
// that array is, or the buffer Packed.Each decodes into, valid until
// the function it is handed to returns.
type Row []rdf.TermID

// Block is a flat relation body: N rows of Width cells each, row i at
// Cells[i*Width:(i+1)*Width]. The count is explicit because zero-width
// rows (a fully bound pattern's matches) carry no cells but still
// count.
type Block struct {
	Width, N int
	Cells    []rdf.TermID
	mem      Mem      // where the block grows; nil is the Go heap
	sink     *Emitter // the lane of the sink unit whose rows these are (Flush)
}

// NewBlock returns an empty block that grows in m: at the bottom of a
// lane's Arena, in place, or carved from a pool's outputs by Reserve.
func NewBlock(m Mem) Block { return Block{mem: m} }

// Row returns row i as a view of the block, capacity clipped.
func (b *Block) Row(i int) Row {
	lo, hi := i*b.Width, (i+1)*b.Width
	return b.Cells[lo:hi:hi]
}

// Extend grows the block by rows rows of the given width and returns
// their cells for the caller to fill — the one way rows get into a
// block. The first rows of an empty block fix its width. A block in a
// lane's Arena grows in place at its bottom (the last block there; any
// other starts anew on top of it); elsewhere, rows past the room Reserve
// made come from the Go heap. Extend inlines; its slow path, grow, does
// not.
func (b *Block) Extend(rows, width int) []rdf.TermID {
	return extendWith(b, rows, width, (*Block).grow)
}

// extendWith is Extend's body, taking grow as a parameter: the inliner
// prices a call to a parameter below one to a function, so the body fits
// its budget. Only a growth takes the call.
func extendWith(b *Block, rows, width int, grow func(*Block, int, int)) []rdf.TermID {
	if len(b.Cells)+rows*width > cap(b.Cells) || width != b.Width {
		grow(b, rows, width)
	}
	n := len(b.Cells)
	b.N += rows
	b.Cells = b.Cells[:n+rows*width]
	return b.Cells[n:]
}

// grow readies the block for Extend's rows past its room or of another
// width, which fix an empty block's.
func (b *Block) grow(rows, width int) {
	if rows == 0 {
		return
	} else if b.N == 0 {
		b.Width = width
	} else if width != b.Width {
		panic("mapreduce: rows of another width appended to a block")
	}
	if len(b.Cells)+rows*width > cap(b.Cells) {
		if a, ok := b.mem.(*Arena); ok {
			b.Cells = a.grow(b.Cells, rows*width)
		} else {
			b.Cells = slices.Grow(b.Cells, rows*width)
		}
	}
}

// Reserve makes room for rows more rows of the given width, so that
// extending the block by them draws no more memory: in place at the
// bottom of a lane's Arena, or carved from a pool's outputs at exactly
// that size.
func (b *Block) Reserve(rows, width int) {
	if a, ok := b.mem.(*Arena); ok && len(b.Cells)+rows*width > cap(b.Cells) {
		b.Cells = a.grow(b.Cells, rows*width)
	} else {
		b.Cells = grow(b.mem, b.Cells, rows*width)
	}
}

// Empty drops the block's rows and its room: the last block at an
// Arena's bottom gives that room back.
func (b *Block) Empty() {
	if a, ok := b.mem.(*Arena); ok && a.isLast(b.Cells) {
		a.bottom, a.last = a.base, nil
	}
	b.N, b.Cells = 0, nil
}

// grow returns s with room for n more elements: s when it has it, else
// a copy carved from m at exactly that size — grown as append grows a
// slice when m is nil.
func grow[E Elem](m Mem, s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	} else if m == nil {
		return slices.Grow(s, n)
	}
	t := Carve[E](m, len(s)+n)[:len(s)]
	copy(t, s)
	return t
}

// Flush hands the rows of a sink unit's block to the job's sink
// (Job.Sink) once they reach UnitRows, emptying the block; on any other
// block it does nothing. A unit calls it at key or group boundaries, so
// where it falls depends on the unit's rows alone.
func (b *Block) Flush() {
	if b.sink != nil && b.N >= UnitRows {
		b.sink.flush(b)
	}
}

// Append copies one row's cells onto the block.
func (b *Block) Append(row Row) { copy(b.Extend(1, len(row)), row) }

// AppendBlock copies all of o's rows onto the block.
func (b *Block) AppendBlock(o Block) { copy(b.Extend(o.N, o.Width), o.Cells) }

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

// Meter counts one node's (or one unit's) simulated work during one
// phase: the tuples behind each cost term of Section 5.4. The counts
// are integers, so a node's meter is the exact sum of its units' in
// whatever order they ran; Cluster.fold prices it.
type Meter struct {
	Reads, Writes, Checks, Joins, Shuffled int64
}

// Read counts reading n tuples.
func (m *Meter) Read(n int) { m.Reads += int64(n) }

// Write counts writing n tuples.
func (m *Meter) Write(n int) { m.Writes += int64(n) }

// Check counts n filter/projection evaluations.
func (m *Meter) Check(n int) { m.Checks += int64(n) }

// Join counts n tuples processed through a join.
func (m *Meter) Join(n int) { m.Joins += int64(n) }

// Shuffle counts n tuples received over the network.
func (m *Meter) Shuffle(n int) { m.Shuffled += int64(n) }

// add adds o's counts to m.
func (m *Meter) add(o *Meter) {
	m.Reads += o.Reads
	m.Writes += o.Writes
	m.Checks += o.Checks
	m.Joins += o.Joins
	m.Shuffled += o.Shuffled
}

// UnitRows is M, the bound on a unit of work: a map unit reads at most
// M rows of one input plus one key's run, and a unit of a job with a
// sink hands its rows to the sink every M rows, at a key or group
// boundary. It is unitRows; a test may set another while no execution
// runs (math.MaxInt: no bound).
var UnitRows = unitRows

const unitRows = 4096

// Job describes one MapReduce job as independently schedulable morsels.
//
// MapMorsel runs MapMorsels(node) times per node; it may emit keyed
// records into the shuffle (Emitter.EmitAll) and, in a map-only job, write
// rows to out. Morsels of one node may run on different lanes
// concurrently, so per-call scratch must be indexed by the lane
// argument, and the concatenation of a node's morsel emissions and rows
// in morsel order must equal what one per-node sweep would produce (the
// shuffle reads the emissions in that order); what the morsels count
// must add up to the sweep's. ReduceRange — nil for a map-only job —
// runs over one group-aligned key range of the records routed to a
// node, grouped by exact key and presented in canonical key order
// through the Groups iterator; ranges partition the node's canonical
// group order, at most one per lane, so a node's rows in range order are
// what one sweep over its groups would write. The closures must count
// their work on the provided Meter. out is the block the job's sink
// takes: nil without a sink, and for the map morsels of a job with a
// reduce phase.
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
	// Sink, if non-nil, is the job's one exit: it takes the rows of every
	// unit of the job's output phase — a map morsel of a map-only job, a
	// reduce range otherwise — with the unit's node, on its lane, every M
	// rows (Block.Flush) and as the unit ends. The unit writes into a
	// block that grows at the bottom of its lane's arena, emptied as the
	// sink takes it, so the sink copies what it keeps; the runtime counts
	// the rows it took as the job's output.
	Sink func(node, lane int, rows Block)
}

// ClassicJob adapts the classic MapReduce form — mapFn once per node,
// reduce (nil for a map-only job) once per group routed to a node, in
// canonical key order — to the morsel form. out is the block the job's
// sink takes, as Job's is: nil for mapFn unless the job is map-only, and
// always without a sink.
func ClassicJob(name string, mapFn func(node int, m *Meter, emit *Emitter, out *Block), reduce func(node int, m *Meter, g Group, out *Block)) Job {
	job := Job{Name: name, MapMorsel: func(node, _, _ int, m *Meter, emit *Emitter, out *Block) { mapFn(node, m, emit, out) }}
	if reduce != nil {
		job.ReduceRange = func(node, _, _, _ int, m *Meter, groups *Groups, out *Block) {
			groups.Each(func(g Group) { reduce(node, m, g, out) })
		}
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
	Shuffled      int     // tuples through the shuffle
	ShuffledCells int     // total row cells through the shuffle (volume)
	Output        int     // rows the job's sink took
	Time          float64 // init + map + shuffle + reduce
}

// JobRecord is what one executed job came to: its JobStats, priced, and
// its share of the total work. Replay logs them as the live run did, so
// the result cache serves answers with stats bit-identical to an
// uncached run without running the job. Neither depends on the lanes;
// both are priced with the recording cluster's cost constants, so a
// record replays only where those hold (the engine's own cache). The
// query-dependent job name is left unset: Replay stamps one.
type JobRecord struct {
	stats JobStats // priced; name unset
	work  float64  // the job's share of the total work
}

// MemBytes is the record's resident size for cache accounting: the
// struct alone, its name unset.
func (r *JobRecord) MemBytes() int64 { return int64(unsafe.Sizeof(*r)) }

// Replay logs the recorded job as if it had just run, under name.
func (cl *Cluster) Replay(name string, r *JobRecord) JobStats {
	stats := r.stats
	stats.Name = name
	return cl.log(stats, r.work)
}

// log appends a job's stats and work share to the cluster's log: live
// runs and replays alike.
func (cl *Cluster) log(stats JobStats, work float64) JobStats {
	cl.totalWork += work
	cl.Jobs = append(cl.Jobs, stats)
	return stats
}

// phases splits a job's meter table — one meter per node for the map
// phase, then, unless the job is map-only, one per node for the shuffle
// and one per node for the reduce phase — into its phases.
func phases(meters []Meter, mapOnly bool) (mapM, shufM, redM []Meter) {
	if mapOnly {
		return meters, nil, nil
	}
	n := len(meters) / 3
	return meters[:n], meters[n : 2*n], meters[2*n:]
}

// fold prices a job's meter table with the cost constants — the one
// place they are applied — and turns it, plus the integer counters
// already in stats, into the job's JobStats and total-work share. Phase
// times are maxima over nodes; work sums the map totals in node order,
// then per node the shuffle and reduce totals, then the job-init cost.
func (cl *Cluster) fold(stats JobStats, meters []Meter) (JobStats, float64) {
	c := &cl.C
	work := 0.0
	peak := func(phase *float64, m *Meter) {
		io := c.Read*float64(m.Reads) + c.Write*float64(m.Writes)
		cpu := c.Check*float64(m.Checks) + c.Join*float64(m.Joins)
		t := io + cpu + c.Shuffle*float64(m.Shuffled)
		if t > *phase {
			*phase = t
		}
		work += t
	}
	mapM, shufM, redM := phases(meters, stats.MapOnly)
	for i := range mapM {
		peak(&stats.MapTime, &mapM[i])
	}
	for i := range shufM {
		peak(&stats.ShuffleTime, &shufM[i])
		peak(&stats.ReduceTime, &redM[i])
	}
	stats.Time = c.JobInit + stats.MapTime + stats.ShuffleTime + stats.ReduceTime
	return stats, work + c.JobInit
}

// Cluster is a simulated MapReduce cluster of Nodes nodes.
//
// Phases run as morsels (RunWith), mirroring the real parallelism
// CliqueSquare's flat plans exploit. Each morsel counts on a meter of
// its own, and the meters are summed as integers afterwards, so JobStats
// do not depend on scheduling.
type Cluster struct {
	// Nodes is the number of nodes jobs run on. An executor sets it
	// from the epoch it pins, so a concurrent resize cannot skew routing
	// mid-query.
	Nodes int
	C     Constants

	// Jobs lists per-job stats in execution order.
	Jobs []JobStats

	totalWork float64
}

// RunOptions is what one RunWith call borrows from its caller. The zero
// value means: one inline lane, a scratch of the run's own, no record.
type RunOptions struct {
	// Pool supplies the worker lanes: the job runs on Pool.Lanes() of
	// them, and a nil pool is one lane, inline on the caller.
	Pool *Pool
	// Scratch, if non-nil, provides the reusable buffers; nil is a
	// scratch whose empty Bufs takes every piece from the Go heap.
	Scratch *Scratch
	// Record, if non-nil, is filled with what the job came to (see
	// JobRecord). It shares nothing with Scratch, so it outlives the
	// run and any Scratch reuse.
	Record *JobRecord
}

// slot is the private state of one schedulable unit — a map morsel or
// a reduce key range: whose it is, what it metered and what it
// produced. A unit writes only its own slot, so lanes share no mutable
// state.
type slot struct {
	node, idx, of int    // the node, and the unit's index among that node's of units
	meter         Meter  // what the unit counted
	count, cells  int    // tuples and row cells emitted into the shuffle
	sinks         bool   // the job's sink takes the unit's rows
	sunk          int    // rows it took
	groups        Groups // a key range's records
}

// layout returns the slot table s sized for one phase: units(node)
// slots per node, in node order, each a fresh header, whose rows the
// job's sink takes when sinks is set.
func layout(s []slot, n int, sinks bool, units func(node int) int) []slot {
	s = s[:0]
	for node := 0; node < n; node++ {
		k := units(node)
		for i := 0; i < k; i++ {
			s = append(s, slot{node: node, idx: i, of: k, sinks: sinks})
		}
	}
	return s
}

// resize returns buf at n elements. Positions hold headers only — the
// pool holds the bytes — so what a longer run left beyond n needs no
// keeping, and the caller resets the elements it is about to use.
func resize[E any](buf []E, n int) []E { return slices.Grow(buf[:0], n)[:n] }

// ResetBlocks returns buf at n empty blocks carving from p. Positions
// hold headers and the pool holds bytes: no block keeps cells.
func ResetBlocks(buf []Block, n int, p *Bufs) []Block {
	clear(buf)
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = NewBlock(p)
	}
	return buf
}

// bucket holds what one map morsel emitted for one destination node:
// each tuple's key cells but the first and its row cells, one tuple
// after the other, and one run header per stretch of tuples of one
// shape.
type bucket struct {
	runs  []run
	cells []rdf.TermID
}

// shape is what the tuples of one run share: col0 is the row column
// holding the first key cell, which no bucket stores.
type shape struct {
	group, width, col0 uint32
	tag, nkey          uint16
}

// run is a stretch of n tuples of one shape that a bucket holds back to
// back from cell off. A CSQ map morsel emits one run per bucket.
type run struct {
	shape
	off, n uint32
}

// Emitter is a lane's handle on the run — its shuffle and its sink —
// while it runs one unit. The runtime keeps one per lane, retargeted.
type Emitter struct {
	sc      *Scratch // the run: its cluster size, job and pool, whose top the buckets are carved from
	lane    int      // the lane it is the handle of
	unit    *slot    // the running unit: its counters
	out     Block    // the rows the unit writes for the job's sink
	buckets []bucket // the unit's per-destination buckets
	counts  []int    // EmitAll's per-destination tuple counts
}

// flush hands the rows of its lane's unit to the job's sink and empties
// the block.
func (e *Emitter) flush(b *Block) {
	if e.unit.sunk += b.N; b.N > 0 {
		e.sc.job.Sink(e.unit.node, e.lane, *b)
	}
	b.Empty()
}

// dest returns the node the key (group, row[keyCols...]) routes to.
func (e *Emitter) dest(group uint32, row Row, keyCols []int) int {
	h := hashCell(fnv32Offset, group)
	for _, c := range keyCols {
		h = hashCell(h, uint32(row[c]))
	}
	return route(h, e.sc.n)
}

// EmitAll sends every row of rel into the shuffle, in order, each under
// the key (group, row[keyCols...]) with the given input tag (which join
// input the rows belong to). A row's cells and key cells but the first
// (routing reads that off the row) are copied once, into the bucket the
// key routes to: rel may be reused. It counts first what each
// destination gets, so that each bucket is carved once, at its size,
// from the top of the pool.
func (e *Emitter) EmitAll(group uint32, tag int, rel Block, keyCols []int) {
	m := (*top)(e.sc.Bufs)
	e.counts = resize(e.counts, e.sc.n)
	clear(e.counts)
	for i := 0; i < rel.N; i++ {
		e.counts[e.dest(group, rel.Row(i), keyCols)]++
	}
	sh := shape{group: group, width: uint32(rel.Width), tag: uint16(tag), nkey: uint16(len(keyCols))}
	rest := keyCols // the key columns a bucket stores: all but the first
	if len(keyCols) > 0 {
		sh.col0, rest = uint32(keyCols[0]), keyCols[1:]
	}
	for d, k := range e.counts {
		b := &e.buckets[d]
		switch n := len(b.runs); {
		case k == 0:
			continue
		case n > 0 && b.runs[n-1].shape == sh:
			b.runs[n-1].n += uint32(k)
		default:
			b.runs = append(grow(m, b.runs, 1), run{shape: sh, off: uint32(len(b.cells)), n: uint32(k)})
		}
		b.cells = grow(m, b.cells, k*(len(rest)+rel.Width))
	}
	for i := 0; i < rel.N; i++ {
		row := rel.Row(i)
		b := &e.buckets[e.dest(group, row, keyCols)]
		for _, c := range rest {
			b.cells = append(b.cells, row[c])
		}
		b.cells = append(b.cells, row...)
	}
	e.unit.count += rel.N
	e.unit.cells += rel.N * rel.Width
}

// Scratch holds the positions one RunWith fills: per-(morsel,
// destination) buckets, the cuts of each node's key ranges, the slot
// tables, the meters and the per-lane emitters. Their bytes come from
// Bufs, which must be non-nil: the buckets from its top, taken back as
// the run returns, and what a unit computes in from its lane's arena,
// emptied after each unit. A Scratch serves one run at a time.
type Scratch struct {
	Bufs *Bufs

	buckets []bucket  // map slot*n+dest -> what the morsel emitted for dest
	cuts    [][]place // node -> where its key ranges after the first start
	meters  []Meter   // the job's meter table (see phases)

	// One slot per unit of each phase, in canonical order.
	morsels, ranges []slot

	lanes []Emitter

	// The run in flight — its job and cluster size — and the phases'
	// per-unit functions, bound once so that handing them to the pool
	// allocates nothing.
	job                    Job
	n                      int
	mapFn, cutFn, reduceFn func(i, lane int)
}

// begin points a lane at the unit it is about to run and returns the
// block the unit writes: under a sink, one that grows at the bottom of
// the lane's arena; else nil.
func (sc *Scratch) begin(lane int, u *slot) *Block {
	e := &sc.lanes[lane]
	if e.unit = u; !u.sinks {
		return nil
	}
	e.out = NewBlock(sc.Bufs.Lane(lane))
	e.out.sink = e
	return &e.out
}

// end ends a lane's unit: the sink takes its rows, and the lane's arena
// is emptied.
func (sc *Scratch) end(lane int, u *slot) {
	if e := &sc.lanes[lane]; u.sinks {
		e.flush(&e.out)
		e.out = Block{}
	}
	sc.Bufs.empty(lane)
}

// mapUnit, cutDest and reduceUnit are the phases' units: map morsel i,
// whose runs are then sorted; the tuples routed to dest, counted, and
// the cuts of one key range per lane; reduce range i.
func (sc *Scratch) mapUnit(i, lane int) {
	u := &sc.morsels[i]
	dst := sc.begin(lane, u)
	e := &sc.lanes[lane]
	e.buckets = sc.buckets[i*sc.n : (i+1)*sc.n]
	sc.job.MapMorsel(u.node, u.idx, lane, &u.meter, e, dst)
	sc.end(lane, u)
	sortRuns(e.buckets, sc.Bufs.Lane(lane))
	sc.Bufs.empty(lane)
}

func (sc *Scratch) cutDest(dest, lane int) {
	total := 0
	for b := dest; b < len(sc.buckets); b += sc.n {
		for _, r := range sc.buckets[b].runs {
			total += int(r.n)
		}
	}
	_, shufM, _ := phases(sc.meters, false)
	shufM[dest].Shuffle(total)
	sc.cuts[dest] = cutRanges(sc.buckets, dest, sc.n, len(sc.lanes), total, sc.cuts[dest][:0], sc.Bufs.Lane(lane))
	sc.Bufs.empty(lane)
}

func (sc *Scratch) reduceUnit(i, lane int) {
	u := &sc.ranges[i]
	dst := sc.begin(lane, u)
	u.groups.mem = sc.Bufs.Lane(lane)
	sc.job.ReduceRange(u.node, u.idx, u.of, lane, &u.meter, &u.groups, dst)
	sc.end(lane, u)
}

// release ends a run, also one that panics: it drops every header into
// the pool and the job, and takes back the buckets, which only the run
// reads.
func (sc *Scratch) release() {
	clear(sc.buckets)
	clear(sc.morsels)
	clear(sc.ranges)
	for i := range sc.lanes {
		e := &sc.lanes[i]
		e.sc, e.unit, e.out, e.buckets = nil, nil, Block{}, nil
	}
	sc.job = Job{}
	sc.Bufs.endJob()
}

// NewCluster creates a cluster of the given number of nodes.
func NewCluster(nodes int, c Constants) *Cluster {
	return &Cluster{Nodes: nodes, C: c}
}

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

// RunWith executes one job: its map units, then, unless it is map-only,
// its shuffle and its reduce ranges. The units of the output phase hand
// their rows to the job's sink.
//
// Determinism: JobStats, and the rows each unit hands the sink, are
// byte-identical whatever the lane count or scheduling. Meters and the
// other counters are integer sums, which no order changes; the shuffle
// input of every destination is the concatenation of pre-routed
// per-(source, destination) buckets in (source node, morsel) order; and
// reduce ranges are cut at group boundaries. On one lane the sink takes
// the units in canonical (node, morsel) — or (node, range) — order; on
// several, concurrently.
func (cl *Cluster) RunWith(job Job, opts RunOptions) {
	n := cl.Nodes
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{Bufs: new(Bufs)}
	}
	defer sc.release()
	if sc.mapFn == nil {
		sc.mapFn, sc.cutFn, sc.reduceFn = sc.mapUnit, sc.cutDest, sc.reduceUnit
	}
	pool := opts.Pool
	sc.job, sc.n = job, n
	sc.lanes = resize(sc.lanes, pool.Lanes())
	for i := range sc.lanes {
		sc.lanes[i].sc, sc.lanes[i].lane = sc, i
	}
	sc.Bufs.Lane(pool.Lanes() - 1) // lanes are added while none runs
	stats := JobStats{Name: job.Name, MapOnly: job.ReduceRange == nil}
	if stats.MapOnly {
		sc.meters = resize(sc.meters, n)
	} else {
		sc.meters = resize(sc.meters, 3*n)
	}
	clear(sc.meters)
	mapM, _, redM := phases(sc.meters, stats.MapOnly)

	// merge adds finished units' counts to their nodes' and the job's.
	merge := func(units []slot, nodeM []Meter) {
		for i := range units {
			u := &units[i]
			nodeM[u.node].add(&u.meter)
			stats.Shuffled += u.count
			stats.ShuffledCells += u.cells
			stats.Output += u.sunk
		}
	}

	// ---- Map phase: one unit per (node, morsel). ----
	sc.morsels = layout(sc.morsels, n, job.Sink != nil && stats.MapOnly, func(node int) int {
		if job.MapMorsels == nil {
			return 1
		}
		return job.MapMorsels(node)
	})
	sc.buckets = resize(sc.buckets, len(sc.morsels)*n)
	pool.ForEach(len(sc.morsels), sc.mapFn)
	merge(sc.morsels, mapM)

	// ---- Shuffle + reduce phases. ----
	if !stats.MapOnly {
		sc.cuts = resize(sc.cuts, n)
		// Per destination: its tuples counted, its key ranges cut.
		pool.ForEach(n, sc.cutFn)
		// One unit per (node, range): ranges of all nodes share one queue.
		sc.ranges = layout(sc.ranges, n, job.Sink != nil, func(node int) int { return len(sc.cuts[node]) + 1 })
		for i := range sc.ranges {
			u := &sc.ranges[i]
			u.groups = Groups{bk: sc.buckets, dest: u.node, n: n, cuts: sc.cuts[u.node], k: u.idx}
		}
		pool.ForEach(len(sc.ranges), sc.reduceFn)
		merge(sc.ranges, redM)
	}

	stats, work := cl.fold(stats, sc.meters)
	if rec := opts.Record; rec != nil {
		*rec = JobRecord{stats: stats, work: work}
		rec.stats.Name = ""
	}
	cl.log(stats, work)
}

// EncodeKey builds the seed runtime's string shuffle key from a group
// identifier and attribute values. The execution path keys tuples
// in binary (Emitter.EmitAll); this encoding is retained as the reference
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
