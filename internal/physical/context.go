package physical

import (
	"runtime"
	"slices"
	"sync/atomic"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// ExecContext is the one object that runs compiled plans (Run): the
// worker lanes jobs run on, the cluster clock they are timed on, an
// optional per-job stats sink, and the reusable scratch (per-lane
// arenas, shuffle buffers, plan-shaped intermediate tables) every
// execution draws from. One ExecContext may serve many plan executions;
// the scratch amortizes allocations across them. An ExecContext serves
// one execution at a time: a caller running plans concurrently gives
// each its own context (the csq engine keeps a pool of them).
//
// What an execution works out is only what the epoch and the dictionary
// decide — the ids of the plan's constants, once per scan, the map
// morsels of each job and the partition files a scan reads (listed by
// value from those ids); the rest of the schedule is the compiled Plan's.
//
// Ownership: every buffer that lives inside one execution comes from
// the context's scratch (mapreduce.Bufs) and is filled once. What a
// morsel computes in comes from its lane's arena, emptied when the
// morsel ends: the blocks it fills one at a time (scan and map-join
// blocks, a reduce join's rows in a key range, a last-job unit's raw
// rows, handed to the job's sink every M rows) grow in place at the
// arena's bottom, its counted temporaries (a reduce group's inputs and
// merge state, and the scratch of mapreduce.SortRows as it sorts a join
// input, a map morsel's runs or a part) come from its top, and a part is
// packed between the two. A morsel reads at most M rows of one input
// plus one key's run, so an arena holds one bounded unit. The outputs
// (intermediate relations, each carved once at its row count as its key
// range ends, the answer's packed parts and the answer merged from them)
// last until release, which, at the end of Run (also when its consumer
// panics), drops every header and resets the scratch; the shuffle's
// buckets last their job. The scratch keeps the lanes times the most a
// morsel held at once plus the most the outputs held at once — a
// function of plan, data and lane count, never of the schedule — and
// holds each tuple once.
// Run lends the packed answer to its callback as a Rows, decoded as it
// is read; what outlives the execution (Rows.Materialise, a result-cache
// entry's Rows.pack) is copied into exactly sized arrays of its own. A
// result-cache hit reads none of this scratch: it never prepares the
// context.
//
// The lane count and the cost constants are fixed by NewExecContext. A
// context owns no goroutine: each phase of a job starts its helper lanes
// and waits for them (mapreduce.Pool), so an idle context is memory only
// and needs no closing.
type ExecContext struct {
	// StatsSink, if non-nil, receives each job's stats as the job
	// completes (before the next job starts).
	StatsSink func(mapreduce.JobStats)

	// pool is the context's worker lanes.
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

	// The execution in flight: its plan, the epoch it reads, the
	// dictionary its constants resolve through, and the cluster clock
	// its jobs are logged on (its cost constants fixed, its log's array
	// kept). The job callbacks are bound once and read them.
	plan    *Plan
	view    *partition.View
	dict    *rdf.Dict
	cluster mapreduce.Cluster
	job     mapreduce.Job

	// consts are, per scan of the plan (by Info ID), its constants' ids;
	// interm[id][node][rng] is a reduce join's output in one key range of
	// one node — in range order, a node's ranges are its relation; morsels
	// is the per-node map-morsel table of the current job, built
	// sequentially before the job runs.
	consts  []scanConsts
	interm  [][][]mapreduce.Block
	morsels [][]mapMorsel

	// The answer: the last job's sink (packPart, bound once) sorts every M
	// rows of a unit, drops repeats and packs them as a part, kept in its
	// lane's arena's list; mergeParts gathers the parts in parts and
	// merges them into answer, what a Rows of the execution reads,
	// decoding into the rows of decode its readers claim, free ones set in
	// free.
	parts  []mapreduce.Packed
	answer mapreduce.Packed
	decode []rdf.TermID
	free   atomic.Uint64
	sink   func(node, lane int, rows mapreduce.Block)
}

// scanConsts are one scan's constants for one execution: the dictionary
// id at each position that holds one (NoTerm where a variable stands),
// and whether some constant is missing from the dictionary — such a scan
// reads, charges and emits nothing.
type scanConsts struct {
	ids    [3]rdf.TermID
	absent bool
}

// mapMorsel is one schedulable unit of a job's map phase on one node:
// a key range of operator in — of one partition file for a scan, of the
// inputs for a map join, of the re-read output for a reduce join — input
// tag of reduce join rj, or with rj nil a map-only plan's root.
type mapMorsel struct {
	rj, in *Info
	sp     *scanPlan        // in's scan, when in is one
	tag    int              // the input's index within rj (the emitted records' tag)
	file   partition.FileID // partition file of a scan morsel
	rng    int              // key range of the re-read output of a shuffler morsel
	lo, hi rdf.TermID       // the keys a scan or map-join morsel reads: [lo, hi), hi NoTerm unbounded
}

// NewExecContext returns a context running jobs on the given number of
// lanes (0 or less means GOMAXPROCS), timed with the cost constants k.
// It builds memory only.
func NewExecContext(lanes int, k mapreduce.Constants) *ExecContext {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	c := &ExecContext{pool: mapreduce.NewPool(lanes), cluster: mapreduce.Cluster{C: k}}
	c.shuffle.Bufs = &c.bufs
	for lane := 0; lane < lanes; lane++ {
		c.arenas = append(c.arenas, &arena{mem: c.bufs.Lane(lane)})
	}
	c.sink = c.packPart
	c.job = mapreduce.Job{MapMorsels: func(node int) int { return len(c.morsels[node]) }, MapMorsel: c.mapMorsel, ReduceRange: c.levelReduce}
	return c
}

// lanes is the number of worker lanes executions through this context
// run on.
func (c *ExecContext) lanes() int { return c.pool.Lanes() }

// prepare readies the context for running the plan in flight: its
// scans' constants resolved through the dictionary, and every reduce
// join's blocks emptied for nodes × lanes key ranges — all pre-sized, so
// concurrent morsel workers index already-built tables without
// synchronization. Every buffer is carved from the context's scratch as
// it is filled.
func (c *ExecContext) prepare() {
	pp, nodes := c.plan, c.view.Nodes()
	n := len(pp.Infos)
	c.consts = slices.Grow(c.consts[:0], n)[:n]
	for len(c.interm) < n {
		c.interm = append(c.interm, nil)
	}
	for _, in := range pp.Infos {
		switch in.Kind {
		case KindScan:
			c.consts[in.ID] = c.lookupConsts(pp.Logical.Query.Patterns[in.Op.Pattern])
		case KindReduceJoin:
			per := slices.Grow(c.interm[in.ID][:0], nodes)[:nodes]
			for node := range per {
				per[node] = mapreduce.ResetBlocks(per[node], c.lanes(), &c.bufs)
			}
			c.interm[in.ID] = per
		}
	}
}

// lookupConsts resolves tp's constants through the execution's
// dictionary.
func (c *ExecContext) lookupConsts(tp sparql.TriplePattern) (k scanConsts) {
	for p := rdf.SPos; p <= rdf.OPos; p++ {
		if pt := tp.At(p); !pt.IsVar {
			id, ok := c.dict.Lookup(pt.Term)
			k.ids[p], k.absent = id, k.absent || !ok
		}
	}
	return k
}

// release ends the execution: it drops the plan, epoch and dictionary,
// the operators the morsel table names, and every header into the
// scratch the execution carved, and resets the scratch.
func (c *ExecContext) release() {
	c.plan, c.view, c.dict = nil, nil, nil
	for _, per := range c.morsels[:cap(c.morsels)] {
		clear(per[:cap(per)])
	}
	for _, a := range c.arenas {
		a.release()
	}
	clear(c.parts)
	for _, per := range c.interm {
		for node := range per {
			per[node] = mapreduce.ResetBlocks(per[node], 0, nil)
		}
	}
	c.answer, c.decode = mapreduce.Packed{}, nil
	c.bufs.Reset()
}

// ScratchBytes reports the bytes the context's scratch holds.
func (c *ExecContext) ScratchBytes() int64 { return c.bufs.Bytes() }

// arena is one worker lane's reusable scratch for local evaluation: the
// headers of the blocks scans and map joins write to, the cursors
// naryJoin needs per call, and reduce-group inputs. Blocks take their
// bytes from mem — the blocks filled at its bottom, the group inputs
// carved from its top — emptied when the morsel ends: nothing in them
// may be used after that. A join builds nothing there: it merges its
// inputs where they lie.
type arena struct {
	mem *mapreduce.Arena // the lane's arena in the context's scratch

	// blocks is the morsel-scoped block stack: a morsel's local
	// evaluation takes one block per relation it builds (nextBlock), and
	// the next morsel on the lane takes the same blocks again.
	blocks []*mapreduce.Block
	used   int

	at, lo, hi []int // per join child: the current row's cell offset, the current key's run

	sorts int // the join children that arrived out of key order (sortOn)

	files []partition.FileID // the files a scan reads (ExecContext.files)

	// per-group join inputs of the reduce phase (groupInputs) and a map
	// join's inputs (mapJoin). A lane runs a map morsel or a reduce
	// range, never both at once.
	groupRels  []mapreduce.Block
	joinInputs []mapreduce.Block

	// parts are the answer's parts the lane's units packed (packPart).
	parts []mapreduce.Packed
}

// nextBlock hands out the morsel's next block, empty, for rows of the
// given width, growing at the bottom of the lane's arena once the blocks
// before it are filled. The block is valid until the lane's morsel ends.
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
	clear(a.parts)
	a.parts = a.parts[:0]
}

// groupInputs returns the group's records split by input — rj's
// children — their cells copied out of the shuffle buffers into blocks
// carved from the top of the lane's arena, each at the count of its
// input's records: the join reorders its inputs' cells, and its rows
// fill the bottom meanwhile.
func (a *arena) groupInputs(g mapreduce.Group, rj *Info) []mapreduce.Block {
	children := rj.Op.Children
	for len(a.groupRels) < len(children) {
		a.groupRels = append(a.groupRels, mapreduce.Block{})
	}
	rels := a.groupRels[:len(children)]
	for i := range rels {
		rels[i].N = 0
	}
	g.Records(func(tag int, _ mapreduce.Row) { rels[tag].N++ })
	for i, ch := range children {
		rels[i].Width = len(ch.Attrs)
		rels[i].Cells = mapreduce.Carve[rdf.TermID](a.mem, rels[i].N*rels[i].Width)[:0]
		rels[i].N = 0
	}
	g.Records(func(tag int, row mapreduce.Row) { rels[tag].Append(row) })
	return rels
}

// grow sizes the per-child cursors for a join of nc inputs.
func (a *arena) grow(nc int) {
	for len(a.at) < nc {
		a.at, a.lo, a.hi = append(a.at, 0), append(a.lo, 0), append(a.hi, 0)
	}
}
