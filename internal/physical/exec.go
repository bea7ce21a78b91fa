package physical

import (
	"slices"
	"sort"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
)

// Result is the outcome of executing one physical plan.
type Result struct {
	// Schema is the output column order (the query's SELECT variables).
	Schema []string
	// N is the number of distinct result tuples, set by every entrance.
	N int
	// Rows are the distinct result tuples, sorted for determinism —
	// filled only by a caller that copies them out (csq.Engine.ExecutePlan:
	// Rows.Materialise, a fresh block of the caller's); Run leaves it nil
	// and lends its callback the rows instead.
	Rows []mapreduce.Row
	// Jobs are the per-job simulator statistics for this execution.
	Jobs []mapreduce.JobStats
	// Time is the simulated response time (sum of job times).
	Time float64
	// Work is the simulated total work across nodes.
	Work float64
	// DataVersion is the store epoch the execution was served from.
	DataVersion uint64
}

// sinkJob forwards the job the cluster logged last — run or replayed —
// to the context's stats sink, if any.
func (c *ExecContext) sinkJob() {
	if c.StatsSink != nil {
		c.StatsSink(c.cluster.Jobs[len(c.cluster.Jobs)-1])
	}
}

// Run executes pp over view — one partition epoch for the whole
// execution: every scan of every job reads it, whatever writers commit
// meanwhile, and jobs route by its cluster size — resolving the
// constants of pp's query through dict, on a fresh cluster clock, and
// hands use the simulated timing (Result.Rows nil, N set) and the
// deduplicated, sorted rows as a borrowed source: the answer packed in
// the context, or a result-cache entry's packed rows, decoded as they
// are read, so whoever only counts, digests or decodes them copies
// nothing. rows is invalid once use returns, and a Row read from it once
// the function it was handed to returns; the Result is the caller's.
//
// With a result cache the answer is served through it, one probe per
// execution under (Plan.Key, view version): a hit replays every job's
// record in job order and lends the entry's packed rows, without
// touching the context's scratch; a miss runs every job recording and
// copies the packed answer into the entry it admits. Rows and JobStats are
// byte-identical either way. The cache must belong to the same engine
// (same cluster geometry, partitioning and dictionary) as the view, and
// the stats it replays were priced with the same cost constants.
func (c *ExecContext) Run(pp *Plan, view *partition.View, dict *rdf.Dict, cache *rescache.Cache, use func(res *Result, rows Rows) error) error {
	defer c.release()
	c.plan, c.view, c.dict = pp, view, dict
	c.cluster = mapreduce.Cluster{Nodes: view.Nodes(), C: c.cluster.C, Jobs: c.cluster.Jobs[:0]}

	var rows Rows
	if cache == nil {
		rows = c.runJobs(nil)
	} else {
		ent, hit := cache.Do(pp.cacheKey(view.Version()), func() *rescache.Entry {
			recs := make([]*mapreduce.JobRecord, pp.NumJobs())
			return rescache.NewEntry(pp.Key(), recs, c.runJobs(recs).pack())
		})
		if hit {
			// Log every job as if it had just run.
			for l, rec := range ent.Recs {
				c.cluster.Replay(pp.jobs[l], rec)
				c.sinkJob()
			}
		}
		rows = packedRows(&ent.Rows, c)
	}

	res := &Result{
		Schema:      append([]string(nil), pp.Logical.Query.Select...),
		N:           rows.Len(),
		Jobs:        slices.Clone(c.cluster.Jobs),
		Work:        c.cluster.TotalWork(),
		DataVersion: view.Version(),
	}
	for _, js := range res.Jobs {
		res.Time += js.Time
	}
	return use(res, rows)
}

// runJobs prepares the context and runs every job of the plan on it —
// a map-only plan is a one-job plan — recording job l into recs[l] when
// recs is non-nil, and forwarding each job's stats to the stats sink.
// The last job's units pack their rows into the context's parts as they
// end; merged, those are the result.
func (c *ExecContext) runJobs(recs []*mapreduce.JobRecord) Rows {
	c.prepare()
	pp := c.plan
	for l := 0; l < pp.NumJobs(); l++ {
		var rec *mapreduce.JobRecord
		if recs != nil {
			rec = &mapreduce.JobRecord{}
			recs[l] = rec
		}
		job, level := c.job, []*Info(nil)
		if pp.MapOnly() {
			job.ReduceRange = nil
		} else {
			level = pp.Levels[l]
		}
		c.buildMorsels(level)
		if l == pp.NumJobs()-1 {
			job.Sink = c.sink // the answer, packed as each unit ends
		}
		job.Name = pp.jobs[l]
		c.cluster.RunWith(job, mapreduce.RunOptions{Pool: c.pool, Scratch: &c.shuffle, Record: rec})
		c.sinkJob()
	}
	return c.mergeParts()
}

// A job's callbacks are the context's, bound once, and read the
// execution in flight off it. mapMorsel evaluates one map morsel, on any
// lane: a shuffler's key range of the previous job's output, or a key
// range of a scan's partition file or of a map join's inputs. It emits
// the rows keyed for the reduce join they feed or, for a map-only plan's
// root, writes the SELECT columns straight into out, the block the job's
// sink packs, flushed every M rows at a key boundary.
func (c *ExecContext) mapMorsel(node, morsel, lane int, m *mapreduce.Meter, emit *mapreduce.Emitter, out *mapreduce.Block) {
	mo, a := &c.morsels[node][morsel], c.arenas[lane]
	a.resetBlocks()
	if mo.in.Kind == KindReduceJoin {
		rel := c.interm[mo.in.ID][node][mo.rng]
		m.Read(rel.N)
		m.Write(rel.N)
		emit.EmitAll(uint32(mo.rj.ID), mo.tag, rel, mo.rj.shuffleCols[mo.tag])
		return
	}
	dst, n := out, 0
	if mo.rj != nil {
		dst = a.nextBlock(len(mo.in.Op.Attrs))
	}
	if file := [1]partition.FileID{mo.file}; mo.in.Kind == KindScan {
		c.scanFiles(dst, mo.sp, node, m, file[:], mo.lo, mo.hi)
		n = dst.N // a scan flushes nothing
	} else {
		n = c.mapJoin(dst, mo.in, node, m, a, mo.lo, mo.hi)
	}
	if mo.rj == nil {
		m.Check(n) // the final projection
	} else {
		emit.EmitAll(uint32(mo.rj.ID), mo.tag, *dst, mo.rj.shuffleCols[mo.tag])
	}
}

// levelReduce runs the reduce side of a level over one key range, in
// one pass: each group's inputs are copied to the top of the lane's
// arena, joined, and cut back as the group ends, counting the joins and
// writes of every group. A reduce join's groups are contiguous in key
// order: its rows in the range fill a block at the bottom of the lane's
// arena and, as its last group ends, move into its own (node, range)
// block, carved from the context's outputs at their size. The plan's
// root, in the last job, joins straight onto the SELECT list (its
// compiled merge writes it), into the block the runtime hands the range
// for the job's sink, which the join flushes every M rows at a group
// boundary, and counts the projection's checks too; the root sorts first
// and the last job holds it alone, so no other block fills the bottom
// beside that one. Range order concatenates back to the node's group
// order, so every reduce join's rows come out as from one sweep.
func (c *ExecContext) levelReduce(node, rng, _, lane int, m *mapreduce.Meter, groups *mapreduce.Groups, out *mapreduce.Block) {
	a := c.arenas[lane]
	rows := mapreduce.NewBlock(a.mem)
	var rj *Info
	// settle moves rj's rows out of the arena.
	settle := func() {
		if rj != nil && rj.ID != 0 {
			dst := &c.interm[rj.ID][node][rng]
			dst.Reserve(rows.N, rows.Width)
			dst.AppendBlock(rows)
			rows.Empty()
		}
	}
	groups.Each(func(g mapreduce.Group) {
		if r := c.plan.Infos[int(g.ID())]; r != rj {
			settle()
			rj = r
		}
		dst := &rows
		if rj.ID == 0 {
			dst = out
		}
		mark := a.mem.Used()
		counts := a.naryJoinInto(dst, a.groupInputs(g, rj), rj.join)
		a.mem.Cut(mark)
		m.Join(counts.in + counts.out)
		m.Write(counts.out)
		if dst == out {
			m.Check(counts.out) // the final projection
		}
	})
	settle()
}

// buildMorsels lays out a job's map morsels per node, in the canonical
// (reduce join, child, file, key range) order a sequential per-node
// sweep evaluates — for a map-only plan (level nil) those of its root.
func (c *ExecContext) buildMorsels(level []*Info) {
	tbl := slices.Grow(c.morsels[:0], c.view.Nodes())[:c.view.Nodes()]
	c.morsels = tbl
	for node := range tbl {
		tbl[node] = tbl[node][:0]
		if level == nil {
			c.addMorsels(node, mapMorsel{in: c.plan.Infos[0], sp: c.plan.rootScan})
		}
		for _, rj := range level {
			for i, ci := range rj.children {
				c.addMorsels(node, mapMorsel{rj: rj, tag: i, in: ci, sp: rj.scans[i]})
			}
		}
	}
}

// addMorsels adds node's morsels of mo.in, each reading at most M rows
// of a run plus one key's run: a key range of a reduce join's re-read
// output, of one partition file of a scan, or of the largest run any
// input of a map join reads, when they all read files placed by the
// cell it merges on, found in each by binary search (one morsel
// otherwise). A scan whose constants miss the dictionary has none. The
// ranges partition a file's, or a map join's, keys: counts add up.
func (c *ExecContext) addMorsels(node int, mo mapMorsel) {
	in, k := mo.in, &c.consts[mo.in.ID]
	switch {
	case in.Kind == KindReduceJoin:
		for mo.rng = range c.interm[in.ID][node] {
			c.morsels[node] = append(c.morsels[node], mo)
		}
	case in.Kind == KindScan:
		for _, mo.file = range c.files(c.arenas[0], mo.sp) {
			if f, ok := c.view.Open(node, mo.file); ok {
				c.cutMorsels(node, mo, f, f.Part(0, k.ids[rdf.SPos], k.ids[rdf.OPos]))
			}
		}
	case in.Kind == KindMapJoin:
		f, r, keyed := partition.File{}, partition.Run{}, in.join.merge
		for i, sp := range in.scans {
			keyed = keyed && sp.varPos[in.join.keyCols[i]] == c.view.ScanPos(sp.pos)
			for _, id := range c.files(c.arenas[0], sp) {
				if g, ok := c.view.Open(node, id); ok {
					for p, ids := 0, c.consts[sp.id].ids; p < g.Parts(); p++ {
						if s := g.Part(p, ids[rdf.SPos], ids[rdf.OPos]); s.Hi-s.Lo > r.Hi-r.Lo {
							f, r = g, s
						}
					}
				}
			}
		}
		if !keyed {
			r = partition.Run{}
		}
		c.cutMorsels(node, mo, f, r)
	}
}

// cutMorsels adds node's morsels mo over the key ranges that cut run r
// of file f into at most M rows plus one key's run: a range ends at the
// key of its M+1-th row or, when one key's run starts the range and
// reaches that row, at the key after the run.
func (c *ExecContext) cutMorsels(node int, mo mapMorsel, f partition.File, r partition.Run) {
	key := func(i int) rdf.TermID { return f.Key(r, r.Lo+i) }
	n, bound := r.Hi-r.Lo, mapreduce.UnitRows
	for start := 0; n-start > bound; {
		k := key(start + bound)
		if k == key(start) {
			end := start + sort.Search(n-start, func(i int) bool { return key(start+i) > k })
			if end == n {
				break
			}
			k = key(end)
		}
		mo.hi = k
		c.morsels[node] = append(c.morsels[node], mo)
		mo.lo, start = k, sort.Search(n, func(i int) bool { return key(i) >= k })
	}
	mo.hi = rdf.NoTerm
	c.morsels[node] = append(c.morsels[node], mo)
}

// mapJoin evaluates map join in over the keys [lo, hi) on one node,
// appending its rows to dst — the job's sink block for a map-only plan's
// root — which grows at the bottom of the lane's arena above its inputs'
// blocks, each filled in turn, and returns how many it wrote. Its inputs
// are scans of the node's replicas partitioned on its first join
// attribute, so that they are co-partitioned (Section 5.1 file layout).
// It runs concurrently across lanes; all other mutable scratch lives in
// the lane's arena (a map join's inputs are scans, so its input list is
// never in use twice at once).
func (c *ExecContext) mapJoin(dst *mapreduce.Block, in *Info, node int, m *mapreduce.Meter, a *arena, lo, hi rdf.TermID) int {
	a.joinInputs = slices.Grow(a.joinInputs[:0], len(in.scans))[:len(in.scans)]
	for i, sp := range in.scans {
		b := a.nextBlock(len(sp.varPos))
		c.scanFiles(b, sp, node, m, c.files(a, sp), lo, hi)
		a.joinInputs[i] = *b
	}
	counts := a.naryJoinInto(dst, a.joinInputs, in.join)
	m.Join(counts.in + counts.out)
	m.Write(counts.out)
	return counts.out
}

// scanPlan is the compiled set-up of one scan edge — a pattern read as
// an input of one join, or as the whole plan: the replica it prefers
// (scanPosition of the parent's first join attribute), whether it checks
// every row (a constant or a repeated variable), the position pairs a
// repeated variable must agree on, and the triple position each column
// written is extracted from. The constants' ids are not part of it: an
// execution resolves them (ExecContext.consts, by id).
type scanPlan struct {
	id      int // the scan's Info ID
	pos     rdf.Pos
	check   bool
	repeats [][2]rdf.Pos
	varPos  []rdf.Pos
}

// newScanPlan compiles the scan in of q's pattern as read under a join
// on coVar ("" for none), writing the columns attrs.
func newScanPlan(in *Info, q *sparql.Query, coVar string, attrs []string) *scanPlan {
	tp := q.Patterns[in.Op.Pattern]
	sp := &scanPlan{id: in.ID, pos: scanPosition(tp, coVar)}
	for p := rdf.SPos; p <= rdf.OPos; p++ {
		pt := tp.At(p)
		sp.check = sp.check || !pt.IsVar
		for r := p + 1; r <= rdf.OPos; r++ {
			if u := tp.At(r); pt.IsVar && u.IsVar && u.Var == pt.Var {
				sp.repeats = append(sp.repeats, [2]rdf.Pos{p, r})
			}
		}
	}
	sp.check = sp.check || len(sp.repeats) > 0
	for _, attr := range attrs {
		p := rdf.SPos // attr's first position
		for pt := tp.At(p); !pt.IsVar || pt.Var != attr; pt = tp.At(p) {
			p++
		}
		sp.varPos = append(sp.varPos, p)
	}
	return sp
}

// files lists, into the arena's list, the partition files scan sp reads
// at the view's replica for it: those its property and, for rdf:type read
// at the property replica, its class select, by the ids of its
// constants. A scan whose constants miss the dictionary reads none.
func (c *ExecContext) files(a *arena, sp *scanPlan) []partition.FileID {
	k := &c.consts[sp.id]
	if k.absent {
		return nil
	}
	a.files = c.view.AppendFiles(a.files[:0], c.view.ScanPos(sp.pos), k.ids[rdf.PPos], k.ids[rdf.OPos])
	return a.files
}

// scanFile scans the rows of one partition file whose keys lie in [lo,
// hi) (hi NoTerm: no bound) for scan sp, whose constants are ids (NoTerm
// where a variable stands), appending its matches to dst. It meters
// those rows — Read, plus Check when the pattern filters — and scans the
// run of each part that the pattern's subject and object constants
// select (partition.File.Part, scanRun), narrowed to the keys by binary
// search (File.Within). A constant on a position the file's ID fixes
// (the property, a class file's object) matches every row or none. The
// metering depends on neither: the simulated Hadoop mapper still reads
// and checks those rows, whichever ones the simulator's CPU visits.
func scanFile(f partition.File, m *mapreduce.Meter, sp *scanPlan, ids [3]rdf.TermID, dst *mapreduce.Block, lo, hi rdf.TermID) {
	n := f.Rows(lo, hi)
	m.Read(n)
	if sp.check {
		m.Check(n)
	}
	var fixed [3]rdf.TermID
	fixed[rdf.PPos], fixed[rdf.OPos] = f.ID().Prop, f.ID().Class
	for p, id := range ids {
		if id != rdf.NoTerm && fixed[p] != rdf.NoTerm && fixed[p] != id {
			return
		}
	}
	for i := 0; i < f.Parts(); i++ {
		scanRun(f.Within(f.Part(i, ids[rdf.SPos], ids[rdf.OPos]), lo, hi), fixed, ids, sp, dst)
	}
}

// scanRun filters the rows of run r by the pattern's subject and object
// constants key (NoTerm: none) and its repeated-variable checks, and
// copies the variable columns of every match onto dst, reading each row
// as a triple: its stored key's cells — (s, o) or an object file's
// (o, s) — over the cells the scanned file's ID fixes. Rows the run
// holds for another node are skipped. Every row of a run matches its
// placed cell's constant, so with no other filter every row matches,
// and dst makes room for them all at once.
func scanRun(r partition.Run, fixed, key [3]rdf.TermID, sp *scanPlan, dst *mapreduce.Block) {
	varPos, repeats := sp.varPos, sp.repeats
	s, o := key[rdf.SPos], key[rdf.OPos]
	first, second := rdf.SPos, rdf.OPos
	if r.Obj {
		first, second = rdf.OPos, rdf.SPos
	}
	if r.Lo == r.Hi {
		return
	} else if key[second] == rdf.NoTerm && len(repeats) == 0 && r.KeepsAll() {
		dst.Reserve(r.Hi-r.Lo, len(varPos))
	}
	c := fixed
rows:
	for _, k := range r.F.Keys()[r.Lo:r.Hi] {
		c[first], c[second] = dstore.Cells(k)
		if s != rdf.NoTerm && c[rdf.SPos] != s || o != rdf.NoTerm && c[rdf.OPos] != o || !r.Keeps(c[second]) {
			continue
		}
		for _, rp := range repeats {
			if c[rp[0]] != c[rp[1]] {
				continue rows
			}
		}
		row := dst.Extend(1, len(varPos))
		for j, p := range varPos {
			row[j] = c[p]
		}
	}
}

// scanFiles appends to dst the columns scan sp writes of the tuples of
// its pattern in the given partition files of one node whose keys lie
// in [lo, hi), applying the pattern's constant and repeated-variable
// filters, in one pass. Files the node does not hold are skipped.
func (c *ExecContext) scanFiles(dst *mapreduce.Block, sp *scanPlan, node int, m *mapreduce.Meter, files []partition.FileID, lo, hi rdf.TermID) {
	k := &c.consts[sp.id]
	for _, id := range files {
		if f, ok := c.view.Open(node, id); ok {
			scanFile(f, m, sp, k.ids, dst, lo, hi)
		}
	}
}

// scanPosition picks the replica a pattern scan reads: the position of
// the co-partition variable if present, else the first variable
// position (subject, then object, then property).
func scanPosition(tp sparql.TriplePattern, coVar string) rdf.Pos {
	if coVar != "" {
		for _, p := range []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos} {
			if pt := tp.At(p); pt.IsVar && pt.Var == coVar {
				return p
			}
		}
	}
	for _, p := range []rdf.Pos{rdf.SPos, rdf.OPos, rdf.PPos} {
		if tp.At(p).IsVar {
			return p
		}
	}
	return rdf.SPos
}
