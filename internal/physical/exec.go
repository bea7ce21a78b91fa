package physical

import (
	"slices"

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
	// Rows are the distinct result tuples, sorted for determinism — filled
	// only by a caller that copies them out (csq.Engine.ExecutePlan:
	// Rows.Materialise, one exactly sized header slice over a fresh block
	// that neither the computing context nor the result cache owns); Run
	// leaves it nil and lends its callback the rows instead. They are the
	// caller's.
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
// deduplicated, sorted rows as a borrowed source: they sit where the
// execution left them — the answer packed in the context, or a
// result-cache entry's packed rows, decoded as they are read — so
// whoever only counts, digests or decodes
// them copies nothing. rows is invalid once use returns, and a Row read
// from it once the function it was handed to returns; the Result is the
// caller's to keep.
//
// With a result cache the answer is served through it, one probe per
// execution under (Plan.Key, view version): a hit replays every job's
// record in job order and lends the entry's packed rows, without
// touching the context's scratch; a miss runs every job recording and
// copies the packed answer into the entry it admits. Rows and JobStats are
// byte-identical either way, and with a cache every request reaches its
// consumer in one form. The cache must belong to the same engine (same
// cluster geometry, partitioning and dictionary) as the view; the
// counts it replays are priced with the context's cost constants.
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
		job := c.mapOnlyJob
		if !pp.MapOnly() {
			c.buildMorsels(pp.Levels[l])
			job = c.levelJob
		}
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
// execution in flight off it. A map-only plan's single job has one
// morsel per node, evaluating the node's whole local subtree with the
// root writing the SELECT columns straight into the block the job's sink
// packs, which grows in place at the bottom of the lane's arena above
// the blocks of a map join's scans. Splitting it, as a level's job
// splits its scans per partition file, is not done.
func (c *ExecContext) mapOnlyMorsel(node, _, lane int, m *mapreduce.Meter, _ *mapreduce.Emitter, out *mapreduce.Block) {
	a := c.arenas[lane]
	a.resetBlocks()
	if sp := c.plan.rootScan; sp != nil {
		c.scanFiles(out, sp, node, m, c.fileNames(a, sp))
	} else {
		c.mapJoin(out, c.plan.Infos[0], node, m, a)
	}
	m.Check(out.N) // the node's only morsel: out holds its rows alone
}

// The job of a level of a plan with reduce joins splits its map side
// into sub-node morsels: one per (reduce join, child) — and per
// partition file for scan children, per key range for shufflers — so
// parallelism isn't capped at the node count. The table is built
// sequentially (buildMorsels) before the job runs; morsels of one node
// may then run on any lane.
func (c *ExecContext) levelMorsels(node int) int { return len(c.morsels[node]) }

func (c *ExecContext) levelMapMorsel(node, morsel, lane int, m *mapreduce.Meter, emit *mapreduce.Emitter, _ *mapreduce.Block) {
	c.runMapMorsel(&c.morsels[node][morsel], node, lane, m, emit)
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
// for the job's sink, and counts the projection's checks too; the root
// sorts first and the last job holds it alone, so no other block fills
// the bottom beside that one. Range order concatenates back to the
// node's canonical group order, so every reduce join's rows come out
// exactly as from one sweep over the node.
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

// buildMorsels lays out one job level's map morsels per node, in the
// canonical (reduce join, child, file or range) order a sequential
// per-node sweep evaluates: one morsel per map-join child, one per
// present partition file for scan children, one per key range of the
// re-read output for map-shuffler children. Scans whose
// constants miss the dictionary produce no morsels (they charge and
// emit nothing anywhere).
func (c *ExecContext) buildMorsels(level []*Info) {
	n := c.view.Nodes()
	tbl := slices.Grow(c.morsels[:0], n)[:n]
	for node := range tbl {
		tbl[node] = tbl[node][:0]
	}
	c.morsels = tbl
	a := c.arenas[0]
	for _, rj := range level {
		for i, ci := range rj.children {
			switch ci.Kind {
			case KindScan:
				if c.consts[ci.ID].absent {
					continue
				}
				names := c.fileNames(a, rj.scans[i])
				for node := 0; node < n; node++ {
					for _, fname := range names {
						if _, ok := c.view.Open(node, fname); ok {
							tbl[node] = append(tbl[node], mapMorsel{rj: rj, tag: i, file: fname})
						}
					}
				}
			case KindMapJoin:
				for node := 0; node < n; node++ {
					tbl[node] = append(tbl[node], mapMorsel{rj: rj, tag: i})
				}
			default:
				for node := 0; node < n; node++ {
					for rng := range c.interm[ci.ID][node] {
						tbl[node] = append(tbl[node], mapMorsel{rj: rj, tag: i, rng: rng})
					}
				}
			}
		}
	}
}

// runMapMorsel evaluates one map morsel — a map shuffler re-reading the
// previous job's output, one partition file of a scan, or a whole
// map-join subtree — and emits its rows keyed for the reduce join it
// feeds.
func (c *ExecContext) runMapMorsel(mo *mapMorsel, node, lane int, m *mapreduce.Meter, emit *mapreduce.Emitter) {
	a := c.arenas[lane]
	a.resetBlocks()
	rj, ci := mo.rj, mo.rj.children[mo.tag]
	var rel mapreduce.Block
	switch ci.Kind {
	case KindReduceJoin:
		// Map shuffler: re-read one key range of an earlier job's output
		// and re-emit it re-keyed. Per range, the counts add up to the
		// node's, and the emissions concatenate, in range order, to its
		// sequence.
		rel = c.interm[ci.ID][node][mo.rng]
		m.Read(rel.N)
		m.Write(rel.N)
	case KindScan:
		// Per file, the counts (Read, plus Check when filtered) add up to
		// the whole scan's, and the emissions concatenate, in file order,
		// to its sequence.
		file := [1]string{mo.file}
		dst := a.nextBlock(len(ci.Op.Attrs))
		c.scanFiles(dst, rj.scans[mo.tag], node, m, file[:])
		rel = *dst
	default:
		dst := a.nextBlock(len(ci.Op.Attrs))
		c.mapJoin(dst, ci, node, m, a)
		rel = *dst
	}
	emit.EmitAll(uint32(rj.ID), mo.tag, rel, rj.shuffleCols[mo.tag])
}

// mapJoin evaluates map join in on one node, appending its rows to dst
// — the job's sink block for a map-only plan's root — which grows at the
// bottom of the lane's arena above its inputs' blocks, each filled in
// turn. Its inputs are scans of the node's replicas partitioned on its
// first join attribute, so that they are co-partitioned (Section 5.1
// file layout). It runs concurrently across lanes; all other mutable
// scratch lives in the lane's arena (a map join's inputs are scans, so
// its input list is never in use twice at once).
func (c *ExecContext) mapJoin(dst *mapreduce.Block, in *Info, node int, m *mapreduce.Meter, a *arena) {
	a.joinInputs = slices.Grow(a.joinInputs[:0], len(in.scans))[:len(in.scans)]
	for i, sp := range in.scans {
		b := a.nextBlock(len(sp.varPos))
		c.scanFiles(b, sp, node, m, c.fileNames(a, sp))
		a.joinInputs[i] = *b
	}
	counts := a.naryJoinInto(dst, a.joinInputs, in.join)
	m.Join(counts.in + counts.out)
	m.Write(counts.out)
}

// scanPlan is the compiled set-up of one scan edge — a pattern read as
// an input of one join, or as the whole plan: the replica it prefers
// (scanPosition of the parent's first join attribute), whether it checks
// every row (a constant or a repeated variable), the position pairs a
// repeated variable must agree on, and the triple position each column
// written is extracted from. The constants' ids are not part of it: an
// execution resolves them (ExecContext.consts, by id).
type scanPlan struct {
	id, pattern int // the scan's Info ID and pattern index
	pos         rdf.Pos
	check       bool
	repeats     [][2]rdf.Pos
	varPos      []rdf.Pos
}

// newScanPlan compiles the scan in of q's pattern as read under a join
// on coVar ("" for none), writing the columns attrs.
func newScanPlan(in *Info, q *sparql.Query, coVar string, attrs []string) *scanPlan {
	tp := q.Patterns[in.Op.Pattern]
	sp := &scanPlan{id: in.ID, pattern: in.Op.Pattern, pos: scanPosition(tp, coVar)}
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

// fileNames resolves the partition files scan sp must read through the
// arena's per-view memo: resolution is pure per (property, class,
// replica position) within one pinned view, so repeated executions
// through a pooled context skip the name formatting entirely. The memo
// keys on those terms, not on the scan: one scan is shared by the plans
// of every query of its written shape, and under Section 5.1's rdf:type
// split it reads other files for another class; nor on the pattern,
// whose subject and object constants name no file.
func (c *ExecContext) fileNames(a *arena, sp *scanPlan) []string {
	if a.fileView != c.view || len(a.fileNames) > fileNamesCap {
		a.fileView = c.view
		if a.fileNames == nil {
			a.fileNames = make(map[fileKey][]string)
		} else {
			clear(a.fileNames)
		}
	}
	tp, pos := c.plan.Logical.Query.Patterns[sp.pattern], c.view.ScanPos(sp.pos)
	k := keyFiles(tp, pos)
	names, ok := a.fileNames[k]
	if !ok {
		names = c.view.Files(tp, pos, c.dict)
		a.fileNames[k] = names
	}
	return names
}

// scanFile scans one partition file for scan sp, whose constants are
// ids (NoTerm where a variable stands), appending its matches to dst. It
// meters the file — Read, plus Check when the pattern filters. It scans
// the run of each part that the pattern's subject and object constants
// select (partition.File.Part, scanRun). A constant on a position the file's
// name fixes (the property, a class file's object) is decided once for
// the whole file: it either matches every row or none. The metering
// depends on neither: the simulated Hadoop mapper still reads and checks
// the whole file, whichever rows the simulator's own CPU visits.
func scanFile(f partition.File, m *mapreduce.Meter, sp *scanPlan, ids [3]rdf.TermID, dst *mapreduce.Block) {
	m.Read(f.NumRows())
	if sp.check {
		m.Check(f.NumRows())
	}
	var fixed [3]rdf.TermID
	fixed[rdf.PPos], fixed[rdf.OPos] = partition.FileTerms(f.Name())
	for p, id := range ids {
		if id != rdf.NoTerm && fixed[p] != rdf.NoTerm && fixed[p] != id {
			return
		}
	}
	for i := 0; i < f.Parts(); i++ {
		scanRun(f.Part(i, ids[rdf.SPos], ids[rdf.OPos]), fixed, ids, sp, dst)
	}
}

// scanRun filters the rows of run r by the pattern's subject and object
// constants key (NoTerm: none) and its repeated-variable checks, and
// copies the variable columns of every match onto dst, reading each row
// as a triple: its stored key's cells — (s, o) or an object file's
// (o, s) — over the cells the scanned file's name fixes. Rows the run
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
// its pattern in the named partition files of one node, applying the
// pattern's constant and repeated-variable filters, in one pass. Files
// the node does not hold are skipped.
func (c *ExecContext) scanFiles(dst *mapreduce.Block, sp *scanPlan, node int, m *mapreduce.Meter, names []string) {
	k := &c.consts[sp.id]
	if k.absent {
		return
	}
	for _, fname := range names {
		if f, ok := c.view.Open(node, fname); ok {
			scanFile(f, m, sp, k.ids, dst)
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
