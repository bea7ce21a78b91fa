package physical

import (
	"fmt"
	"slices"

	"cliquesquare/internal/core"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
)

// Executor runs compiled physical plans on a simulated cluster over
// partitioned data. Its evaluation (scans, map joins, reduce joins) is
// safe for the cluster's concurrent morsel runtime: all shared state
// (plan, partitioner, dictionary, store) is read-only during
// execution, and mutable scratch lives in the ExecContext's per-lane
// arenas.
//
// An Executor (with its Cluster and ExecContext) serves one Execute
// call at a time; the Plan it executes is shared and immutable, so
// concurrent executions of the same compiled plan each use their own
// Executor — that is the contract Engine.ExecutePrepared builds on.
type Executor struct {
	Cluster *mapreduce.Cluster
	Part    *partition.Partitioner
	Dict    *rdf.Dict
	// Ctx carries the worker lanes, the stats sink and the per-lane
	// arenas; nil means a fresh zero-value context, which is one inline
	// lane.
	Ctx *ExecContext
	// View, if non-nil, is the partition epoch the execution reads.
	// When nil, Execute pins the partitioner's current view. Either
	// way one whole execution observes a single epoch: concurrent
	// update batches never become visible mid-query (snapshot
	// isolation), and Result.DataVersion reports the epoch served.
	View *partition.View

	// ResultCache, if non-nil, enables cross-execution answer reuse:
	// Run probes the cache once, under (Plan.Key, view version); on a
	// hit it serves the cached rows read-only and replays every job's
	// recorded counts instead of executing, on a miss it executes every
	// job with recording and admits the answer. Rows and JobStats are
	// byte-identical either way. The cache must belong to the same
	// engine (same cluster geometry, partitioning and dictionary) as the
	// executor; the counts it replays are priced with the executor's
	// cost constants.
	ResultCache *rescache.Cache

	// view is the epoch pinned for the in-flight Execute call.
	view *partition.View
}

// Result is the outcome of executing one physical plan.
type Result struct {
	// Schema is the output column order (the query's SELECT variables).
	Schema []string
	// N is the number of distinct result tuples, set by every entrance.
	N int
	// Rows are the distinct result tuples, sorted for determinism — filled
	// by Execute only (Rows.Materialise: one exactly sized header slice
	// over a fresh block that neither the computing context nor the
	// result cache owns); Run leaves it nil and lends its callback the
	// rows instead. They are the caller's.
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
func (x *Executor) sinkJob() {
	if x.Ctx.StatsSink != nil {
		x.Ctx.StatsSink(x.Cluster.Jobs[len(x.Cluster.Jobs)-1])
	}
}

// Execute runs pp and returns its deduplicated, sorted results together
// with the simulated timing: Run, with the rows copied out
// (Rows.Materialise) for callers that keep them.
func (x *Executor) Execute(pp *Plan) (*Result, error) {
	var res *Result
	err := x.Run(pp, func(r *Result, rows Rows) error {
		r.Rows, res = rows.Materialise(), r
		return nil
	})
	return res, err
}

// Run executes pp and hands use the simulated timing (Result.Rows nil,
// N set) and the deduplicated, sorted rows as a borrowed source: they
// sit where the execution left them — the last job's output in the
// context, sorted and merged as it is read, or a result-cache entry's
// packed rows, decoded as they are read — so whoever only counts,
// digests or decodes them copies nothing. rows is invalid once use
// returns, and a Row read from it once the function it was handed to
// returns; the Result is the caller's to keep. The cluster's job log
// grows by this plan's jobs; timing in the Result covers only them.
//
// With a result cache the answer is served through it, one probe per
// execution: a hit replays every job's record in job order and lends
// the entry's packed rows, without touching the context's scratch; a
// miss runs every job recording and packs the merged rows into the
// entry it admits. Either way the rows are decoded from the entry's own
// bytes, so with a cache every request reaches its consumer in one
// form.
func (x *Executor) Run(pp *Plan, use func(res *Result, rows Rows) error) error {
	if x.Ctx == nil {
		x.Ctx = &ExecContext{}
	}
	defer x.Ctx.release()
	// Pin one partition epoch for the whole execution: every scan of
	// every job reads this snapshot, whatever writers commit meanwhile.
	x.view = x.View
	if x.view == nil {
		x.view = x.Part.Current()
	}
	// Route by the pinned view's size, not the store's live size: a
	// reshard may resize the store mid-query.
	x.Cluster.Nodes = x.view.Nodes()
	jobsBefore := len(x.Cluster.Jobs)
	workBefore := x.Cluster.TotalWork()

	var rows Rows
	if x.ResultCache == nil {
		rows = x.runJobs(pp, nil)
	} else {
		ent, hit := x.ResultCache.Do(pp.Key(), x.view.Version(), func() *rescache.Entry {
			recs := make([]*mapreduce.JobRecord, pp.NumJobs())
			return rescache.NewEntry(pp.Key(), recs, x.runJobs(pp, recs).pack())
		})
		if hit {
			// Log every job as if it had just run.
			for l, rec := range ent.Recs {
				x.Cluster.Replay(jobName(pp, l), rec)
				x.sinkJob()
			}
		}
		rows = packedRows(&ent.Rows, x.Ctx)
	}

	res := &Result{
		Schema:      append([]string(nil), pp.Logical.Query.Select...),
		N:           rows.Len(),
		Work:        x.Cluster.TotalWork() - workBefore,
		DataVersion: x.view.Version(),
	}
	res.Jobs = slices.Clone(x.Cluster.Jobs[jobsBefore:])
	for _, js := range res.Jobs {
		res.Time += js.Time
	}
	return use(res, rows)
}

// runJobs prepares the context and runs every job of the plan on it —
// a map-only plan is a one-job plan — recording job l into recs[l] when
// recs is non-nil. The last job's merged rows are the result.
func (x *Executor) runJobs(pp *Plan, recs []*mapreduce.JobRecord) Rows {
	x.Ctx.prepare(pp, x.view.Nodes())
	var out *mapreduce.Output
	for l := 0; l < pp.NumJobs(); l++ {
		var rec *mapreduce.JobRecord
		if recs != nil {
			rec = &mapreduce.JobRecord{}
			recs[l] = rec
		}
		out = x.runLevel(pp, l, rec)
	}
	return x.Ctx.mergeParts(out.PerNode)
}

// jobName names job l of the plan in the cluster's log.
func jobName(pp *Plan, l int) string {
	if pp.MapOnly() {
		return pp.Logical.Query.Name + "-map-only"
	}
	return fmt.Sprintf("%s-job%d", pp.Logical.Query.Name, l+1)
}

// runLevel executes job l of the plan on the context's lanes — filling
// rec with what it metered when non-nil — and forwards its stats to the
// sink.
func (x *Executor) runLevel(pp *Plan, l int, rec *mapreduce.JobRecord) *mapreduce.Output {
	c := x.Ctx
	c.jobX, c.jobPlan, c.jobLevel = x, pp, l
	job := c.mapOnlyJob
	if !pp.MapOnly() {
		x.buildMorsels(pp, pp.Levels[l])
		job = c.levelJob
	}
	job.Name = jobName(pp, l)
	out := x.Cluster.RunWith(job, mapreduce.RunOptions{
		Pool:    x.Ctx.pool,
		Scratch: &x.Ctx.shuffle,
		Record:  rec,
	})
	x.sinkJob()
	return out
}

// A job's callbacks are the context's, bound once, and read the job in
// flight off it. A map-only plan's single job has one morsel per node,
// evaluating the node's whole local subtree with the root writing the
// SELECT columns straight into the node output, carved at its counted
// size. Splitting it, as a level's job splits its scans per partition
// file, is not done.
func (c *ExecContext) mapOnlyMorsel(node, _, lane int, m *mapreduce.Meter, _ *mapreduce.Emitter, out *mapreduce.Block) {
	x, pp := c.jobX, c.jobPlan
	a := c.arenas[lane]
	a.resetBlocks()
	x.evalInto(out, pp.Logical.Root.Attrs, pp, pp.Root, node, m, "", a)
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
	c.jobX.runMapMorsel(c.jobPlan, &c.morsels[node][morsel], node, lane, m, emit)
}

// levelReduce runs the reduce side of a level per key range: each range
// joins its groups into the reduce join's own (node, range) block,
// counting the joins and writes of every group it produces. The plan's
// root in the last job joins straight onto the SELECT list, into the job
// output the runtime hands the range, and counts the projection's checks
// too. Range order concatenates back to the node's canonical group
// order, so every reduce join's rows come out exactly as from one sweep
// over the node. The SELECT list is read off the final projection, not
// the query: that slice is shared by every bind of the plan, so the
// lanes' join-plan memo, which keys on slice identity, serves all of
// them. levelSize made every block's room; a group's inputs are cut
// back from the lane's arena as the group ends.
func (c *ExecContext) levelReduce(node, rng, _, lane int, m *mapreduce.Meter, groups *mapreduce.Groups, out *mapreduce.Block) {
	a := c.arenas[lane]
	groups.Each(func(g mapreduce.Group) {
		rj := c.byID[int(g.ID())]
		dst, attrs := c.reduceDest(rj, node, rng)
		if dst == nil {
			dst = out
		}
		mark := a.mem.Used()
		counts := a.naryJoinInto(dst, a.groupInputs(g, rj, true), rj.Op.JoinAttrs, attrs, false)
		a.mem.Cut(mark)
		m.Join(counts.in + counts.out)
		m.Write(counts.out)
		if dst == out {
			m.Check(counts.out) // the final projection
		}
	})
}

// levelSize counts before levelReduce fills: it counts the rows each of
// the range's groups joins to — the product of its inputs' rows, which
// share the whole key (so the join's checks on the key's further
// attributes all pass), unless attributes beyond the key are shared,
// when it joins them without writing — carves each reduce join's (node, range) block
// at the rows it will get (a join's groups are contiguous in key order)
// and returns the cells the range will write to the job output.
func (c *ExecContext) levelSize(node, rng, _, lane int, groups *mapreduce.Groups) (cells int) {
	a := c.arenas[lane]
	var rj *Info
	rows := 0
	carve := func() {
		if dst, attrs := c.reduceDest(rj, node, rng); dst != nil {
			dst.Reserve(rows, len(attrs))
		} else {
			cells += rows * len(attrs)
		}
	}
	groups.Each(func(g mapreduce.Group) {
		if r := c.byID[int(g.ID())]; r != rj && rj != nil {
			carve()
			rows = 0
		}
		rj = c.byID[int(g.ID())]
		_, attrs := c.reduceDest(rj, node, rng)
		rels := a.groupInputs(g, rj, false)
		if jp := a.joinPlanFor(rels, rj.Op.JoinAttrs, attrs); len(jp.checks) > jp.keyChecks {
			mark := a.mem.Used()
			rows += a.naryJoinInto(nil, a.groupInputs(g, rj, true), rj.Op.JoinAttrs, attrs, false).out
			a.mem.Cut(mark)
			return
		}
		k := 1
		for _, r := range rels {
			k *= r.N
		}
		rows += k
	})
	if rj != nil {
		carve()
	}
	return cells
}

// reduceDest returns the block reduce join rj writes in a node's key
// range and its columns: its own block, or — the plan's root in the
// last job — nil for the job output, and the SELECT list.
func (c *ExecContext) reduceDest(rj *Info, node, rng int) (*mapreduce.Block, []string) {
	if pp := c.jobPlan; rj.Op == pp.Root && c.jobLevel == len(pp.Levels)-1 {
		return nil, pp.Logical.Root.Attrs
	}
	return &c.interm[rj.ID][node][rng], rj.Op.Attrs
}

// buildMorsels lays out one job level's map morsels per node, in the
// canonical (reduce join, child, file or range) order a sequential
// per-node sweep evaluates: one morsel per map-join child, one per
// present partition file for scan children, one per key range of the
// re-read output for map-shuffler children. Scans whose
// constants miss the dictionary produce no morsels (they charge and
// emit nothing anywhere).
func (x *Executor) buildMorsels(pp *Plan, level []*Info) {
	n := x.view.Nodes()
	tbl := slices.Grow(x.Ctx.morsels[:0], n)[:n]
	for node := range tbl {
		tbl[node] = tbl[node][:0]
	}
	x.Ctx.morsels = tbl
	a := x.Ctx.arenas[0]
	for _, rj := range level {
		for i, c := range rj.Op.Children {
			ci := pp.Infos[c]
			if ci.Kind == KindScan {
				tp := pp.Logical.Query.Patterns[c.Pattern]
				if x.scanFilters(tp, c.Attrs, a) {
					continue
				}
				pos := x.Part.ScanPos(scanPosition(tp, rj.Op.JoinAttrs[0]))
				names := x.scanFileNames(a, tp, pos)
				for node := 0; node < n; node++ {
					for _, fname := range names {
						if _, ok := x.view.Open(node, fname); ok {
							tbl[node] = append(tbl[node], mapMorsel{rj: rj, child: c, ci: ci, tag: i, file: fname})
						}
					}
				}
				continue
			}
			for node := 0; node < n; node++ {
				if ci.Kind != KindReduceJoin {
					tbl[node] = append(tbl[node], mapMorsel{rj: rj, child: c, ci: ci, tag: i})
					continue
				}
				for rng := range x.Ctx.interm[ci.ID][node] {
					tbl[node] = append(tbl[node], mapMorsel{rj: rj, child: c, ci: ci, tag: i, rng: rng})
				}
			}
		}
	}
}

// runMapMorsel evaluates one map morsel — a map shuffler re-reading the
// previous job's output, one partition file of a scan, or a whole
// map-join subtree — and emits its rows keyed for the reduce join it
// feeds.
func (x *Executor) runMapMorsel(pp *Plan, mo *mapMorsel, node, lane int, m *mapreduce.Meter, emit *mapreduce.Emitter) {
	a := x.Ctx.arenas[lane]
	a.resetBlocks()
	var rel relation
	switch {
	case mo.ci.Kind == KindReduceJoin:
		// Map shuffler: re-read one key range of an earlier job's output
		// and re-emit it re-keyed. Per range, the counts add up to the
		// node's, and the emissions concatenate, in range order, to its
		// sequence.
		rel = relation{schema: mo.child.Attrs, Block: x.Ctx.interm[mo.ci.ID][node][mo.rng]}
		m.Read(rel.N)
		m.Write(rel.N)
	case mo.file != "":
		// Per file, the counts (Read, plus Check when filtered) add up to
		// the whole scan's, and the emissions concatenate, in file order,
		// to its sequence.
		file := [1]string{mo.file}
		dst := a.nextBlock(len(mo.child.Attrs))
		x.scanFiles(dst, mo.child.Attrs, pp, mo.child, node, m, file[:], a)
		rel = relation{schema: mo.child.Attrs, Block: *dst}
	default:
		rel = x.evalLocal(pp, mo.child, node, m, mo.rj.Op.JoinAttrs[0], a)
	}
	a.emitCols = rel.appendCols(a.emitCols[:0], mo.rj.Op.JoinAttrs)
	emit.EmitAll(uint32(mo.rj.ID), mo.tag, rel.Block, a.emitCols)
}

// evalLocal evaluates a subtree on one node into a lane arena block.
func (x *Executor) evalLocal(pp *Plan, op *core.Op, node int, m *mapreduce.Meter, coVar string, a *arena) relation {
	dst := a.nextBlock(len(op.Attrs))
	x.evalInto(dst, op.Attrs, pp, op, node, m, coVar, a)
	return relation{schema: op.Attrs, Block: *dst}
}

// evalInto evaluates a scan or map-join subtree on one node, appending
// the attrs columns (op's, or some of them) of its rows to dst — the
// job output for a map-only plan's root — carved once, at the counted
// size, from dst's memory.
// coVar is the partition variable context for scans: the attribute
// whose partition replica the scan must read so co-located joins see
// co-partitioned inputs; map joins impose their own first join
// attribute on their children. It runs concurrently across lanes; all
// other mutable scratch lives in the lane's arena (a map join's inputs
// are scans, so its input list is never in use twice at once).
func (x *Executor) evalInto(dst *mapreduce.Block, attrs []string, pp *Plan, op *core.Op, node int, m *mapreduce.Meter, coVar string, a *arena) {
	switch op.Kind {
	case core.OpMatch:
		// Read the pattern's matching tuples from this node's replica
		// partitioned on coVar's position (Section 5.1 file layout).
		tp := pp.Logical.Query.Patterns[op.Pattern]
		pos := x.Part.ScanPos(scanPosition(tp, coVar))
		x.scanFiles(dst, attrs, pp, op, node, m, x.scanFileNames(a, tp, pos), a)
	case core.OpJoin:
		a.joinInputs = slices.Grow(a.joinInputs[:0], len(op.Children))[:len(op.Children)]
		children := a.joinInputs
		for i, c := range op.Children {
			children[i] = x.evalLocal(pp, c, node, m, op.JoinAttrs[0], a)
		}
		counts := a.naryJoinInto(dst, children, op.JoinAttrs, attrs, true)
		m.Join(counts.in + counts.out)
		m.Write(counts.out)
	default:
		panic(fmt.Sprintf("physical: evalInto on %v", op.Kind))
	}
}

// constCheck is one constant-position filter of a scan: the triple
// position and the dictionary id it must equal.
type constCheck struct {
	pos rdf.Pos
	id  rdf.TermID
}

// scanFileNames resolves the partition files a scan of pattern tp must
// read through the arena's per-view memo: resolution is pure per
// (pattern, replica position) within one pinned view, so repeated
// executions through a pooled context skip the name formatting
// entirely. The memo keys on the pattern's terms, not on the scan
// operator: one operator is shared by the plans of every query of its
// written shape, and under Section 5.1's rdf:type split it reads other
// files for another class.
func (x *Executor) scanFileNames(a *arena, tp sparql.TriplePattern, pos rdf.Pos) []string {
	if a.fileView != x.view || len(a.fileNames) > fileNamesCap {
		a.fileView = x.view
		if a.fileNames == nil {
			a.fileNames = make(map[fileKey][]string)
		} else {
			clear(a.fileNames)
		}
	}
	k := fileKey{tp: tp, pos: pos}
	names, ok := a.fileNames[k]
	if !ok {
		names = x.view.Files(tp, pos, x.Dict)
		a.fileNames[k] = names
	}
	return names
}

// scanFilters resolves a pattern's constant checks, repeated-variable
// filters and the extraction positions of its variables attrs into the
// arena's scratch (a.scanConsts, a.scanRepeats, a.scanVarPos),
// reporting whether the scan is impossible (a constant missing from the
// dictionary — such a scan reads, charges and emits nothing).
func (x *Executor) scanFilters(tp sparql.TriplePattern, attrs []string, a *arena) bool {
	consts, repeats := a.scanConsts[:0], a.scanRepeats[:0]
	for p := rdf.SPos; p <= rdf.OPos; p++ {
		pt := tp.At(p)
		if !pt.IsVar {
			id, ok := x.Dict.Lookup(pt.Term)
			if !ok {
				return true
			}
			consts = append(consts, constCheck{p, id})
		}
		for q := p + 1; q <= rdf.OPos; q++ {
			if u := tp.At(q); pt.IsVar && u.IsVar && u.Var == pt.Var {
				repeats = append(repeats, [2]rdf.Pos{p, q})
			}
		}
	}
	varPos := a.scanVarPos[:0]
	for _, attr := range attrs {
		p := rdf.SPos // attr's first position
		for pt := tp.At(p); !pt.IsVar || pt.Var != attr; pt = tp.At(p) {
			p++
		}
		varPos = append(varPos, p)
	}
	a.scanConsts, a.scanRepeats, a.scanVarPos = consts, repeats, varPos
	return false
}

// scanFile scans one partition file of a scan whose filters scanFilters
// resolved into a, appending its matches to dst (a nil dst only counts
// them), and returns their number. It meters the file — Read, plus
// Check when the pattern filters. It scans the run of each part that the
// pattern's subject and object constants select (partition.File.Part,
// scanRun). A constant on a position the file's name fixes (the
// property, a class file's object) is decided once for the whole file:
// it either matches every row or none. The metering depends on neither:
// the simulated Hadoop mapper still reads and checks the whole file,
// whichever rows the simulator's own CPU visits.
func scanFile(f partition.File, m *mapreduce.Meter, a *arena, dst *mapreduce.Block) (n int) {
	m.Read(f.NumRows())
	if len(a.scanConsts) > 0 || len(a.scanRepeats) > 0 {
		m.Check(f.NumRows())
	}
	var fixed, key [3]rdf.TermID
	fixed[rdf.PPos], fixed[rdf.OPos] = partition.FileTerms(f.Name())
	for _, cc := range a.scanConsts {
		if id := fixed[cc.pos]; id != rdf.NoTerm && id != cc.id {
			return 0
		}
		key[cc.pos] = cc.id
	}
	for i := 0; i < f.Parts(); i++ {
		n += scanRun(f.Part(i, key[rdf.SPos], key[rdf.OPos]), fixed, key, a, dst)
	}
	return n
}

// scanRun filters the rows of run r by the pattern's subject and object
// constants key (NoTerm: none) and its repeated-variable checks, and
// copies the variable columns of every match onto dst, reading each row
// as a triple: its stored key's cells — (s, o) or an object file's
// (o, s) — over the cells the scanned file's name fixes, and returns how
// many match; a nil dst only counts them. Rows the run holds for another
// node are skipped. Every row of a run matches its placed cell's
// constant, so with no other filter the count is the run's length.
func scanRun(r partition.Run, fixed, key [3]rdf.TermID, a *arena, dst *mapreduce.Block) (n int) {
	varPos, repeats := a.scanVarPos, a.scanRepeats
	s, o := key[rdf.SPos], key[rdf.OPos]
	first, second := rdf.SPos, rdf.OPos
	if r.Obj {
		first, second = rdf.OPos, rdf.SPos
	}
	if r.Lo == r.Hi || dst == nil && key[second] == rdf.NoTerm && len(repeats) == 0 && r.KeepsAll() {
		return r.Hi - r.Lo
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
		if n++; dst != nil {
			row := dst.Extend(1, len(varPos))
			for j, p := range varPos {
				row[j] = c[p]
			}
		}
	}
	return n
}

// scanFiles appends to dst the attrs columns (op's, or some of them) of
// the tuples of op's triple pattern in the named partition files of one
// node, applying the pattern's constant and repeated-variable filters.
// Files the node does not hold are skipped. It counts the matches, then
// carves dst's room for them once, then copies them.
func (x *Executor) scanFiles(dst *mapreduce.Block, attrs []string, pp *Plan, op *core.Op, node int, m *mapreduce.Meter, names []string, a *arena) {
	if x.scanFilters(pp.Logical.Query.Patterns[op.Pattern], attrs, a) {
		return
	}
	var uncounted mapreduce.Meter // the count is the simulator's, not the mapper's
	rows := 0
	for _, fname := range names {
		if f, ok := x.view.Open(node, fname); ok {
			rows += scanFile(f, &uncounted, a, nil)
		}
	}
	dst.Reserve(rows, len(attrs))
	for _, fname := range names {
		if f, ok := x.view.Open(node, fname); ok {
			scanFile(f, m, a, dst)
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
