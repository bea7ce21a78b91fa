package csq

import (
	"time"

	"cliquesquare/internal/rdf"
	"cliquesquare/internal/wal"
)

// request is one write handed to the commit pipeline: an ApplyBatch
// caller's triple delta or, when reshard is non-zero, an
// AddNodes/RemoveNodes caller's node-count delta (a resize always
// flushes alone, never grouped with triple batches). The writer that
// flushes it answers it under wmu, where its caller reads done.
type request struct {
	ins, dels []rdf.Triple
	reshard   int
	enqueued  time.Time
	out       response
	done      bool
}

type response struct {
	res   BatchResult
	shard ReshardResult
	err   error
}

func (r *request) answer(out response) { r.out, r.done = out, true }

// groupMaxOps caps how many queued ApplyBatch callers one group commit
// coalesces.
const groupMaxOps = 64

// submit hands one write to the pipeline and waits for its answer. Every
// write, on every engine, arrives the same way: it joins the queue
// (unless Close has begun), and its caller then takes the writer role
// and flushes groups from the head of the queue until its own request is
// answered — by itself, or by an earlier writer that carried it in a
// group. Callers that arrive while a flush is in flight therefore queue
// behind it and commit together: one epoch and, with a log, one record
// and one fsync. A caller stops as soon as its own request is answered,
// so none keeps flushing writes that arrived after it. A checkpoint the
// log has grown into runs here too, once the writer role is released.
func (e *Engine) submit(req *request) response {
	req.enqueued = time.Now()
	e.qmu.Lock()
	if e.closed.Load() {
		e.qmu.Unlock()
		return response{err: ErrClosed}
	}
	e.queue = append(e.queue, req)
	e.qmu.Unlock()
	e.wmu.Lock()
	for !req.done {
		e.flushNext()
	}
	e.wmu.Unlock()
	e.checkpointIfDue()
	return req.out
}

// flushNext flushes the group at the head of the queue and reports
// whether there was one; the caller holds wmu. A group is up to
// groupMaxOps batches in arrival order; a resize closes the group before
// it and flushes alone.
func (e *Engine) flushNext() bool {
	e.qmu.Lock()
	n := 0
	for n < len(e.queue) && n < groupMaxOps && e.queue[n].reshard == 0 {
		n++
	}
	if n == 0 && len(e.queue) > 0 {
		n = 1
	}
	group := e.queue[:n:n]
	e.queue = e.queue[n:]
	e.qmu.Unlock()
	switch {
	case n == 0:
		return false
	case group[0].reshard != 0:
		e.flushReshard(group[0])
	default:
		e.flushGroup(group)
	}
	return true
}

// flushGroup commits one group of batches as one epoch: it computes the
// group's net delta, logs it (with the newly assigned dictionary terms)
// as one fsynced record, applies it to the partitioner and the caches,
// and answers every caller. A group that nets out to
// nothing (every operation a no-op, or cancelled within the group)
// writes no record and commits no epoch — committing one anyway would
// only force every cached plan through a spurious revalidation. On a
// log failure nothing was applied: the engine keeps serving reads of
// the last durable epoch and every caller gets the log's sticky error.
func (e *Engine) flushGroup(group []*request) {
	start := time.Now()
	ins, dels, counts := e.netDelta(group)
	cs := CommitStats{GroupSize: len(group)}
	ver := e.DataVersion()
	var err error
	if len(ins) > 0 || len(dels) > 0 {
		if cs.Append, cs.Sync, err = e.logStep(&wal.Record{Inserts: ins, Deletes: dels}); err == nil {
			applyStart := time.Now()
			v := e.part.ApplyBatch(ins, dels, e.dict)
			ver, cs.CellsCopied = v.Version(), v.Snap().Copied()
			e.invalidate(ins, dels)
			cs.Apply = time.Since(applyStart)
			e.batches.Add(uint64(len(group)))
			e.groups.Add(1)
		}
	}
	for i, req := range group {
		if err != nil {
			req.answer(response{err: err})
			continue
		}
		c := cs
		c.Wait = start.Sub(req.enqueued)
		req.answer(response{res: BatchResult{
			Inserted: counts[i][0], Deleted: counts[i][1], DataVersion: ver, Commit: c,
		}})
	}
}

// overlay is the desired presence of every triple a run of operations
// touches, layered over a base it does not read; touched preserves
// first-touch order, so whatever is derived from it is deterministic.
type overlay struct {
	want    map[rdf.Triple]bool
	touched []rdf.Triple
}

func (o *overlay) set(t rdf.Triple, present bool) {
	if o.want == nil {
		o.want = make(map[rdf.Triple]bool)
	}
	if _, ok := o.want[t]; !ok {
		o.touched = append(o.touched, t)
	}
	o.want[t] = present
}

// net is what the overlay changes against a base answering had: the
// touched triples wanted and absent, and those unwanted and present.
func (o *overlay) net(had func(rdf.Triple) bool) (ins, dels []rdf.Triple) {
	for _, t := range o.touched {
		switch want, had := o.want[t], had(t); {
		case want && !had:
			ins = append(ins, t)
		case !want && had:
			dels = append(dels, t)
		}
	}
	return ins, dels
}

// netDelta computes what a group changes, without touching the store
// (WAL-first: nothing mutates before the fsync). The base of the overlay
// is the current view, probed in its subject replica: the caller is the
// engine's only writer, so no epoch commits under it. counts is each
// caller's effective [inserted, deleted] against the group's running
// state, deletes before inserts: an operation can count for its caller
// and still net out of the group (a present triple deleted and
// re-inserted stays where it is).
func (e *Engine) netDelta(group []*request) (ins, dels []rdf.Triple, counts [][2]int) {
	var o overlay
	base := e.part.Current()
	present := func(t rdf.Triple) bool {
		if v, ok := o.want[t]; ok {
			return v
		}
		return base.Contains(t)
	}
	counts = make([][2]int, len(group))
	for i, req := range group {
		for _, t := range req.dels {
			if present(t) {
				o.set(t, false)
				counts[i][1]++
			}
		}
		for _, t := range req.ins {
			if !present(t) {
				o.set(t, true)
				counts[i][0]++
			}
		}
	}
	ins, dels = o.net(base.Contains)
	return ins, dels, counts
}

// logStep makes the next epoch durable before it applies: it stamps rec
// with that epoch and the first unlogged TermID, attaches the
// dictionary terms assigned since the last record (to triple records
// only — a topology record moves rows, it introduces no terms), and
// appends + fsyncs it. Only the engine's writer calls it, which is what
// keeps loggedTerms unshared. Without a log there is nothing to write
// ahead to.
func (e *Engine) logStep(rec *wal.Record) (appendD, syncD time.Duration, err error) {
	d := e.dur
	if d == nil {
		return 0, 0, nil
	}
	rec.Epoch = e.DataVersion() + 1
	rec.FirstTerm = d.loggedTerms + 1
	if rec.Topology == 0 {
		rec.Terms = e.dict.TermsAfter(d.loggedTerms)
	}
	if appendD, syncD, err = d.log.Commit(rec); err == nil {
		d.loggedTerms += rdf.TermID(len(rec.Terms))
	}
	return appendD, syncD, err
}

// invalidate is the cache side of every committed epoch; the caller is
// the writer and has just published the epoch. Handing the statistics
// catalog the new view and folding the delta into it — once per distinct
// pattern, however many plans share it — is what lets the revalidations
// that the version's move triggers snapshot current statistics without
// rescanning the store; until it has, planners read the catalog at the
// epoch before. A resize passes an empty delta (moving rows between
// nodes changes no cardinality): the catalog only moves to the new
// version. Result-cache entries of the old epoch are unreachable already
// (their keys embed the version); purging stops their bytes occupying
// the budget.
func (e *Engine) invalidate(ins, dels []rdf.Triple) {
	if e.published != nil {
		e.published()
	}
	v := e.part.Current()
	e.cat.Apply(v, v.Version(), e.dict, ins, dels)
	if e.res != nil {
		e.res.Purge()
	}
}
