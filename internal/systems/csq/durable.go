package csq

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/wal"
)

// ErrClosed is returned by every engine entry point after Close.
var ErrClosed = errors.New("csq: engine is closed")

// CommitStats is the per-stage timing of the group commit that carried
// a durable batch, reported in its BatchResult.
type CommitStats struct {
	// GroupSize is how many concurrent ApplyBatch callers this commit
	// coalesced into one WAL record and one fsync.
	GroupSize int
	// Wait is the time the caller's request sat queued before its group
	// started flushing; Append and Sync split the WAL write; Apply is
	// the in-memory epoch commit (graph + partitioner + plan-cache
	// statistics).
	Wait   time.Duration
	Append time.Duration
	Sync   time.Duration
	Apply  time.Duration
}

// DurabilityStats snapshots the durable subsystem's activity.
type DurabilityStats struct {
	// Log is the WAL's own activity (records, bytes, syncs,
	// checkpoints, GC removals).
	Log wal.Stats
	// LiveBytes is the current on-log-directory footprint — the measure
	// checkpoint GC shrinks.
	LiveBytes int64
	// Groups counts group commits; GroupedCallers the ApplyBatch calls
	// they carried (GroupedCallers/Groups is the mean group size).
	Groups         uint64
	GroupedCallers uint64
}

// applyReq is one ApplyBatch caller queued for group commit — or, when
// reshard is non-zero, one AddNodes/RemoveNodes caller whose resize the
// batcher executes solo (never grouped with triple batches).
type applyReq struct {
	ins, dels []rdf.Triple
	reshard   int // node-count delta; 0 = ordinary batch
	resp      chan applyResp
	enqueued  time.Time
}

type applyResp struct {
	res   BatchResult
	shard ReshardResult
	err   error
}

// durableState is the durable half of an Engine: the WAL, the
// group-commit batcher goroutine that is the engine's only writer, and
// the background compactor that checkpoints and garbage-collects.
type durableState struct {
	e    *Engine
	log  *wal.Log
	opts wal.Options

	// loggedTerms is the dictionary length already covered by the WAL
	// (checkpoint + records); the next record logs the terms after it.
	// Only the batcher goroutine touches it after construction.
	loggedTerms rdf.TermID

	// qmu guards the stopped flag and the right to send on reqs:
	// senders hold the read side across the check and the send, close
	// holds the write side while closing the channel, so a send can
	// never race the close.
	qmu     sync.RWMutex
	stopped bool
	reqs    chan *applyReq

	// ckptCh carries checkpoint requests to the compactor; a nil value
	// is a background nudge, a non-nil channel wants the outcome.
	ckptCh chan chan error

	batcherWG, compactorWG sync.WaitGroup

	statMu         sync.Mutex
	groups         uint64
	groupedCallers uint64
}

// NewDurable partitions g and attaches a fresh write-ahead log in
// opts.Dir, seeded with a checkpoint of g's current state: from here
// on every ApplyBatch is fsynced before it is acknowledged. It fails
// with wal.ErrExists when the directory already holds a log — recover
// that with OpenDurable instead.
func NewDurable(g *rdf.Graph, cfg Config, opts wal.Options) (*Engine, error) {
	e := New(g, cfg)
	cp := &wal.Checkpoint{
		Epoch:   e.DataVersion(),
		Terms:   g.Dict.TermsAfter(0),
		Triples: g.Triples(),
		Nodes:   uint32(e.part.Current().Nodes()),
	}
	l, err := wal.Create(opts, cp)
	if err != nil {
		return nil, err
	}
	e.startDurable(l, opts)
	return e, nil
}

// OpenDurable recovers the engine from the log in opts.Dir: the graph
// is rebuilt from the newest valid checkpoint plus the records after
// it (reproducing the exact TermID assignment, and with it node
// placement), then partitioned so the initial load commits exactly the
// recovered epoch — epoch numbers stay continuous across the crash.
// The cluster size comes from the log too — the checkpoint's recorded
// size updated by every topology record after it — so an engine that
// crashed mid-reshard recovers at the topology of its last durable
// step, with the full graph placed consistently at that size (a
// checkpoint with no recorded size falls back to cfg.Nodes).
// wal.ErrNoState means the directory holds nothing to recover.
func OpenDurable(cfg Config, opts wal.Options) (*Engine, error) {
	g := rdf.NewGraph()
	install := func(first rdf.TermID, terms []rdf.Term) error {
		for i, t := range terms {
			if err := g.Dict.Install(first+rdf.TermID(i), t); err != nil {
				return fmt.Errorf("csq: recovery: %w", err)
			}
		}
		return nil
	}
	nodes := cfg.Nodes
	l, _, err := wal.Open(opts,
		func(cp *wal.Checkpoint) error {
			if cp.Nodes > 0 {
				nodes = int(cp.Nodes)
			}
			if err := install(1, cp.Terms); err != nil {
				return err
			}
			for _, t := range cp.Triples {
				g.Add(t)
			}
			return nil
		},
		func(r *wal.Record) error {
			if r.Topology > 0 {
				nodes = int(r.Topology)
			}
			if err := install(r.FirstTerm, r.Terms); err != nil {
				return err
			}
			g.RemoveBatch(r.Deletes)
			for _, t := range r.Inserts {
				g.Add(t)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, g, dstore.NewStoreAt(nodes, l.Epoch()-1))
	e.startDurable(l, opts)
	return e, nil
}

// startDurable wires the log into the engine and starts the batcher
// and compactor.
func (e *Engine) startDurable(l *wal.Log, opts wal.Options) {
	opts = opts.WithDefaults()
	d := &durableState{
		e:           e,
		log:         l,
		opts:        opts,
		loggedTerms: rdf.TermID(e.graph.Dict.Len()),
		reqs:        make(chan *applyReq, opts.GroupMaxOps),
		ckptCh:      make(chan chan error, 1),
	}
	e.dur = d
	d.batcherWG.Add(1)
	go d.run()
	d.compactorWG.Add(1)
	go d.compactor()
}

// apply queues one batch for group commit and waits for its outcome.
func (d *durableState) apply(ins, dels []rdf.Triple) (BatchResult, error) {
	req := &applyReq{
		ins: ins, dels: dels,
		resp:     make(chan applyResp, 1),
		enqueued: time.Now(),
	}
	d.qmu.RLock()
	if d.stopped {
		d.qmu.RUnlock()
		return BatchResult{}, ErrClosed
	}
	d.reqs <- req
	d.qmu.RUnlock()
	r := <-req.resp
	return r.res, r.err
}

// run is the batcher goroutine: it collects queued requests into
// groups (bounded by GroupMaxOps and GroupMaxWait) and flushes each
// group as one WAL record, one fsync and one epoch. With GroupMaxWait
// zero a group is whatever the queue holds when the batcher gets to it
// — single callers pay no added latency, and grouping still emerges
// naturally from callers arriving while a flush's fsync is in flight.
func (d *durableState) run() {
	defer d.batcherWG.Done()
	for {
		req, ok := <-d.reqs
		if !ok {
			return
		}
		if req.reshard != 0 {
			d.flushReshard(req)
			continue
		}
		group := append(make([]*applyReq, 0, d.opts.GroupMaxOps), req)
		// A resize encountered while grouping closes the group: it
		// flushes after the batches that preceded it, alone.
		var resize *applyReq
		if d.opts.GroupMaxWait > 0 {
			timer := time.NewTimer(d.opts.GroupMaxWait)
		wait:
			for len(group) < d.opts.GroupMaxOps {
				select {
				case r, ok := <-d.reqs:
					if !ok {
						break wait
					}
					if r.reshard != 0 {
						resize = r
						break wait
					}
					group = append(group, r)
				case <-timer.C:
					break wait
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(group) < d.opts.GroupMaxOps {
				select {
				case r, ok := <-d.reqs:
					if !ok {
						break drain
					}
					if r.reshard != 0 {
						resize = r
						break drain
					}
					group = append(group, r)
				default:
					break drain
				}
			}
		}
		d.flushGroup(group)
		if resize != nil {
			d.flushReshard(resize)
		}
	}
}

// flushGroup commits one group: it computes each caller's effective
// delta against the group's running state (without touching the graph
// — WAL-first means nothing mutates before the fsync), writes the
// group's net delta and the newly assigned dictionary terms as one
// fsynced record, then applies the net delta to the graph, the
// partitioner and the plan-cache statistics as one epoch, and answers
// every caller. On a WAL failure nothing was applied: the engine keeps
// serving reads of the last durable epoch and every queued write
// reports the log's sticky error.
func (d *durableState) flushGroup(group []*applyReq) {
	e := d.e
	start := time.Now()

	// overlay is the desired presence of every triple the group
	// touches, layered over the (unmutated) graph; touched preserves
	// first-touch order so the net delta is deterministic.
	overlay := make(map[rdf.Triple]bool)
	var touched []rdf.Triple
	present := func(t rdf.Triple) bool {
		if v, ok := overlay[t]; ok {
			return v
		}
		return e.graph.Contains(t)
	}
	set := func(t rdf.Triple, p bool) {
		if _, ok := overlay[t]; !ok {
			touched = append(touched, t)
		}
		overlay[t] = p
	}
	counts := make([][2]int, len(group)) // per caller: [inserted, deleted]
	for i, req := range group {
		for _, t := range req.dels {
			if present(t) {
				set(t, false)
				counts[i][1]++
			}
		}
		for _, t := range req.ins {
			if !present(t) {
				set(t, true)
				counts[i][0]++
			}
		}
	}
	var netIns, netDels []rdf.Triple
	for _, t := range touched {
		switch want, had := overlay[t], e.graph.Contains(t); {
		case want && !had:
			netIns = append(netIns, t)
		case !want && had:
			netDels = append(netDels, t)
		}
	}

	if len(netIns) == 0 && len(netDels) == 0 {
		// The group nets out to nothing (every caller's operations were
		// no-ops or cancelled within the group): no record, no epoch.
		ver := e.DataVersion()
		for i, req := range group {
			req.resp <- applyResp{res: BatchResult{
				Inserted: counts[i][0], Deleted: counts[i][1], DataVersion: ver,
				Commit: CommitStats{GroupSize: len(group), Wait: start.Sub(req.enqueued)},
			}}
		}
		return
	}

	terms := e.graph.Dict.TermsAfter(d.loggedTerms)
	rec := &wal.Record{
		Epoch:     e.DataVersion() + 1,
		FirstTerm: d.loggedTerms + 1,
		Terms:     terms,
		Inserts:   netIns,
		Deletes:   netDels,
	}
	appendD, syncD, err := d.log.Commit(rec)
	if err != nil {
		for _, req := range group {
			req.resp <- applyResp{err: err}
		}
		return
	}
	d.loggedTerms += rdf.TermID(len(terms))

	applyStart := time.Now()
	e.stateMu.Lock()
	e.graph.RemoveBatch(netDels)
	for _, t := range netIns {
		e.graph.Add(t)
	}
	v := e.part.ApplyBatch(netIns, netDels, e.graph.Dict)
	e.batches.Add(uint64(len(group)))
	if e.cache != nil {
		ver := v.Version()
		e.cache.Range(func(_ string, ent *cacheEntry) {
			ent.statsMu.Lock()
			if ent.stats != nil && ent.statsVersion == ver-1 {
				ent.stats.Apply(e.graph.Dict, netIns, netDels)
				ent.statsVersion = ver
			}
			ent.statsMu.Unlock()
		})
	}
	if e.res != nil {
		e.res.Purge()
	}
	e.stateMu.Unlock()
	applyD := time.Since(applyStart)

	d.statMu.Lock()
	d.groups++
	d.groupedCallers += uint64(len(group))
	d.statMu.Unlock()

	ver := v.Version()
	for i, req := range group {
		req.resp <- applyResp{res: BatchResult{
			Inserted: counts[i][0], Deleted: counts[i][1], DataVersion: ver,
			Commit: CommitStats{
				GroupSize: len(group),
				Wait:      start.Sub(req.enqueued),
				Append:    appendD, Sync: syncD, Apply: applyD,
			},
		}}
	}

	if d.log.NeedCheckpoint() {
		select {
		case d.ckptCh <- nil:
		default: // a checkpoint is already pending
		}
	}
}

// compactor is the background goroutine that writes checkpoints and
// garbage-collects obsolete WAL generations when nudged (by the
// batcher crossing the byte threshold, or a manual Compact).
func (d *durableState) compactor() {
	defer d.compactorWG.Done()
	for resp := range d.ckptCh {
		err := d.checkpoint()
		if resp != nil {
			resp <- err
		}
	}
}

// checkpoint snapshots the current epoch into a checkpoint file,
// rotates the log and garbage-collects generations below both the
// previous checkpoint and the pinned-reader watermark. The state read
// lock freezes graph and epoch together; the WAL write itself runs
// outside it so concurrent group commits only contend on the log's own
// lock.
func (d *durableState) checkpoint() error {
	e := d.e
	e.stateMu.RLock()
	cp := &wal.Checkpoint{
		Epoch:   e.DataVersion(),
		Terms:   e.graph.Dict.TermsAfter(0),
		Triples: e.graph.Triples(),
		Nodes:   uint32(e.part.Current().Nodes()),
	}
	e.stateMu.RUnlock()
	return d.log.WriteCheckpoint(cp, e.part.Watermark())
}

// close shuts the durable subsystem down: the queue is closed and
// drained (every accepted request still gets its response), the
// compactor finishes, and the log is synced and closed.
func (d *durableState) close() error {
	d.qmu.Lock()
	if d.stopped {
		d.qmu.Unlock()
		return nil
	}
	d.stopped = true
	close(d.reqs)
	d.qmu.Unlock()
	d.batcherWG.Wait()
	close(d.ckptCh)
	d.compactorWG.Wait()
	return d.log.Close()
}

// Close shuts the engine down. In durable mode it flushes the
// group-commit queue (every already-accepted batch is still committed
// and acknowledged), stops the compactor, syncs and closes the WAL.
// It then reaps the pooled execution contexts' parked morsel workers —
// after the durable drain, so a flushing batch never races the
// runtime teardown. After Close every entry point returns ErrClosed.
// Close is idempotent.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	if e.dur != nil {
		err = e.dur.close()
	}
	e.closeContexts()
	return err
}

// Compact forces a checkpoint + WAL garbage collection now and reports
// its outcome. On a non-durable engine it is a no-op.
func (e *Engine) Compact() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.dur == nil {
		return nil
	}
	resp := make(chan error, 1)
	e.dur.qmu.RLock()
	if e.dur.stopped {
		e.dur.qmu.RUnlock()
		return ErrClosed
	}
	e.dur.ckptCh <- resp
	e.dur.qmu.RUnlock()
	return <-resp
}

// DurabilityStats snapshots WAL and group-commit activity; the zero
// value on a non-durable engine.
func (e *Engine) DurabilityStats() DurabilityStats {
	if e.dur == nil {
		return DurabilityStats{}
	}
	e.dur.statMu.Lock()
	groups, callers := e.dur.groups, e.dur.groupedCallers
	e.dur.statMu.Unlock()
	return DurabilityStats{
		Log:            e.dur.log.Stats(),
		LiveBytes:      e.dur.log.LiveBytes(),
		Groups:         groups,
		GroupedCallers: callers,
	}
}
