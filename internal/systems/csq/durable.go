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
// a batch, reported in its BatchResult.
type CommitStats struct {
	// GroupSize is how many concurrent ApplyBatch callers this commit
	// coalesced into one WAL record and one fsync; always 1 without a
	// log, where there is no fsync to share.
	GroupSize int
	// Wait is the time the caller's request waited (queued, or for the
	// writer mutex) before its group started flushing; Append and Sync
	// split the WAL write and are zero without a log; Apply is the
	// in-memory epoch commit (partitioner + statistics catalog).
	Wait   time.Duration
	Append time.Duration
	Sync   time.Duration
	Apply  time.Duration
}

// DurabilityStats snapshots group-commit and WAL activity.
type DurabilityStats struct {
	// Log is the WAL's own activity (records, bytes, syncs,
	// checkpoints and the deltas among them, GC removals).
	Log wal.Stats
	// LiveBytes is the current on-log-directory footprint — the measure
	// checkpoint GC shrinks.
	LiveBytes int64
	// Groups counts group commits; GroupedCallers the ApplyBatch calls
	// they carried (GroupedCallers/Groups is the mean group size).
	Groups         uint64
	GroupedCallers uint64
}

// durableState is what an attached log adds to an Engine: the WAL, the
// group-commit batcher goroutine that is then the engine's only writer,
// and the background compactor that checkpoints and garbage-collects.
type durableState struct {
	e    *Engine
	log  *wal.Log
	opts wal.Options

	// loggedTerms is the dictionary length already covered by the WAL
	// (checkpoint + records); the next record logs the terms after it.
	// Only the batcher goroutine touches it after construction (logStep).
	loggedTerms rdf.TermID

	// reqs is the batcher's queue and ckptCh the compactor's (a nil
	// value is a background nudge, a non-nil channel wants the
	// outcome). Senders hold Engine.wmu's read side across the closed
	// check and the send, and Close passes through its write side
	// before close closes them, so a send can never race the close.
	reqs   chan *request
	ckptCh chan chan error

	batcherWG, compactorWG sync.WaitGroup
}

// NewDurable partitions g and attaches a fresh write-ahead log in
// opts.Dir, seeded with a base of g's current state: from here
// on every ApplyBatch is fsynced before it is acknowledged. It fails
// with wal.ErrExists when the directory already holds a log — recover
// that with OpenDurable instead.
func NewDurable(g *rdf.Graph, cfg Config, opts wal.Options) (*Engine, error) {
	e := New(g, cfg)
	l, err := wal.Create(opts, e.snapshot())
	if err != nil {
		return nil, err
	}
	e.startDurable(l, opts)
	return e, nil
}

// OpenDurable recovers the engine from the log in opts.Dir: a scratch
// graph is rebuilt from the newest valid base, the delta on it and the
// records after that (reproducing the exact TermID assignment, and with
// it node placement), partitioned so the initial load commits exactly
// the recovered epoch — epoch numbers stay continuous across the crash
// — and let go. The delta and the tail's records fold into one net
// delta applied once: recovery is one pass over the graph however many
// records it replays. The cluster size comes from the log too — the
// base's recorded size updated by the delta's and every topology record
// after it — so an engine that crashed mid-reshard recovers at the
// topology of its last durable step, with the full graph placed
// consistently at that size (a base with no recorded size falls back
// to cfg.Nodes).
// wal.ErrNoState means the directory holds nothing to recover.
func OpenDurable(cfg Config, opts wal.Options) (*Engine, error) {
	g := rdf.NewGraph()
	nodes := cfg.Nodes
	var tail overlay
	replay := func(r *wal.Record) error {
		if r.Topology > 0 {
			nodes = int(r.Topology)
		}
		for i, t := range r.Terms {
			if err := g.Dict.Install(r.FirstTerm+rdf.TermID(i), t); err != nil {
				return fmt.Errorf("csq: recovery: %w", err)
			}
		}
		for _, t := range r.Deletes {
			tail.set(t, false)
		}
		for _, t := range r.Inserts {
			tail.set(t, true)
		}
		return nil
	}
	// A base replays as the one record that builds its state from an
	// empty graph; it comes before the delta and the tail.
	l, _, err := wal.Open(opts, func(cp *wal.Checkpoint) error {
		if err := replay(&wal.Record{FirstTerm: 1, Terms: cp.Terms, Topology: cp.Nodes}); err != nil {
			return err
		}
		for _, t := range cp.Triples {
			g.Add(t)
		}
		return nil
	}, replay)
	if err != nil {
		return nil, err
	}
	ins, dels := tail.net(g.Contains)
	g.RemoveBatch(dels)
	for _, t := range ins {
		g.Add(t)
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
		loggedTerms: rdf.TermID(e.dict.Len()),
		reqs:        make(chan *request, opts.GroupMaxOps),
		ckptCh:      make(chan chan error, 1),
	}
	e.dur = d
	d.batcherWG.Add(1)
	go d.run()
	d.compactorWG.Add(1)
	go d.compactor()
}

// run is the batcher goroutine: it collects queued requests into
// groups (bounded by GroupMaxOps and GroupMaxWait) and flushes each
// group as one WAL record, one fsync and one epoch. With GroupMaxWait
// zero a group is whatever the queue holds when the batcher gets to it
// — single callers pay no added latency, and grouping still emerges
// naturally from callers arriving while a flush's fsync is in flight.
func (d *durableState) run() {
	defer d.batcherWG.Done()
	for req := range d.reqs {
		if req.reshard != 0 {
			d.e.flushReshard(req)
			continue
		}
		group := append(make([]*request, 0, d.opts.GroupMaxOps), req)
		var window <-chan time.Time
		if d.opts.GroupMaxWait > 0 {
			window = time.After(d.opts.GroupMaxWait)
		}
		// A resize met while grouping closes the group: it flushes
		// after the batches that preceded it, alone.
		var resize *request
		for len(group) < d.opts.GroupMaxOps && resize == nil {
			r := d.next(window)
			if r == nil {
				break
			}
			if r.reshard != 0 {
				resize = r
			} else {
				group = append(group, r)
			}
		}
		d.e.flushGroup(group)
		if resize != nil {
			d.e.flushReshard(resize)
		}
	}
}

// next returns the next queued request for an open group, or nil when
// the group closes: the queue was closed, the window expired, or — with
// no window — the queue is empty right now.
func (d *durableState) next(window <-chan time.Time) *request {
	if window == nil {
		select {
		case r := <-d.reqs:
			return r
		default:
			return nil
		}
	}
	select {
	case r := <-d.reqs:
		return r
	case <-window:
		return nil
	}
}

// compactor is the background goroutine that writes checkpoints and
// garbage-collects obsolete WAL generations when nudged (by the writer
// crossing the byte threshold, or a manual Compact).
func (d *durableState) compactor() {
	defer d.compactorWG.Done()
	for resp := range d.ckptCh {
		err := d.checkpoint()
		if resp != nil {
			resp <- err
		}
	}
}

// checkpoint writes one checkpoint of the current epoch. It is a delta,
// which the log folds from its own files, unless the log asks for a full
// base: then the engine's snapshot is written. Either way the log
// rotates and drops what neither the previous checkpoint nor the
// pinned-reader watermark needs. The snapshot reads an immutable view
// and takes no engine lock, so concurrent group commits contend with a
// checkpoint on the log's own lock alone.
func (d *durableState) checkpoint() error {
	wm := d.e.part.Watermark()
	err := d.log.WriteDelta(d.e.DataVersion(), wm)
	if errors.Is(err, wal.ErrNeedBase) {
		err = d.log.WriteCheckpoint(d.e.snapshot(), wm)
	}
	return err
}

// snapshot is the base image of the current epoch: the view's
// subject replica and the dictionary as long as it is now. It takes no
// lock: the view is immutable and carries its epoch and topology, and
// the dictionary, which only grows, held every id of it at publication.
func (e *Engine) snapshot() *wal.Checkpoint {
	v := e.part.Current()
	cp := &wal.Checkpoint{
		Epoch:   v.Version(),
		Terms:   e.dict.TermsAfter(0),
		Triples: make([]rdf.Triple, 0, v.NumTriples()),
		Nodes:   uint32(v.Nodes()),
	}
	v.EachTriple(rdf.NoTerm, func(t rdf.Triple) { cp.Triples = append(cp.Triples, t) })
	return cp
}

// nudgeCheckpoint wakes the compactor once the log has outgrown its
// checkpoint threshold; with no log there is nothing to compact.
func (e *Engine) nudgeCheckpoint() {
	if d := e.dur; d != nil && d.log.NeedCheckpoint() {
		select {
		case d.ckptCh <- nil:
		default: // a checkpoint is already pending
		}
	}
}

// close shuts the durable subsystem down: the queue is closed and
// drained (every accepted request still gets its response), the
// compactor finishes, and the log is synced and closed.
func (d *durableState) close() error {
	close(d.reqs)
	d.batcherWG.Wait()
	close(d.ckptCh)
	d.compactorWG.Wait()
	return d.log.Close()
}

// Close shuts the engine down once every accepted write has been
// answered. With a log it flushes the group-commit queue (every
// already-accepted batch is still committed and acknowledged), stops
// the compactor, syncs and closes the WAL; without one it waits out the
// write in flight, so the data version never moves after Close returns.
// It then reaps the pooled execution contexts' parked morsel workers —
// after the drain, so a flushing batch never races the runtime
// teardown. After Close every entry point returns ErrClosed. Close is
// idempotent.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Whoever holds wmu now saw closed unset and is let finish; whoever
	// takes it next will see it set (see Engine.wmu).
	e.wmu.Lock()
	e.wmu.Unlock()
	var err error
	if e.dur != nil {
		err = e.dur.close()
	}
	e.closeContexts()
	return err
}

// Compact forces a checkpoint + WAL garbage collection now and reports
// its outcome. The checkpoint is a delta file of the net change since
// the current base — its size follows what changed, not the data — and
// a full base only once the deltas written on that base would reach
// its size. On an engine without a log it is a no-op.
func (e *Engine) Compact() error {
	if e.closed.Load() {
		return ErrClosed
	}
	d := e.dur
	if d == nil {
		return nil
	}
	resp := make(chan error, 1)
	e.wmu.RLock()
	if e.closed.Load() {
		e.wmu.RUnlock()
		return ErrClosed
	}
	d.ckptCh <- resp
	e.wmu.RUnlock()
	return <-resp
}

// DurabilityStats snapshots group-commit and WAL activity; Log and
// LiveBytes are zero on an engine without a log.
func (e *Engine) DurabilityStats() DurabilityStats {
	st := DurabilityStats{Groups: e.groups.Load(), GroupedCallers: e.batches.Load()}
	if d := e.dur; d != nil {
		st.Log, st.LiveBytes = d.log.Stats(), d.log.LiveBytes()
	}
	return st
}
