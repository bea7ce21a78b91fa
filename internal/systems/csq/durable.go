package csq

import (
	"errors"
	"fmt"
	"slices"
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

// OpenDurable recovers the engine from the log in opts.Dir. Recovery
// is a load: the log hands over the newest valid base — the record that
// builds its epoch from empty — and the net change since it, the delta
// on it and the records after that folded into one record. Their terms
// rebuild the dictionary in the logged numbering (and with it node
// placement); the base's triples less the net deletes, then the net
// inserts, are partitioned as one load that commits exactly the
// recovered epoch, so epoch numbers stay continuous across the crash.
// The cluster size is the base's, updated by the newest topology the
// net record carries, so an engine that crashed mid-reshard recovers at
// the topology of its last durable step, with every triple placed
// consistently at that size (a base with no recorded size falls back to
// cfg.Nodes). wal.ErrNoState means the directory holds nothing to
// recover.
func OpenDurable(cfg Config, opts wal.Options) (*Engine, error) {
	dict := rdf.NewDict()
	nodes := cfg.Nodes
	var triples []rdf.Triple
	install := func(r *wal.Record) error {
		if r.Topology > 0 {
			nodes = int(r.Topology)
		}
		for i, t := range r.Terms {
			if err := dict.Install(r.FirstTerm+rdf.TermID(i), t); err != nil {
				return fmt.Errorf("csq: recovery: %w", err)
			}
		}
		return nil
	}
	l, _, err := wal.Open(opts, func(base *wal.Record) error {
		triples = base.Inserts
		return install(base)
	}, func(net *wal.Record) error {
		gone := make(map[rdf.Triple]bool, len(net.Deletes))
		for _, t := range net.Deletes {
			gone[t] = true
		}
		triples = append(slices.DeleteFunc(triples, func(t rdf.Triple) bool { return gone[t] }), net.Inserts...)
		return install(net)
	})
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, dict, triples, dstore.NewStoreAt(nodes, l.Epoch()-1))
	e.startDurable(l, opts)
	return e, nil
}

// groupMaxOps caps how many concurrent ApplyBatch callers one group
// commit coalesces; the request queue buffers one group's worth.
const groupMaxOps = 64

// startDurable wires the log into the engine and starts the batcher
// and compactor.
func (e *Engine) startDurable(l *wal.Log, opts wal.Options) {
	opts = opts.WithDefaults()
	d := &durableState{
		e:           e,
		log:         l,
		opts:        opts,
		loggedTerms: rdf.TermID(e.dict.Len()),
		reqs:        make(chan *request, groupMaxOps),
		ckptCh:      make(chan chan error, 1),
	}
	e.dur = d
	d.batcherWG.Add(1)
	go d.run()
	d.compactorWG.Add(1)
	go d.compactor()
}

// run is the batcher goroutine: it collects queued requests into
// groups (bounded by groupMaxOps and GroupMaxWait) and flushes each
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
		group := append(make([]*request, 0, groupMaxOps), req)
		var window <-chan time.Time
		if d.opts.GroupMaxWait > 0 {
			window = time.After(d.opts.GroupMaxWait)
		}
		// A resize met while grouping closes the group: it flushes
		// after the batches that preceded it, alone.
		var resize *request
		for len(group) < groupMaxOps && resize == nil {
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

// snapshot is the base of the current epoch, the record that builds it
// from empty: the dictionary as long as it is now, the view's subject
// replica as inserts, and its cluster size. It takes no lock: the view
// is immutable and carries its epoch and topology, and the dictionary,
// which only grows, held every id of it at publication.
func (e *Engine) snapshot() *wal.Record {
	v := e.part.Current()
	b := &wal.Record{
		Epoch:     v.Version(),
		FirstTerm: 1,
		Terms:     e.dict.TermsAfter(0),
		Inserts:   make([]rdf.Triple, 0, v.NumTriples()),
		Topology:  uint32(v.Nodes()),
	}
	v.EachTriple(rdf.NoTerm, func(t rdf.Triple) { b.Inserts = append(b.Inserts, t) })
	return b
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
