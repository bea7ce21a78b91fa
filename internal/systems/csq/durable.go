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
	// GroupSize is how many ApplyBatch callers this commit coalesced into
	// one epoch — and, with a log, one WAL record and one fsync: the
	// callers queued while an earlier flush was in flight. It is the same
	// on every engine.
	GroupSize int
	// Wait is the time the caller's request spent queued before its
	// group started flushing; Append and Sync split the WAL write and are
	// zero without a log; Apply is the in-memory epoch commit
	// (partitioner + statistics catalog).
	Wait   time.Duration
	Append time.Duration
	Sync   time.Duration
	Apply  time.Duration
	// CellsCopied is the TermID cells the commit wrote into the store's
	// successor files: every cell of each file it rewrote or created,
	// the rows it kept included (0 when the group committed no epoch).
	CellsCopied int
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

// durableState is what an attached log adds to an Engine: the WAL and
// the mutex that lets one checkpoint run at a time.
type durableState struct {
	log *wal.Log

	// loggedTerms is the dictionary length already covered by the WAL
	// (checkpoint + records); the next record logs the terms after it.
	// Only the writer touches it after construction (logStep).
	loggedTerms rdf.TermID

	// ckptMu is held across a checkpoint, and by Close across closing the
	// log: a checkpoint runs in the goroutine that asked for it (Compact,
	// or a writer whose commit crossed CheckpointBytes), never two at once.
	ckptMu sync.Mutex
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
	e.attach(l)
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
// net record carries, so an engine that crashed during a resize recovers
// at the old size or, once the resize's one topology record is durable,
// the new one, with every triple placed consistently at that size (a
// base with no recorded size falls back to cfg.Nodes). wal.ErrNoState means the directory holds nothing to
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
		// Both lists come in the log's codec order, so one merge pass
		// drops the net deletes from the base.
		dels := net.Deletes
		triples = slices.DeleteFunc(triples, func(t rdf.Triple) bool {
			for len(dels) > 0 && wal.Compare(dels[0], t) < 0 {
				dels = dels[1:]
			}
			return len(dels) > 0 && dels[0] == t
		})
		triples = append(triples, net.Inserts...)
		return install(net)
	})
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, dict, triples, dstore.NewStoreAt(nodes, l.Epoch()-1))
	e.attach(l)
	return e, nil
}

// attach wires the log into the engine.
func (e *Engine) attach(l *wal.Log) {
	e.dur = &durableState{log: l, loggedTerms: rdf.TermID(e.dict.Len())}
}

// checkpoint writes one checkpoint of the current epoch, or returns
// ErrClosed once Close has begun; the caller holds dur.ckptMu. It is a
// delta, which the log folds from its own files, unless the log asks
// for a full base: then the engine's snapshot is written. Either way the
// log rotates and drops what neither the previous checkpoint nor the
// pinned-reader watermark needs. The snapshot reads an immutable view
// and takes no engine lock, so concurrent group commits contend with a
// checkpoint on the log's own lock alone.
func (e *Engine) checkpoint() error {
	if e.closed.Load() {
		return ErrClosed
	}
	wm := e.part.Watermark()
	err := e.dur.log.WriteDelta(e.DataVersion(), wm)
	if errors.Is(err, wal.ErrNeedBase) {
		err = e.dur.log.WriteCheckpoint(e.snapshot(), wm)
	}
	return err
}

// snapshot is the base of the current epoch, the record that builds it
// from empty: the dictionary as long as it is now, the view's subject
// replica as inserts, and its cluster size. It takes no lock: the view
// is immutable and carries its epoch and topology, and the dictionary,
// which only grows, held every id of it at publication. The inserts
// come out in the log's codec order, merged from the view's sorted
// files (View.AppendTriples), which Create and WriteCheckpoint would
// otherwise sort them into.
func (e *Engine) snapshot() *wal.Record {
	v := e.part.Current()
	return &wal.Record{
		Epoch:     v.Version(),
		FirstTerm: 1,
		Terms:     e.dict.TermsAfter(0),
		Inserts:   v.AppendTriples(make([]rdf.Triple, 0, v.NumTriples())),
		Topology:  uint32(v.Nodes()),
	}
}

// checkpointIfDue writes a checkpoint once the log has outgrown its
// threshold, unless one is running already; a writer calls it after it
// has released the writer role. With no log there is nothing to
// compact. Its outcome is the log's to keep: a write failure is sticky
// there and fails the next commit.
func (e *Engine) checkpointIfDue() {
	if d := e.dur; d != nil && d.log.NeedCheckpoint() && d.ckptMu.TryLock() {
		_ = e.checkpoint()
		d.ckptMu.Unlock()
	}
}

// Close shuts the engine down once every accepted write has been
// answered. It stops accepting writes, takes the writer role and
// flushes whatever is still queued — so a resize that has started
// completes, on every engine — and the data version never moves after
// Close returns. With a log it then waits out a running checkpoint and
// syncs and closes the WAL. There is nothing else to reap: the engine
// keeps no goroutine, and its execution contexts are memory only. After
// Close every entry point returns ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.qmu.Lock()
	wasClosed := e.closed.Swap(true)
	e.qmu.Unlock()
	if wasClosed {
		return nil
	}
	e.wmu.Lock()
	for e.flushNext() {
	}
	e.wmu.Unlock()
	var err error
	if d := e.dur; d != nil {
		d.ckptMu.Lock()
		err = d.log.Close()
		d.ckptMu.Unlock()
	}
	return err
}

// Compact forces a checkpoint + WAL garbage collection now, in the
// calling goroutine, and reports its outcome. The checkpoint is a delta
// file of the net change since the current base — its size follows what
// changed, not the data — and a full base only once the deltas written
// on that base would reach its size. A Compact that races Close either
// completes or returns ErrClosed. On an engine without a log it is a
// no-op.
func (e *Engine) Compact() error {
	if e.closed.Load() {
		return ErrClosed
	}
	d := e.dur
	if d == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return e.checkpoint()
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
