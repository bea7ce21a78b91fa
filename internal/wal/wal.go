// Package wal is the durable half of the store: a write-ahead log of
// committed insert/delete batches plus incremental checkpoints, giving
// the in-process CliqueSquare engine the crash tolerance the paper
// delegates to HDFS.
//
// On disk a log directory holds three kinds of file:
//
//   - bases, ckpt-<epoch>: a full image of the dictionary and the
//     triples at one epoch (a Checkpoint);
//   - deltas, delta-<base>-<epoch>: the net change from base <base> to
//     <epoch> as one Record — the terms minted since the base, the net
//     inserts and deletes, the newest topology — with the base epoch
//     in its header;
//   - segments, wal-<epoch>.log: length-prefixed, CRC32C-checksummed
//     records of the batches committed after <epoch>, one per batch: the
//     epoch it committed, the dictionary terms first assigned in it (so
//     recovery reproduces the exact TermID numbering, and with it the
//     node placement of every triple), and its inserts and deletes.
//
// A checkpoint is a base or a delta. Compaction writes a delta, which
// this package folds by itself from the previous delta on the same base
// and the records after it: records are effective (see Record), so a
// triple's first operation since the base says whether the base held
// it, and the fold never reads the base. A full base, taken from the
// engine's snapshot, is written instead only once the deltas written on
// the current base would reach the base's own size (ski rental, with no
// knob). Per base cycle the checkpoint bytes are thus below twice the
// base, and recovery reads one base, at most one delta and the tail.
//
// The write protocol is WAL-first: a record is appended and fsynced
// before the batch mutates any in-memory state, so an acknowledged
// batch is always durable, and a crash can only lose batches that were
// never acknowledged. Recovery loads the newest base that validates,
// then the newest valid delta on it whose tail the segments still hold
// (else the base alone), replays the records after that in epoch order,
// and truncates the torn tail a mid-append crash leaves behind.
//
// Every checkpoint rotates the log onto a fresh segment and collects
// garbage. Kept is the closure of the previous checkpoint, or of the
// newest one at or below the oldest epoch a reader still pins, if that
// is older: the checkpoint itself, its base when it is a delta, every
// later checkpoint (with its base), and the segments from the one
// holding the first record after it. Everything else is deleted. A
// corrupt newest delta thus falls back to the previous delta plus its
// segments, and a corrupt newest base to the previous base's closure.
//
// A failed append or fsync poisons the log (every later call returns
// the same error): after a failed sync the durable state is unknown,
// and acknowledging anything beyond it could lose an acknowledged
// batch on the next crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cliquesquare/internal/rdf"
)

// Magic prefixes identify the three file types (8 bytes each).
const (
	segMagic   = "CSQWAL1\n"
	ckptMagic  = "CSQCKP1\n"
	deltaMagic = "CSQDLT1\n"
)

var (
	// ErrExists is returned by Create when the directory already holds
	// a log (recover it with Open instead of overwriting).
	ErrExists = errors.New("wal: directory already holds a log")
	// ErrNoState is returned by Open when the directory holds no valid
	// checkpoint to recover from.
	ErrNoState = errors.New("wal: no valid checkpoint in directory")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrNeedBase is returned by WriteDelta when the next checkpoint
	// must be a full base instead: the deltas on the current base would
	// reach its size, or the fold could not be read back. Nothing was
	// written and the log stays usable; write the base with
	// WriteCheckpoint.
	ErrNeedBase = errors.New("wal: the next checkpoint must be a full base")
)

// Options configures a durable engine's log. The zero value of every
// field selects a default.
type Options struct {
	// Dir is the log directory (required).
	Dir string
	// FS is the filesystem seam; nil means the real filesystem.
	FS FS
	// GroupMaxOps caps how many concurrent ApplyBatch callers one
	// group commit coalesces; 0 means 64.
	GroupMaxOps int
	// GroupMaxWait is how long the group-commit batcher holds an open
	// group waiting for more callers before flushing. 0 flushes as
	// soon as the queue drains (no added latency; grouping still
	// happens naturally while a flush's fsync is in progress).
	GroupMaxWait time.Duration
	// CheckpointBytes is the log-bytes-since-checkpoint threshold that
	// triggers a background checkpoint (a delta, or a base when one is
	// due) and log truncation; 0 means 8 MiB, negative disables
	// automatic checkpoints.
	CheckpointBytes int64
}

// WithDefaults resolves zero fields to their defaults.
func (o Options) WithDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	if o.GroupMaxOps == 0 {
		o.GroupMaxOps = 64
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// Checkpoint is a base: a full image of the durable state at one
// epoch, the dictionary contents (Terms[i] has TermID i+1) and the
// triples. Replaying it reconstructs term numbering — and therefore
// node placement — exactly.
type Checkpoint struct {
	Epoch   uint64
	Terms   []rdf.Term
	Triples []rdf.Triple
	// Nodes is the cluster size at the checkpoint epoch. 0 means the
	// checkpoint predates elastic topologies; recovery then falls back
	// to the engine's configured size.
	Nodes uint32
}

// Record is one committed batch: the epoch it created, the dictionary
// terms first durably recorded by it, and the batch's triple delta. A
// delta file holds one Record too, standing for every epoch from its
// base to its own.
//
// Two invariants let the log fold records without the data they apply
// to:
//
//   - Records are effective: every insert was absent and every delete
//     present just before the record, and no triple is both. So the
//     first operation on a triple since a base says whether the base
//     held it, and the last one whether it is held now.
//   - Terms are contiguous: Terms[i] has TermID FirstTerm+i, and each
//     record's FirstTerm is at most one past the last id the base and
//     the records before it cover. A record may overlap what a base
//     already holds (a base snapshots the whole dictionary), never
//     leave a gap.
type Record struct {
	Epoch     uint64
	FirstTerm rdf.TermID
	Terms     []rdf.Term
	Inserts   []rdf.Triple
	Deletes   []rdf.Triple
	// Topology, when non-zero, marks this record as one reshard step:
	// after applying the (usually empty) triple delta, the cluster is
	// sized Topology nodes and rows are re-placed accordingly. Ordinary
	// batch records leave it 0; a delta carries the newest topology
	// since its base, or 0 when there was none.
	Topology uint32
}

// Stats counts the log's activity since it was opened.
type Stats struct {
	// Records and AppendedBytes count batch records written (framing
	// included); Syncs counts fsyncs of the segment.
	Records       uint64
	AppendedBytes int64
	Syncs         uint64
	// Checkpoints counts checkpoints written after Create, bases and
	// deltas; Deltas counts the deltas among them. CheckpointBytes
	// counts every checkpoint byte written, Create's base included.
	// RemovedFiles counts segments and checkpoints deleted by GC.
	Checkpoints     uint64
	Deltas          uint64
	CheckpointBytes int64
	RemovedFiles    uint64
}

// base is what the log knows of the base deltas currently apply to.
type base struct {
	epoch uint64
	bytes int64  // file size: the price of the next full base
	terms uint32 // dictionary ids it covers
}

// Log is an open write-ahead log: one append-only segment plus the
// checkpoint machinery. Append/Sync are the group-commit hot path;
// WriteDelta and WriteCheckpoint rotate and garbage-collect. All
// methods are safe for concurrent use.
type Log struct {
	opts Options
	fs   FS
	dir  string

	mu        sync.Mutex
	seg       File
	segBase   uint64 // the epoch the current segment's records follow
	epoch     uint64 // last appended record's epoch
	ckptEpoch uint64 // newest checkpoint's epoch, base or delta
	// base is the newest base; lastDelta says the newest checkpoint is
	// a delta on it (delta-<base>-<ckptEpoch>), and paid sums the delta
	// bytes written on it.
	base           base
	lastDelta      bool
	paid           int64
	bytesSinceCkpt int64
	failed         error
	closed         bool
	buf            []byte
	stats          Stats
}

func segName(b uint64) string          { return fmt.Sprintf("wal-%016x.log", b) }
func ckptName(epoch uint64) string     { return fmt.Sprintf("ckpt-%016x", epoch) }
func deltaName(b, epoch uint64) string { return fmt.Sprintf("delta-%016x-%016x", b, epoch) }

// genKind tells the three file types apart.
type genKind uint8

const (
	segFile genKind = iota
	baseFile
	deltaFile
)

// gen is a parsed log file name.
type gen struct {
	kind genKind
	// epoch is the epoch a checkpoint captures, or the one a segment's
	// records follow; base is a delta's base (a base's own epoch).
	epoch, base uint64
}

func (g gen) name() string {
	switch g.kind {
	case segFile:
		return segName(g.epoch)
	case baseFile:
		return ckptName(g.epoch)
	}
	return deltaName(g.base, g.epoch)
}

// newer orders checkpoints by the epoch they capture, then by base, a
// delta after the base it applies to: the order they are written in.
func (g gen) newer(h gen) bool {
	if g.epoch != h.epoch {
		return g.epoch > h.epoch
	}
	if g.base != h.base {
		return g.base > h.base
	}
	return g.kind > h.kind
}

// parseGen parses a segment, base or delta file name.
func parseGen(name string) (gen, bool) {
	if rest, ok := strings.CutPrefix(name, "ckpt-"); ok {
		e, ok := hexEpoch(rest)
		return gen{kind: baseFile, epoch: e, base: e}, ok
	}
	if rest, ok := strings.CutPrefix(name, "delta-"); ok && len(rest) == 33 && rest[16] == '-' {
		b, ok1 := hexEpoch(rest[:16])
		e, ok2 := hexEpoch(rest[17:])
		return gen{kind: deltaFile, epoch: e, base: b}, ok1 && ok2 && b <= e
	}
	if rest, ok := strings.CutPrefix(name, "wal-"); ok {
		if hex, ok := strings.CutSuffix(rest, ".log"); ok {
			e, ok := hexEpoch(hex)
			return gen{kind: segFile, epoch: e}, ok
		}
	}
	return gen{}, false
}

func hexEpoch(s string) (e uint64, ok bool) {
	if len(s) != 16 {
		return 0, false
	}
	_, err := fmt.Sscanf(s, "%016x", &e)
	return e, err == nil
}

// Create initializes a fresh log in opts.Dir from the initial base cp
// (the just-loaded state). It fails with ErrExists when the directory
// already holds a log.
func Create(opts Options, cp *Checkpoint) (*Log, error) {
	opts = opts.WithDefaults()
	l := &Log{opts: opts, fs: opts.FS, dir: opts.Dir, epoch: cp.Epoch, ckptEpoch: cp.Epoch}
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	for _, e := range ents {
		if _, ok := parseGen(e.Name); ok {
			return nil, ErrExists
		}
	}
	if err := l.writeBase(cp); err != nil {
		return nil, err
	}
	if err := l.openSegment(cp.Epoch, true); err != nil {
		return nil, err
	}
	return l, nil
}

// Open recovers the log in opts.Dir: it loads the newest base that
// validates and hands it to seed (the caller reconstructs its base
// state there), hands the newest valid delta on that base to fn as one
// record whose Epoch is the delta's, replays every later record in
// epoch order through fn, truncates any torn tail left by a crash, and
// returns the log ready for appending plus the base recovery started
// from. Either callback may be nil. ErrNoState means the directory
// holds nothing to recover.
func Open(opts Options, seed func(*Checkpoint) error, fn func(*Record) error) (*Log, *Checkpoint, error) {
	opts = opts.WithDefaults()
	l := &Log{opts: opts, fs: opts.FS, dir: opts.Dir}
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	var segs []uint64
	var ckpts []gen
	for _, e := range ents {
		if strings.HasSuffix(e.Name, ".tmp") {
			// Leftover of a checkpoint interrupted mid-write.
			_ = l.fs.Remove(filepath.Join(l.dir, e.Name))
			continue
		}
		if g, ok := parseGen(e.Name); ok && g.kind == segFile {
			segs = append(segs, g.epoch)
		} else if ok {
			ckpts = append(ckpts, g)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].newer(ckpts[j]) })

	// Start from the newest checkpoint that validates, whose base
	// validates, and whose records are all on disk: GC deletes a prefix
	// of the segments, so that is when none is left or the oldest one
	// starts at or before it.
	var cp *Checkpoint
	var delta *Record
	var from gen
	for _, g := range ckpts {
		if len(segs) > 0 && segs[0] > g.epoch {
			break // older checkpoints are not followed by their log either
		}
		c, size, err := l.readBase(g.base)
		if err != nil {
			continue
		}
		l.base, l.lastDelta, l.paid = base{c.Epoch, size, uint32(len(c.Terms))}, false, 0
		if g.kind == deltaFile {
			rec, paid, err := l.readDelta(g.epoch)
			if err != nil {
				continue
			}
			delta, l.lastDelta, l.paid = rec, true, paid
		}
		cp, from = c, g
		break
	}
	if cp == nil {
		return nil, nil, fmt.Errorf("%w (no checkpoint both valid and followed by its log)", ErrNoState)
	}
	// Checkpoints newer than the one recovery starts from failed to
	// validate: drop them, so that GC never anchors on one.
	for _, g := range ckpts {
		if g.newer(from) {
			_ = l.fs.Remove(filepath.Join(l.dir, g.name()))
		}
	}
	l.epoch, l.ckptEpoch = from.epoch, from.epoch
	if seed != nil {
		if err := seed(cp); err != nil {
			return nil, nil, err
		}
	}
	if delta != nil && fn != nil {
		if err := fn(delta); err != nil {
			return nil, nil, err
		}
	}
	segs = tailOf(segs, l.ckptEpoch)
	reuse, err := l.replaySegments(segs, l.ckptEpoch, fn)
	if err != nil {
		return nil, nil, err
	}

	// Reopen (or recreate) the newest segment for appending. A crash
	// between checkpoint and rotation can leave the newest base behind
	// the checkpoint; start a fresh segment at the recovered epoch
	// then, as after a torn segment header.
	if n := len(segs); reuse && segs[n-1] >= l.ckptEpoch {
		seg, err := l.fs.OpenAppend(filepath.Join(l.dir, segName(segs[n-1])))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open: %w", err)
		}
		l.seg, l.segBase = seg, segs[n-1]
	} else if err := l.openSegment(l.epoch, true); err != nil {
		return nil, nil, err
	}
	return l, cp, nil
}

// tailOf is the suffix of the ascending segment bases segs that holds
// every record after epoch: from the newest segment starting at or
// before it.
func tailOf(segs []uint64, epoch uint64) []uint64 {
	i := sort.Search(len(segs), func(i int) bool { return segs[i] > epoch })
	return segs[max(i-1, 0):]
}

// replaySegments walks the segments in base order, feeding valid
// records after epoch from to fn and physically truncating the torn
// tail of the final segment; reuse reports whether that segment is
// whole enough to append to. A corrupt record anywhere but the tail of
// the final segment is unrecoverable corruption (records are fsynced
// before anything later is written, so only the very last append can
// be torn).
func (l *Log) replaySegments(segs []uint64, from uint64, fn func(*Record) error) (reuse bool, _ error) {
	next := from + 1
	for i, b := range segs {
		name := segName(b)
		data, err := l.readFile(name)
		if err != nil {
			return false, fmt.Errorf("wal: open: %w", err)
		}
		last := i == len(segs)-1
		off := int64(len(segMagic))
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			if last {
				// Crash during rotation: the fresh segment's header never
				// made it down. Recreate it (openSegment).
				return false, l.truncateTail(name, data, 0)
			}
			return false, fmt.Errorf("wal: segment %s: bad header", name)
		}
		rest := data[off:]
		for len(rest) > 0 {
			rec, n, ok := decodeRecord(rest)
			if !ok {
				if !last {
					return false, fmt.Errorf("wal: segment %s: corrupt record mid-log", name)
				}
				return true, l.truncateTail(name, data, off)
			}
			rest = rest[n:]
			off += int64(n)
			if rec.Epoch <= from {
				continue // already folded into the checkpoint
			}
			if rec.Epoch != next {
				return false, fmt.Errorf("wal: segment %s: epoch %d out of sequence (want %d)", name, rec.Epoch, next)
			}
			if fn != nil {
				if err := fn(rec); err != nil {
					return false, err
				}
			}
			next = rec.Epoch + 1
			l.epoch = rec.Epoch
		}
	}
	return len(segs) > 0, nil
}

// truncateTail cuts a torn record off the final segment so later
// appends extend a clean prefix; a segment whose header is torn
// (validOff 0) is removed for openSegment to recreate whole.
func (l *Log) truncateTail(name string, data []byte, validOff int64) error {
	path := filepath.Join(l.dir, name)
	if validOff == 0 {
		if err := l.fs.Remove(path); err != nil {
			return fmt.Errorf("wal: remove torn segment %s: %w", name, err)
		}
		return nil
	}
	if int64(len(data)) == validOff {
		return nil
	}
	if err := l.fs.Truncate(path, validOff); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
	}
	return nil
}

func (l *Log) readFile(name string) ([]byte, error) {
	f, err := l.fs.Open(filepath.Join(l.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// openSegment creates segment <b> with its header and makes the
// creation durable.
func (l *Log) openSegment(b uint64, syncDir bool) error {
	path := filepath.Join(l.dir, segName(b))
	seg, err := l.fs.Create(path)
	if err != nil {
		return fmt.Errorf("wal: segment: %w", err)
	}
	if _, err := seg.Write([]byte(segMagic)); err != nil {
		seg.Close()
		return fmt.Errorf("wal: segment: %w", err)
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return fmt.Errorf("wal: segment: %w", err)
	}
	if syncDir {
		if err := l.fs.SyncDir(l.dir); err != nil {
			seg.Close()
			return fmt.Errorf("wal: segment: %w", err)
		}
	}
	l.seg, l.segBase = seg, b
	return nil
}

// Append serializes one record into the current segment's buffer of
// the OS. It does not sync; call Sync before acknowledging the batch.
// Records must arrive in epoch order (last epoch + 1).
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r *Record) error {
	if err := l.usable(); err != nil {
		return err
	}
	if r.Epoch != l.epoch+1 {
		return fmt.Errorf("wal: append epoch %d out of sequence (last %d)", r.Epoch, l.epoch)
	}
	l.buf = encodeRecord(l.buf[:0], r)
	if _, err := l.seg.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	l.epoch = r.Epoch
	l.stats.Records++
	l.stats.AppendedBytes += int64(len(l.buf))
	l.bytesSinceCkpt += int64(len(l.buf))
	return nil
}

// Sync makes every appended record durable. A failure poisons the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.seg.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: sync: %w", err)
		return l.failed
	}
	l.stats.Syncs++
	return nil
}

// Commit appends r and makes it durable as one step: the lock is held
// across both, so a concurrent checkpoint's segment rotation can never
// slip between the append and its fsync (which would sync the new,
// empty segment and acknowledge a record that was never made durable).
// The returned durations split the record's serialization+write from
// its fsync, for group-commit timing.
func (l *Log) Commit(r *Record) (appendD, syncD time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t0 := time.Now()
	if err := l.appendLocked(r); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if err := l.syncLocked(); err != nil {
		return t1.Sub(t0), 0, err
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// usable reports the sticky failure or closed state, if any.
func (l *Log) usable() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// Err returns the log's sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// NeedCheckpoint reports whether enough log bytes accumulated since
// the last checkpoint to warrant a new one.
func (l *Log) NeedCheckpoint() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.CheckpointBytes > 0 && l.bytesSinceCkpt >= l.opts.CheckpointBytes
}

// WriteDelta checkpoints epoch incrementally: it folds the newest delta
// on the current base and the records after it, up to epoch, into the
// net change since the base, writes it durably as
// delta-<base>-<epoch>, rotates the log and collects garbage (see
// WriteCheckpoint). epoch must be at or after the newest checkpoint and
// at or before the last appended record. ErrNeedBase means nothing was
// written and the next checkpoint must be a full base: the delta would
// bring the delta bytes written on the base to the base's own size, or
// the fold could not be read back.
func (l *Log) WriteDelta(epoch, watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if epoch < l.ckptEpoch || epoch > l.epoch {
		return fmt.Errorf("wal: delta epoch %d outside [%d, %d]", epoch, l.ckptEpoch, l.epoch)
	}
	rec, err := l.fold(epoch)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNeedBase, err)
	}
	payload := encodeDelta(l.base.epoch, l.paid, rec)
	if l.paid+int64(len(payload)) >= l.base.bytes {
		return ErrNeedBase
	}
	prev := l.newest()
	if err := l.writeFile(deltaName(l.base.epoch, epoch), payload); err != nil {
		l.failed = err
		return err
	}
	l.paid += int64(len(payload))
	l.lastDelta = true
	l.stats.Deltas++
	return l.checkpointed(prev, epoch, watermark)
}

// WriteCheckpoint writes cp durably as the new base, rotates the log
// onto a fresh segment, and garbage-collects what neither the
// previous checkpoint's closure nor the caller's epoch watermark still
// needs. cp.Epoch must not be behind the newest checkpoint — the image
// must cover every record it obsoletes.
func (l *Log) WriteCheckpoint(cp *Checkpoint, watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if cp.Epoch < l.ckptEpoch {
		return fmt.Errorf("wal: checkpoint epoch %d behind previous %d", cp.Epoch, l.ckptEpoch)
	}
	prev := l.newest()
	if err := l.writeBase(cp); err != nil {
		l.failed = err
		return err
	}
	return l.checkpointed(prev, cp.Epoch, watermark)
}

// writeBase writes cp as ckpt-<epoch> and makes it the base later
// deltas apply to.
func (l *Log) writeBase(cp *Checkpoint) error {
	payload := encodeCheckpoint(cp)
	if err := l.writeFile(ckptName(cp.Epoch), payload); err != nil {
		return err
	}
	l.base = base{cp.Epoch, int64(len(payload)), uint32(len(cp.Terms))}
	l.lastDelta, l.paid = false, 0
	return nil
}

// newest names the newest checkpoint's file.
func (l *Log) newest() gen {
	if l.lastDelta {
		return gen{kind: deltaFile, epoch: l.ckptEpoch, base: l.base.epoch}
	}
	return gen{kind: baseFile, epoch: l.base.epoch, base: l.base.epoch}
}

// checkpointed finishes a checkpoint at epoch whose predecessor was
// prev: later appends land in a fresh segment (unless the current one
// holds no record yet), and garbage is collected.
func (l *Log) checkpointed(prev gen, epoch, watermark uint64) error {
	if l.epoch > l.segBase {
		old := l.seg
		if err := l.openSegment(l.epoch, true); err != nil {
			l.failed = err
			return err
		}
		old.Close()
	}
	l.ckptEpoch = epoch
	l.bytesSinceCkpt = 0
	l.stats.Checkpoints++
	l.collect(prev, watermark)
	return nil
}

// collect deletes every file that neither a fallback to the previous
// checkpoint prev nor a recovery of the epochs from watermark on can
// read. The anchor is prev, or the newest checkpoint at or below
// watermark when that is older; kept are the anchor, every later
// checkpoint, the base of each kept delta, and the segments from the
// newest one starting at or before the anchor. GC is best-effort: the
// log itself is consistent whatever it leaves.
func (l *Log) collect(prev gen, watermark uint64) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	gens := make([]gen, 0, len(ents))
	var anchor gen
	found := false
	for _, e := range ents {
		if g, ok := parseGen(e.Name); ok {
			gens = append(gens, g)
			if g.kind != segFile && !g.newer(prev) && g.epoch <= watermark && (!found || g.newer(anchor)) {
				anchor, found = g, true
			}
		}
	}
	if !found {
		return
	}
	var segFloor uint64
	bases := make(map[uint64]bool) // of the anchor and later checkpoints
	for _, g := range gens {
		if g.kind == segFile {
			if g.epoch <= anchor.epoch {
				segFloor = max(segFloor, g.epoch)
			}
		} else if !anchor.newer(g) {
			bases[g.base] = true
		}
	}
	for _, g := range gens {
		var keep bool
		switch g.kind {
		case segFile:
			keep = g.epoch >= segFloor
		case baseFile:
			keep = bases[g.epoch]
		default:
			keep = !anchor.newer(g)
		}
		if !keep && l.fs.Remove(filepath.Join(l.dir, g.name())) == nil {
			l.stats.RemovedFiles++
		}
	}
}

// fold is the net change from the base to epoch: the newest delta on
// the base, if any, then every record after it up to epoch.
func (l *Log) fold(epoch uint64) (*Record, error) {
	f := folder{rec: Record{Epoch: epoch, FirstTerm: rdf.TermID(l.base.terms) + 1}}
	from := l.base.epoch
	if l.lastDelta {
		d, _, err := l.readDelta(l.ckptEpoch)
		if err != nil {
			return nil, err
		}
		if err := f.add(d); err != nil {
			return nil, err
		}
		from = l.ckptEpoch
	}
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if g, ok := parseGen(e.Name); ok && g.kind == segFile {
			segs = append(segs, g.epoch)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	next := from + 1
	for _, b := range tailOf(segs, from) {
		if next > epoch {
			break
		}
		data, err := l.readFile(segName(b))
		if err != nil {
			return nil, err
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			return nil, fmt.Errorf("segment %s: bad header", segName(b))
		}
		for rest := data[len(segMagic):]; len(rest) > 0 && next <= epoch; {
			rec, n, ok := decodeRecord(rest)
			if !ok {
				return nil, fmt.Errorf("segment %s: corrupt record", segName(b))
			}
			rest = rest[n:]
			if rec.Epoch <= from {
				continue
			}
			if rec.Epoch != next {
				return nil, fmt.Errorf("segment %s: epoch %d out of sequence (want %d)", segName(b), rec.Epoch, next)
			}
			if err := f.add(rec); err != nil {
				return nil, err
			}
			next++
		}
	}
	if next != epoch+1 {
		return nil, fmt.Errorf("records %d..%d missing", next, epoch)
	}
	return f.net(), nil
}

// folder nets effective records: it keeps, per triple touched, whether
// the base held it (the opposite of its first operation) and whether it
// is held now (its last), in first-touch order.
type folder struct {
	rec     Record
	held    map[rdf.Triple][2]bool // [at the base, now]
	touched []rdf.Triple
}

func (f *folder) add(r *Record) error {
	end := f.rec.FirstTerm + rdf.TermID(len(f.rec.Terms))
	if r.FirstTerm > end {
		return fmt.Errorf("epoch %d: terms from id %d leave a gap (next is %d)", r.Epoch, r.FirstTerm, end)
	}
	if skip := int(end - r.FirstTerm); skip < len(r.Terms) {
		f.rec.Terms = append(f.rec.Terms, r.Terms[skip:]...)
	}
	if r.Topology != 0 {
		f.rec.Topology = r.Topology
	}
	for _, t := range r.Deletes {
		f.touch(t, false)
	}
	for _, t := range r.Inserts {
		f.touch(t, true)
	}
	return nil
}

func (f *folder) touch(t rdf.Triple, now bool) {
	if f.held == nil {
		f.held = make(map[rdf.Triple][2]bool)
	}
	h, ok := f.held[t]
	if !ok {
		h[0] = !now
		f.touched = append(f.touched, t)
	}
	h[1] = now
	f.held[t] = h
}

// net is the folded record: the triples held now and not at the base
// are inserts, the reverse deletes.
func (f *folder) net() *Record {
	for _, t := range f.touched {
		switch h := f.held[t]; {
		case h[1] && !h[0]:
			f.rec.Inserts = append(f.rec.Inserts, t)
		case h[0] && !h[1]:
			f.rec.Deletes = append(f.rec.Deletes, t)
		}
	}
	return &f.rec
}

// writeFile writes payload as checkpoint file name via a temp file, an
// fsync, an atomic rename and a directory sync.
func (l *Log) writeFile(name string, payload []byte) error {
	tmp := filepath.Join(l.dir, name+".tmp")
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	f.Close()
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, name)); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.stats.CheckpointBytes += int64(len(payload))
	return nil
}

// readBase loads and validates base b, returning its file size too.
func (l *Log) readBase(b uint64) (*Checkpoint, int64, error) {
	data, err := l.readFile(ckptName(b))
	if err != nil {
		return nil, 0, err
	}
	cp, err := decodeCheckpoint(data)
	if err == nil && cp.Epoch != b {
		err = fmt.Errorf("wal: checkpoint %s holds epoch %d", ckptName(b), cp.Epoch)
	}
	return cp, int64(len(data)), err
}

// readDelta loads and validates the delta at epoch on the current base;
// paid is the delta bytes written on the base up to and including it.
func (l *Log) readDelta(epoch uint64) (rec *Record, paid int64, err error) {
	name := deltaName(l.base.epoch, epoch)
	data, err := l.readFile(name)
	if err != nil {
		return nil, 0, err
	}
	b, before, rec, err := decodeDelta(data)
	switch {
	case err != nil:
		return nil, 0, err
	case b != l.base.epoch || rec.Epoch != epoch || rec.FirstTerm != rdf.TermID(l.base.terms)+1:
		return nil, 0, fmt.Errorf("wal: delta %s does not follow its base", name)
	}
	return rec, before + int64(len(data)), nil
}

// Stats snapshots the log's activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Epoch is the last durably appended record's epoch (the checkpoint
// epoch when no record followed it) — the epoch recovery would land on.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// CheckpointEpoch is the epoch of the newest durable checkpoint, base
// or delta.
func (l *Log) CheckpointEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptEpoch
}

// LiveBytes sums the sizes of every file currently in the log
// directory — the measure generation GC shrinks.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		total += e.Size
	}
	return total
}

// Close syncs and closes the segment. Further operations fail with
// ErrClosed (or the earlier sticky error).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.seg == nil {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.seg.Sync()
	}
	if cerr := l.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- binary encoding ---
//
// Record framing:  u32 payloadLen | u32 crc32(payload) | payload
// Record payload:  u64 epoch | u32 topology | u32 firstTerm | u32 nTerms | terms
//                  | u32 nIns | ins (3×u32 each) | u32 nDel | dels
// Term:            u8 kind | u32 len | value bytes
// Base file:       magic | u64 epoch | u32 nodes | u32 nTerms | terms
//                  | u32 nTriples | triples | u32 crc(all after magic)
// Delta file:      magic | u64 base | u64 paid | record payload
//                  | u32 crc(all after magic)
//
// A delta's paid is the delta bytes written on its base before it.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = putU32(b, uint32(len(t.Value)))
	return append(b, t.Value...)
}

func appendTerms(b []byte, ts []rdf.Term) []byte {
	b = putU32(b, uint32(len(ts)))
	for _, t := range ts {
		b = appendTerm(b, t)
	}
	return b
}

func appendTriples(b []byte, ts []rdf.Triple) []byte {
	b = putU32(b, uint32(len(ts)))
	for _, t := range ts {
		b = putU32(b, uint32(t.S))
		b = putU32(b, uint32(t.P))
		b = putU32(b, uint32(t.O))
	}
	return b
}

// appendRecordBody appends r's payload, unframed.
func appendRecordBody(b []byte, r *Record) []byte {
	b = putU64(b, r.Epoch)
	b = putU32(b, r.Topology)
	b = putU32(b, uint32(r.FirstTerm))
	b = appendTerms(b, r.Terms)
	b = appendTriples(b, r.Inserts)
	return appendTriples(b, r.Deletes)
}

// encodeRecord appends r's framed encoding to b.
func encodeRecord(b []byte, r *Record) []byte {
	head := len(b)
	b = putU32(b, 0) // payload length, patched below
	b = putU32(b, 0) // crc, patched below
	b = appendRecordBody(b, r)
	payload := b[head+8:]
	binary.LittleEndian.PutUint32(b[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[head+4:], crc32.Checksum(payload, crcTable))
	return b
}

// reader walks a decoded byte stream; ok turns false on underflow.
type reader struct {
	b  []byte
	ok bool
}

func (r *reader) u32() uint32 {
	if !r.ok || len(r.b) < 4 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if !r.ok || len(r.b) < 8 {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) u8() byte {
	if !r.ok || len(r.b) < 1 {
		r.ok = false
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) bytes(n int) []byte {
	if !r.ok || n < 0 || len(r.b) < n {
		r.ok = false
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// terms decodes a term list. A kind byte above rdf.Blank fails the
// record like any other malformed field: no writer produces one, and
// the dictionary being rebuilt has no place for such a term.
func (r *reader) terms() []rdf.Term {
	n := int(r.u32())
	if !r.ok || n > len(r.b) { // each term takes ≥ 5 bytes
		r.ok = false
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]rdf.Term, 0, n)
	for i := 0; i < n && r.ok; i++ {
		kind := rdf.TermKind(r.u8())
		if kind > rdf.Blank {
			r.ok = false
			return nil
		}
		val := string(r.bytes(int(r.u32())))
		out = append(out, rdf.Term{Kind: kind, Value: val})
	}
	return out
}

func (r *reader) triples() []rdf.Triple {
	n := int(r.u32())
	if !r.ok || n > len(r.b)/12 {
		r.ok = false
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n && r.ok; i++ {
		out = append(out, rdf.Triple{
			S: rdf.TermID(r.u32()), P: rdf.TermID(r.u32()), O: rdf.TermID(r.u32()),
		})
	}
	return out
}

// record decodes a record payload.
func (r *reader) record() *Record {
	rec := &Record{Epoch: r.u64(), Topology: r.u32(), FirstTerm: rdf.TermID(r.u32())}
	rec.Terms = r.terms()
	rec.Inserts = r.triples()
	rec.Deletes = r.triples()
	return rec
}

// done reports whether the stream decoded cleanly and completely.
func (r *reader) done() bool { return r.ok && len(r.b) == 0 }

// decodeRecord reads one framed record off the front of data,
// returning the bytes consumed. ok is false for a torn or corrupt
// record (short frame, short payload, CRC mismatch, malformed body).
func decodeRecord(data []byte) (rec *Record, n int, ok bool) {
	if len(data) < 8 {
		return nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	crc := binary.LittleEndian.Uint32(data[4:])
	if plen < 0 || len(data)-8 < plen {
		return nil, 0, false
	}
	payload := data[8 : 8+plen]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, false
	}
	r := &reader{b: payload, ok: true}
	if rec = r.record(); !r.done() {
		return nil, 0, false
	}
	return rec, 8 + plen, true
}

// seal appends the checksum of everything after magic to a checkpoint
// file's bytes b.
func seal(b []byte, magic string) []byte {
	return putU32(b, crc32.Checksum(b[len(magic):], crcTable))
}

// unseal checks a checkpoint file's magic and checksum and returns a
// reader over its body.
func unseal(data []byte, magic, what string) (*reader, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wal: %s: bad header", what)
	}
	body := data[len(magic) : len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("wal: %s: checksum mismatch", what)
	}
	return &reader{b: body, ok: true}, nil
}

// encodeCheckpoint serializes cp as a whole base file.
func encodeCheckpoint(cp *Checkpoint) []byte {
	b := []byte(ckptMagic)
	b = putU64(b, cp.Epoch)
	b = putU32(b, cp.Nodes)
	b = appendTerms(b, cp.Terms)
	b = appendTriples(b, cp.Triples)
	return seal(b, ckptMagic)
}

// decodeCheckpoint validates and decodes one base file.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	r, err := unseal(data, ckptMagic, "checkpoint")
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Epoch: r.u64(), Nodes: r.u32()}
	cp.Terms = r.terms()
	cp.Triples = r.triples()
	if !r.done() {
		return nil, errors.New("wal: checkpoint: malformed body")
	}
	return cp, nil
}

// encodeDelta serializes rec as a delta file on base b, paid being the
// delta bytes written on b before it.
func encodeDelta(b uint64, paid int64, rec *Record) []byte {
	out := []byte(deltaMagic)
	out = putU64(out, b)
	out = putU64(out, uint64(paid))
	out = appendRecordBody(out, rec)
	return seal(out, deltaMagic)
}

// decodeDelta validates and decodes one delta file.
func decodeDelta(data []byte) (b uint64, paid int64, rec *Record, err error) {
	r, err := unseal(data, deltaMagic, "delta")
	if err != nil {
		return 0, 0, nil, err
	}
	b, paid = r.u64(), int64(r.u64())
	if rec = r.record(); !r.done() {
		return 0, 0, nil, errors.New("wal: delta: malformed body")
	}
	return b, paid, rec, nil
}
