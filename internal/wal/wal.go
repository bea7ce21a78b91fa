// Package wal is the durable half of the store: a write-ahead log of
// committed insert/delete batches plus periodic snapshot checkpoints,
// giving the in-process CliqueSquare engine the crash tolerance the
// paper delegates to HDFS.
//
// On disk a log directory holds checkpoint files (ckpt-<epoch>: a full
// snapshot of the dictionary and the graph at that epoch) and segment
// files (wal-<epoch>.log: length-prefixed, CRC32-checksummed batch
// records for the epochs after <epoch>). A batch record carries the
// epoch it committed, the dictionary terms first assigned in it (so
// recovery reproduces the exact TermID numbering, and with it the
// node placement of every triple), and the batch's effective inserts
// and deletes.
//
// The write protocol is WAL-first: a record is appended and fsynced
// before the batch mutates any in-memory state, so an acknowledged
// batch is always durable, and a crash can only lose batches that were
// never acknowledged. Recovery loads the newest checkpoint that
// validates, replays the records after it in epoch order, and
// truncates the torn tail a mid-append crash leaves behind. Writing a
// checkpoint rotates the log onto a fresh segment; generations older
// than the previous checkpoint — and below the caller's epoch
// watermark — are deleted, which is what bounds the log's size.
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

// Magic prefixes identify the two file types (8 bytes each).
const (
	segMagic  = "CSQWAL1\n"
	ckptMagic = "CSQCKP1\n"
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
	// triggers a background checkpoint+truncation; 0 means 8 MiB,
	// negative disables automatic checkpoints.
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

// Checkpoint is a full snapshot of the durable state at one epoch:
// the dictionary contents (Terms[i] has TermID i+1) and the graph's
// triples in insertion order. Replaying it reconstructs term numbering
// — and therefore node placement — exactly.
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
// terms first durably recorded by it (FirstTerm is the TermID of
// Terms[0]; earlier IDs are already covered by the checkpoint or prior
// records), and the batch's effective triple delta.
type Record struct {
	Epoch     uint64
	FirstTerm rdf.TermID
	Terms     []rdf.Term
	Inserts   []rdf.Triple
	Deletes   []rdf.Triple
	// Topology, when non-zero, marks this record as one reshard step:
	// after applying the (usually empty) triple delta, the cluster is
	// sized Topology nodes and rows are re-placed accordingly. Ordinary
	// batch records leave it 0.
	Topology uint32
}

// Stats counts the log's activity since it was opened.
type Stats struct {
	// Records and AppendedBytes count batch records written (framing
	// included); Syncs counts fsyncs of the segment.
	Records       uint64
	AppendedBytes int64
	Syncs         uint64
	// Checkpoints and CheckpointBytes count snapshot checkpoints
	// written; RemovedFiles counts segments and checkpoints deleted by
	// generation GC.
	Checkpoints     uint64
	CheckpointBytes int64
	RemovedFiles    uint64
}

// Log is an open write-ahead log: one append-only segment plus the
// checkpoint machinery. Append/Sync are the group-commit hot path;
// WriteCheckpoint rotates and garbage-collects. All methods are safe
// for concurrent use.
type Log struct {
	opts Options
	fs   FS
	dir  string

	mu             sync.Mutex
	seg            File
	epoch          uint64 // last appended record's epoch
	ckptEpoch      uint64 // newest checkpoint's epoch
	bytesSinceCkpt int64
	failed         error
	closed         bool
	buf            []byte
	stats          Stats
}

func segName(base uint64) string   { return fmt.Sprintf("wal-%016x.log", base) }
func ckptName(epoch uint64) string { return fmt.Sprintf("ckpt-%016x", epoch) }

// parseGen extracts the epoch from a segment or checkpoint file name.
func parseGen(name string) (epoch uint64, isSeg, ok bool) {
	if hex, found := strings.CutPrefix(name, "ckpt-"); found && len(hex) == 16 {
		if _, err := fmt.Sscanf(hex, "%016x", &epoch); err == nil {
			return epoch, false, true
		}
	}
	if rest, found := strings.CutPrefix(name, "wal-"); found {
		if hex, found2 := strings.CutSuffix(rest, ".log"); found2 && len(hex) == 16 {
			if _, err := fmt.Sscanf(hex, "%016x", &epoch); err == nil {
				return epoch, true, true
			}
		}
	}
	return 0, false, false
}

// Create initializes a fresh log in opts.Dir from the initial
// checkpoint cp (the just-loaded state). It fails with ErrExists when
// the directory already holds a log.
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
		if _, _, ok := parseGen(e.Name); ok {
			return nil, ErrExists
		}
	}
	if err := l.writeCheckpointFile(cp); err != nil {
		return nil, err
	}
	if err := l.openSegment(cp.Epoch, true); err != nil {
		return nil, err
	}
	return l, nil
}

// Open recovers the log in opts.Dir: it loads the newest checkpoint
// that validates and hands it to seed (the caller reconstructs its
// base state there), then replays every later record in epoch order
// through fn, truncates any torn tail left by a crash, and returns the
// log ready for appending plus the checkpoint recovery started from.
// Either callback may be nil. ErrNoState means the directory holds
// nothing to recover.
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
	var ckpts, segs []uint64
	for _, e := range ents {
		if strings.HasSuffix(e.Name, ".tmp") {
			// Leftover of a checkpoint interrupted mid-write.
			_ = l.fs.Remove(filepath.Join(l.dir, e.Name))
			continue
		}
		epoch, isSeg, ok := parseGen(e.Name)
		if !ok {
			continue
		}
		if isSeg {
			segs = append(segs, epoch)
		} else {
			ckpts = append(ckpts, epoch)
		}
	}
	if len(ckpts) == 0 {
		return nil, nil, ErrNoState
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	var cp *Checkpoint
	for _, epoch := range ckpts {
		c, err := l.readCheckpointFile(ckptName(epoch))
		if err == nil {
			cp = c
			break
		}
	}
	if cp == nil {
		return nil, nil, fmt.Errorf("%w (all checkpoints corrupt)", ErrNoState)
	}
	l.epoch, l.ckptEpoch = cp.Epoch, cp.Epoch
	if seed != nil {
		if err := seed(cp); err != nil {
			return nil, nil, err
		}
	}
	if err := l.replaySegments(segs, cp.Epoch, fn); err != nil {
		return nil, nil, err
	}

	// Reopen (or recreate) the newest segment for appending. A crash
	// between checkpoint and rotation can leave the newest base behind
	// the checkpoint; start a fresh segment at the recovered epoch
	// then, so appends never land in a garbage-collectable generation.
	if n := len(segs); n > 0 && segs[n-1] >= cp.Epoch {
		path := filepath.Join(l.dir, segName(segs[n-1]))
		seg, err := l.fs.OpenAppend(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open: %w", err)
		}
		l.seg = seg
	} else if err := l.openSegment(l.epoch, true); err != nil {
		return nil, nil, err
	}
	return l, cp, nil
}

// replaySegments walks every segment in base order, feeding valid
// records after the checkpoint epoch to fn and physically truncating
// the torn tail of the final segment. A corrupt record anywhere but
// the tail of the final segment is unrecoverable corruption (records
// are fsynced before anything later is written, so only the very last
// append can be torn).
func (l *Log) replaySegments(segs []uint64, ckptEpoch uint64, fn func(*Record) error) error {
	next := ckptEpoch + 1
	for i, base := range segs {
		name := segName(base)
		data, err := l.readFile(name)
		if err != nil {
			return fmt.Errorf("wal: open: %w", err)
		}
		last := i == len(segs)-1
		off := int64(len(segMagic))
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			if last {
				// Crash during rotation: the fresh segment's header never
				// made it down. Recreate it on reuse (openSegment).
				return l.truncateTail(name, data, 0, next)
			}
			return fmt.Errorf("wal: segment %s: bad header", name)
		}
		rest := data[off:]
		for len(rest) > 0 {
			rec, n, ok := decodeRecord(rest)
			if !ok {
				if !last {
					return fmt.Errorf("wal: segment %s: corrupt record mid-log", name)
				}
				return l.truncateTail(name, data, off, next)
			}
			rest = rest[n:]
			off += int64(n)
			if rec.Epoch <= ckptEpoch {
				continue // already folded into the checkpoint
			}
			if rec.Epoch != next {
				return fmt.Errorf("wal: segment %s: epoch %d out of sequence (want %d)", name, rec.Epoch, next)
			}
			if fn != nil {
				if err := fn(rec); err != nil {
					return err
				}
			}
			next = rec.Epoch + 1
			l.epoch = rec.Epoch
		}
	}
	return nil
}

// truncateTail cuts a torn record (or torn header) off the final
// segment so later appends extend a clean prefix.
func (l *Log) truncateTail(name string, data []byte, validOff int64, _ uint64) error {
	if int64(len(data)) == validOff {
		return nil
	}
	if err := l.fs.Truncate(filepath.Join(l.dir, name), validOff); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
	}
	if validOff == 0 {
		// The header itself was torn; drop the file so openSegment
		// recreates it whole.
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			return fmt.Errorf("wal: remove torn segment %s: %w", name, err)
		}
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

// openSegment creates segment <base> with its header and makes the
// creation durable.
func (l *Log) openSegment(base uint64, syncDir bool) error {
	path := filepath.Join(l.dir, segName(base))
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
	l.seg = seg
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

// WriteCheckpoint snapshots cp durably, rotates the log onto a fresh
// segment, and garbage-collects generations that neither the
// keep-two-checkpoints fallback nor the caller's epoch watermark still
// needs. cp.Epoch must not be behind an epoch already appended — the
// snapshot must cover every record it obsoletes.
func (l *Log) WriteCheckpoint(cp *Checkpoint, watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if cp.Epoch < l.ckptEpoch {
		return fmt.Errorf("wal: checkpoint epoch %d behind previous %d", cp.Epoch, l.ckptEpoch)
	}
	prev := l.ckptEpoch
	if err := l.writeCheckpointFile(cp); err != nil {
		l.failed = err
		return err
	}
	// Rotate: later appends land in the new generation's segment.
	old := l.seg
	if err := l.openSegment(cp.Epoch, true); err != nil {
		l.failed = err
		return err
	}
	old.Close()
	l.ckptEpoch = cp.Epoch
	l.bytesSinceCkpt = 0
	l.stats.Checkpoints++

	// GC: every epoch ≥ min(previous checkpoint, pinned-epoch
	// watermark) must stay reconstructible — the previous checkpoint
	// as a fallback against latent corruption of the new one, the
	// watermark for pinned readers. Reconstructing epoch e needs the
	// newest checkpoint at or below e plus the segments after it, so
	// everything before that anchor checkpoint is unreachable and
	// deleted.
	need := prev
	if watermark < need {
		need = watermark
	}
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil // GC is best-effort; the log itself is consistent
	}
	var anchor uint64
	for _, e := range ents {
		epoch, isSeg, ok := parseGen(e.Name)
		if ok && !isSeg && epoch <= need && epoch > anchor {
			anchor = epoch
		}
	}
	for _, e := range ents {
		epoch, _, ok := parseGen(e.Name)
		if ok && epoch < anchor {
			if l.fs.Remove(filepath.Join(l.dir, e.Name)) == nil {
				l.stats.RemovedFiles++
			}
		}
	}
	return nil
}

// writeCheckpointFile writes cp as ckpt-<epoch> via a temp file, an
// fsync, an atomic rename and a directory sync.
func (l *Log) writeCheckpointFile(cp *Checkpoint) error {
	payload := encodeCheckpoint(cp)
	tmp := filepath.Join(l.dir, ckptName(cp.Epoch)+".tmp")
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
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, ckptName(cp.Epoch))); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.stats.CheckpointBytes += int64(len(payload))
	return nil
}

// readCheckpointFile loads and validates one checkpoint file.
func (l *Log) readCheckpointFile(name string) (*Checkpoint, error) {
	data, err := l.readFile(name)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
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

// CheckpointEpoch is the epoch of the newest durable checkpoint.
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
// Checkpoint file: magic | u64 epoch | u32 nodes | u32 nTerms | terms
//                  | u32 nTriples | triples | u32 crc(all after magic)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = putU32(b, uint32(len(t.Value)))
	return append(b, t.Value...)
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

// encodeRecord appends r's framed encoding to b.
func encodeRecord(b []byte, r *Record) []byte {
	head := len(b)
	b = putU32(b, 0) // payload length, patched below
	b = putU32(b, 0) // crc, patched below
	body := len(b)
	b = putU64(b, r.Epoch)
	b = putU32(b, r.Topology)
	b = putU32(b, uint32(r.FirstTerm))
	b = putU32(b, uint32(len(r.Terms)))
	for _, t := range r.Terms {
		b = appendTerm(b, t)
	}
	b = appendTriples(b, r.Inserts)
	b = appendTriples(b, r.Deletes)
	payload := b[body:]
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
	rec = &Record{Epoch: r.u64(), Topology: r.u32(), FirstTerm: rdf.TermID(r.u32())}
	rec.Terms = r.terms()
	rec.Inserts = r.triples()
	rec.Deletes = r.triples()
	if !r.ok || len(r.b) != 0 {
		return nil, 0, false
	}
	return rec, 8 + plen, true
}

// encodeCheckpoint serializes cp as a whole checkpoint file.
func encodeCheckpoint(cp *Checkpoint) []byte {
	b := []byte(ckptMagic)
	b = putU64(b, cp.Epoch)
	b = putU32(b, cp.Nodes)
	b = putU32(b, uint32(len(cp.Terms)))
	for _, t := range cp.Terms {
		b = appendTerm(b, t)
	}
	b = appendTriples(b, cp.Triples)
	return putU32(b, crc32.Checksum(b[len(ckptMagic):], crcTable))
}

// decodeCheckpoint validates and decodes one checkpoint file.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+12 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("wal: checkpoint: bad header")
	}
	body := data[len(ckptMagic) : len(data)-4]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != crc {
		return nil, errors.New("wal: checkpoint: checksum mismatch")
	}
	r := &reader{b: body, ok: true}
	cp := &Checkpoint{Epoch: r.u64(), Nodes: r.u32()}
	cp.Terms = r.terms()
	cp.Triples = r.triples()
	if !r.ok || len(r.b) != 0 {
		return nil, errors.New("wal: checkpoint: malformed body")
	}
	return cp, nil
}
