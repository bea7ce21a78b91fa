// Package wal is the durable half of the store: a write-ahead log of
// committed insert/delete batches plus incremental checkpoints, giving
// the in-process CliqueSquare engine the crash tolerance the paper
// delegates to HDFS.
//
// On disk a log directory holds three kinds of file:
//
//   - bases, ckpt-<epoch>: the state at one epoch as the one Record that
//     builds it from empty — every term from id 1, every triple an
//     insert, and the cluster size as its topology;
//   - deltas, delta-<base>-<epoch>: the net change from base <base> to
//     <epoch> as one Record — the terms minted since the base, the net
//     inserts and deletes, the newest topology;
//   - segments, wal-<epoch>.log: length-prefixed, CRC32C-checksummed
//     records of the batches committed after <epoch>, one per batch: the
//     epoch it committed, the dictionary terms first assigned in it (so
//     recovery reproduces the exact TermID numbering, and with it the
//     node placement of every triple), and its inserts and deletes.
//
// Every file starts with a magic that names its format version, and
// Open refuses a directory holding a file of another version without
// changing it. In the current version (see the encoding section) a
// record lists its triples in (property, subject, object) order, one
// group per property, as uvarint gaps — 3.5 to 4 bytes a triple on
// random 400-triple batches of LUBM, where three fixed-width ids took
// twelve — and the decoder accepts only that canonical form.
//
// A checkpoint is a base or a delta, both written as a record image in
// one codec. Compaction writes a delta, which this package folds by
// itself from the previous delta on the same base and the records after
// it: records are effective (see Record), so a triple's first operation
// since the base says whether the base held it, and the fold never
// reads the base. A full base, taken from the engine's snapshot, is
// written instead only once the deltas written on the current base
// would reach the base's own size (ski rental, with no knob). Per base
// cycle the checkpoint bytes are thus below twice the base, and
// recovery reads one base, at most one delta and the tail.
//
// The write protocol is WAL-first: a record is appended and fsynced
// before the batch mutates any in-memory state, so an acknowledged
// batch is always durable, and a crash can only lose batches that were
// never acknowledged. Recovery is the same fold followed by a load: it
// takes the newest base that validates, folds the newest valid delta on
// it whose tail the segments still hold and the records after that into
// one net record — what a delta written at the recovered epoch would
// hold — and truncates the torn tail a mid-append crash leaves behind.
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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliquesquare/internal/rdf"
)

// Magic prefixes identify the two codecs (8 bytes each), and in their
// seventh byte the format version: segments of framed records, and
// record images, which bases and deltas both are.
const (
	segMagic   = "CSQWAL2\n"
	imageMagic = "CSQDLT2\n"
)

// otherVersion reports whether data starts with magic in another
// version: a file of an older (or newer) codec, which is neither
// decoded nor mistaken for a torn write.
func otherVersion(data []byte, magic string) bool {
	v := len(magic) - 2
	return len(data) >= len(magic) && string(data[:v]) == magic[:v] && string(data[:len(magic)]) != magic
}

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
	// ErrFormat is returned by Open when recovery meets a log file of
	// another format version. Open then leaves every log file as it was.
	ErrFormat = errors.New("wal: log file of another format version")
)

// Options configures a durable engine's log. The zero value of every
// field selects a default.
type Options struct {
	// Dir is the log directory (required).
	Dir string
	// FS is the filesystem seam; nil means the real filesystem.
	FS FS
	// GroupMaxWait is ignored; nothing reads it. It remains only for
	// callers that still set it.
	GroupMaxWait time.Duration
	// CheckpointBytes is the log-bytes-since-checkpoint threshold past
	// which NeedCheckpoint asks for a checkpoint (a delta, or a base when
	// one is due) and log truncation; 0 means 8 MiB, negative disables
	// automatic checkpoints.
	CheckpointBytes int64
}

// WithDefaults resolves zero fields to their defaults.
func (o Options) WithDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// Record is one committed batch: the epoch it created, the dictionary
// terms first durably recorded by it, and the batch's triple delta. A
// delta file holds one Record too, standing for every epoch from its
// base to its own, and so does a base: the record that builds its
// epoch's state from empty — the whole dictionary from FirstTerm 1
// (which reproduces term numbering, and with it node placement,
// exactly), every triple an insert, no delete, and the cluster size as
// Topology.
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
//
// Inserts and Deletes are sets, held in codec order: ascending by
// property, subject, object (see Compare). Commit, Create and
// WriteCheckpoint sort the caller's lists in place, and refuse a list
// that holds a triple twice; every record the log hands out — by Open,
// to either callback — is in that order already.
type Record struct {
	Epoch     uint64
	FirstTerm rdf.TermID
	Terms     []rdf.Term
	Inserts   []rdf.Triple
	Deletes   []rdf.Triple
	// Topology, when non-zero, marks this record as one whole resize:
	// after applying the (usually empty) triple delta, the cluster is
	// sized Topology nodes and rows are re-placed accordingly. Ordinary
	// batch records leave it 0; a delta carries the newest topology
	// since its base, or 0 when there was none.
	Topology uint32
}

// Checkpoint is an alias of Record kept only for the frozen benchmark
// program under bench/, whose Open callback spells it; new code says
// Record.
type Checkpoint = Record

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

// parseGen parses a segment, base or delta file name. A name parses
// only if the log would write it back the same — sixteen lowercase hex
// digits per epoch — so a stray file can never stand for a log file.
func parseGen(name string) (gen, bool) {
	var g gen
	var err error
	switch {
	case strings.HasPrefix(name, "ckpt-"):
		g.kind = baseFile
		g.epoch, err = strconv.ParseUint(name[len("ckpt-"):], 16, 64)
		g.base = g.epoch
	case strings.HasPrefix(name, "delta-"):
		b, e, _ := strings.Cut(name[len("delta-"):], "-")
		g.kind = deltaFile
		if g.base, err = strconv.ParseUint(b, 16, 64); err == nil {
			g.epoch, err = strconv.ParseUint(e, 16, 64)
		}
	case strings.HasPrefix(name, "wal-"):
		g.epoch, err = strconv.ParseUint(strings.TrimSuffix(name[len("wal-"):], ".log"), 16, 64)
	default:
		return gen{}, false
	}
	return g, err == nil && g.base <= g.epoch && g.name() == name
}

// Create initializes a fresh log in opts.Dir from the initial base b
// (the just-loaded state; see Record), sorting its lists in place: pass
// a copy of anything that must keep its order, such as a graph's
// Triples. It fails with ErrExists when the directory already holds a
// log.
func Create(opts Options, b *Record) (*Log, error) {
	opts = opts.WithDefaults()
	if err := b.sortLists(); err != nil {
		return nil, err
	}
	l := &Log{opts: opts, fs: opts.FS, dir: opts.Dir, epoch: b.Epoch, ckptEpoch: b.Epoch}
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
	if err := l.writeBase(b); err != nil {
		return nil, err
	}
	if err := l.openSegment(b.Epoch, true); err != nil {
		return nil, err
	}
	return l, nil
}

// Open recovers the log in opts.Dir. It hands seed the newest base that
// validates, whose delta and records are all still on disk, then hands
// fn, exactly once, the net change since that base: the newest valid
// delta on it and every record after that, folded into the one record
// WriteDelta would write at the epoch recovered (an empty record at the
// base's epoch when nothing followed it). It truncates any torn tail
// left by a crash and returns the log ready for appending plus the
// base. Either callback may be nil. ErrNoState means the directory
// holds nothing to recover.
func Open(opts Options, seed, fn func(*Record) error) (*Log, *Record, error) {
	opts = opts.WithDefaults()
	l := &Log{opts: opts, fs: opts.FS, dir: opts.Dir}
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, ckpts, err := l.files()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}

	// Start from the newest checkpoint that validates, whose base
	// validates, and whose records are all on disk: GC deletes a prefix
	// of the segments, so that is when none is left or the oldest one
	// starts at or before it.
	var b, delta *Record
	var from gen
	for _, g := range ckpts {
		if len(segs) > 0 && segs[0] > g.epoch {
			break // older checkpoints are not followed by their log either
		}
		rec, size, err := l.readBase(g.base)
		if errors.Is(err, ErrFormat) {
			return nil, nil, fmt.Errorf("wal: open: %s: %w", ckptName(g.base), err)
		}
		if err != nil {
			continue
		}
		l.base, l.lastDelta, l.paid = base{rec.Epoch, size, uint32(len(rec.Terms))}, false, 0
		if g.kind == deltaFile {
			d, paid, err := l.readDelta(g.epoch)
			if errors.Is(err, ErrFormat) {
				return nil, nil, fmt.Errorf("wal: open: %s: %w", g.name(), err)
			}
			if err != nil {
				continue
			}
			delta, l.lastDelta, l.paid = d, true, paid
		}
		b, from = rec, g
		break
	}
	if b == nil {
		return nil, nil, fmt.Errorf("%w (no checkpoint both valid and followed by its log)", ErrNoState)
	}
	// Checkpoints newer than the one recovery starts from failed to
	// validate: drop them, so that GC never anchors on one.
	for _, g := range ckpts {
		if g.newer(from) {
			_ = l.fs.Remove(filepath.Join(l.dir, g.name()))
		}
	}
	l.ckptEpoch = from.epoch
	if seed != nil {
		if err := seed(b); err != nil {
			return nil, nil, err
		}
	}
	f, torn, err := l.fold(delta, segs, math.MaxUint64)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	l.epoch = f.rec.Epoch
	if torn >= 0 {
		if err := l.truncateTail(segs[len(segs)-1], torn); err != nil {
			return nil, nil, err
		}
	}
	if fn != nil {
		if err := fn(f.net()); err != nil {
			return nil, nil, err
		}
	}

	// Reopen (or recreate) the newest segment for appending. A crash
	// between checkpoint and rotation can leave the newest segment
	// behind the checkpoint; start a fresh segment at the recovered
	// epoch then, as after a torn segment header.
	if n := len(segs); n > 0 && torn != 0 && segs[n-1] >= l.ckptEpoch {
		seg, err := l.fs.OpenAppend(filepath.Join(l.dir, segName(segs[n-1])))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open: %w", err)
		}
		l.seg, l.segBase = seg, segs[n-1]
	} else if err := l.openSegment(l.epoch, true); err != nil {
		return nil, nil, err
	}
	return l, b, nil
}

// files lists the log directory: the segments' bases ascending, the
// checkpoints newest first. A .tmp file is what a checkpoint
// interrupted mid-write left behind; nothing reads it, and it is
// removed.
func (l *Log) files() (segs []uint64, ckpts []gen, err error) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		g, ok := parseGen(e.Name)
		switch {
		case strings.HasSuffix(e.Name, ".tmp"):
			_ = l.fs.Remove(filepath.Join(l.dir, e.Name))
		case !ok:
		case g.kind == segFile:
			segs = append(segs, g.epoch)
		default:
			ckpts = append(ckpts, g)
		}
	}
	slices.Sort(segs)
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].newer(ckpts[j]) })
	return segs, ckpts, nil
}

// fold nets the change since the base through epoch to, or through the
// end of the log if that comes first: d, the newest delta on the base
// (nil when the newest checkpoint is the base itself), then the records
// after it in the ascending segments segs, in epoch order. Only the
// final segment may end in a torn write — a header or record that does
// not decode, all a crash mid-append can leave, since a record is
// fsynced before anything is written after it — and torn is then the
// length of its valid prefix (0 for a torn header), else -1. A record
// that does not decode anywhere else is an error.
func (l *Log) fold(d *Record, segs []uint64, to uint64) (f *folder, torn int64, err error) {
	f = &folder{rec: Record{Epoch: l.base.epoch, FirstTerm: rdf.TermID(l.base.terms) + 1}}
	if d != nil {
		if err := f.add(d); err != nil {
			return nil, -1, err
		}
	}
	from := f.rec.Epoch
	// The records after from start in the newest segment at or before it.
	segs = segs[max(sort.Search(len(segs), func(i int) bool { return segs[i] > from })-1, 0):]
	for i, b := range segs {
		if f.rec.Epoch >= to {
			break
		}
		name := segName(b)
		data, err := l.readFile(name)
		if err != nil {
			return nil, -1, err
		}
		last := i == len(segs)-1
		if otherVersion(data, segMagic) {
			return nil, -1, fmt.Errorf("segment %s: %w", name, ErrFormat)
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			if last {
				return f, 0, nil
			}
			return nil, -1, fmt.Errorf("segment %s: bad header", name)
		}
		for off := len(segMagic); off < len(data) && f.rec.Epoch < to; {
			rec, n, ok := decodeRecord(data[off:])
			if !ok {
				if last {
					return f, int64(off), nil
				}
				return nil, -1, fmt.Errorf("segment %s: corrupt record mid-log", name)
			}
			off += n
			if rec.Epoch <= from {
				continue // folded into the checkpoint already
			}
			if rec.Epoch != f.rec.Epoch+1 {
				return nil, -1, fmt.Errorf("segment %s: epoch %d out of sequence (want %d)", name, rec.Epoch, f.rec.Epoch+1)
			}
			if err := f.add(rec); err != nil {
				return nil, -1, err
			}
		}
	}
	return f, -1, nil
}

// truncateTail cuts the torn tail off segment b at its valid length, so
// later appends extend a clean prefix; a segment whose header is torn
// (valid 0) is removed for openSegment to recreate whole.
func (l *Log) truncateTail(b uint64, valid int64) error {
	path := filepath.Join(l.dir, segName(b))
	if valid == 0 {
		if err := l.fs.Remove(path); err != nil {
			return fmt.Errorf("wal: remove torn segment %s: %w", segName(b), err)
		}
		return nil
	}
	if err := l.fs.Truncate(path, valid); err != nil {
		return fmt.Errorf("wal: truncate torn tail of %s: %w", segName(b), err)
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

// appendLocked writes r into the current segment, unsynced (Commit).
func (l *Log) appendLocked(r *Record) error {
	if err := l.usable(); err != nil {
		return err
	}
	if r.Epoch != l.epoch+1 {
		return fmt.Errorf("wal: append epoch %d out of sequence (last %d)", r.Epoch, l.epoch)
	}
	if err := r.sortLists(); err != nil {
		return err
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

// syncLocked makes every appended record durable (Commit).
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

// Commit appends r, sorting its lists in place (see Record), and makes
// it durable as one step — the one way to log a record. Records must
// arrive in epoch order (last epoch + 1); a failed fsync poisons the
// log. The lock is held across both, so a concurrent checkpoint's
// segment rotation can never slip between the append and its fsync
// (which would sync the new, empty segment and acknowledge a record
// that was never made durable).
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
	rec, err := l.netAt(epoch)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNeedBase, err)
	}
	payload := encodeImage(l.base.epoch, l.paid, rec)
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

// WriteCheckpoint writes b durably as the new base (see Record), its
// lists sorted in place, rotates the log onto a fresh segment, and
// garbage-collects what neither the previous checkpoint's closure nor
// the caller's epoch watermark still needs. b.Epoch must not be behind the newest
// checkpoint — the image must cover every record it obsoletes.
func (l *Log) WriteCheckpoint(b *Record, watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	if b.Epoch < l.ckptEpoch {
		return fmt.Errorf("wal: checkpoint epoch %d behind previous %d", b.Epoch, l.ckptEpoch)
	}
	if err := b.sortLists(); err != nil {
		return err
	}
	prev := l.newest()
	if err := l.writeBase(b); err != nil {
		l.failed = err
		return err
	}
	return l.checkpointed(prev, b.Epoch, watermark)
}

// writeBase writes b as ckpt-<epoch>, an image on itself, and makes it
// the base later deltas apply to. The image holds what a base is — the
// terms from id 1, the triples as inserts, the topology — so that
// readBase accepts it whatever b.FirstTerm and b.Deletes say.
func (l *Log) writeBase(b *Record) error {
	payload := encodeImage(b.Epoch, 0, &Record{Epoch: b.Epoch, FirstTerm: 1, Terms: b.Terms, Inserts: b.Inserts, Topology: b.Topology})
	if err := l.writeFile(ckptName(b.Epoch), payload); err != nil {
		return err
	}
	l.base = base{b.Epoch, int64(len(payload)), uint32(len(b.Terms))}
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

// netAt is the net change from the base through epoch, folded from the
// log's own files: the newest delta on the base, if any, then every
// record after it.
func (l *Log) netAt(epoch uint64) (*Record, error) {
	var d *Record
	if l.lastDelta {
		var err error
		if d, _, err = l.readDelta(l.ckptEpoch); err != nil {
			return nil, err
		}
	}
	segs, _, err := l.files()
	if err != nil {
		return nil, err
	}
	f, _, err := l.fold(d, segs, epoch)
	if err == nil && f.rec.Epoch != epoch {
		err = fmt.Errorf("records %d..%d missing", f.rec.Epoch+1, epoch)
	}
	if err != nil {
		return nil, err
	}
	return f.net(), nil
}

// folder nets effective records: it keeps, per triple touched, whether
// the base held it (the opposite of its first operation) and whether it
// is held now (its last). rec.Epoch is the epoch of the last record
// added.
type folder struct {
	rec  Record
	held map[rdf.Triple][2]bool // [at the base, now]
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
	f.rec.Epoch = r.Epoch
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
	}
	h[1] = now
	f.held[t] = h
}

// net is the folded record: the triples held now and not at the base
// are inserts, the reverse deletes, each list in codec order.
func (f *folder) net() *Record {
	for t, h := range f.held {
		switch {
		case h[1] && !h[0]:
			f.rec.Inserts = append(f.rec.Inserts, t)
		case h[0] && !h[1]:
			f.rec.Deletes = append(f.rec.Deletes, t)
		}
	}
	slices.SortFunc(f.rec.Inserts, Compare)
	slices.SortFunc(f.rec.Deletes, Compare)
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

// readBase loads and validates base b — an image on itself whose record
// builds epoch b from empty — returning its file size too.
func (l *Log) readBase(b uint64) (*Record, int64, error) {
	data, err := l.readFile(ckptName(b))
	if err != nil {
		return nil, 0, err
	}
	on, paid, rec, err := decodeImage(data)
	if err == nil && (on != b || paid != 0 || rec.Epoch != b || rec.FirstTerm != 1 || len(rec.Deletes) > 0) {
		err = fmt.Errorf("wal: checkpoint %s is not a base of epoch %d", ckptName(b), b)
	}
	return rec, int64(len(data)), err
}

// readDelta loads and validates the delta at epoch on the current base;
// paid is the delta bytes written on the base up to and including it.
func (l *Log) readDelta(epoch uint64) (rec *Record, paid int64, err error) {
	name := deltaName(l.base.epoch, epoch)
	data, err := l.readFile(name)
	if err != nil {
		return nil, 0, err
	}
	b, before, rec, err := decodeImage(data)
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
// Record payload:  u64 epoch | u32 topology | u32 firstTerm | uv nTerms | terms
//                  | triples (the inserts) | triples (the deletes)
// Term:            u8 kind | uv len | value bytes
// Triples:         uv n | groups of rows until n rows are read
// Group:           uv property | uv rows | rows (one property's triples)
// Row:             the group's first: uv s | uv o; a later one: uv gap to
//                  s, then uv o, or uv gap to o when the gap to s is 0
// Image file:      magic | u64 base | u64 paid | record payload
//                  | u32 crc(all after magic)
//
// uv is a uvarint (encoding/binary) of minimal length, and each list is
// in codec order (see Compare), which groups its triples by property
// and lets a row take as few as two bytes. The decoder accepts only
// this form: ascending without repeats, minimal uvarints, ids and counts
// in range. So every accepted byte string is what the encoder writes for
// the record decoded from it.
//
// Both kinds of checkpoint are images. A delta's record is the net
// change from its base, and paid the delta bytes written on that base
// before it. A base is an image on itself with paid 0, whose record
// builds its epoch from empty (see Record).

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putUv(b []byte, v uint64) []byte  { return binary.AppendUvarint(b, v) }

// Compare orders triples as records list them: by property, then
// subject, then object.
func Compare(a, b rdf.Triple) int {
	return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
}

// sortLists puts r's lists into codec order in place, which the encoder
// requires. A list holding a triple twice is no set, and no encoding of
// it would decode.
func (r *Record) sortLists() error {
	for _, ts := range [...][]rdf.Triple{r.Inserts, r.Deletes} {
		slices.SortFunc(ts, Compare)
		for i := 1; i < len(ts); i++ {
			if ts[i] == ts[i-1] {
				return fmt.Errorf("wal: triple %v listed twice in one record", ts[i])
			}
		}
	}
	return nil
}

func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = putUv(b, uint64(len(t.Value)))
	return append(b, t.Value...)
}

func appendTerms(b []byte, ts []rdf.Term) []byte {
	b = putUv(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendTerm(b, t)
	}
	return b
}

// appendTriples appends ts, which must be in codec order without
// repeats.
func appendTriples(b []byte, ts []rdf.Triple) []byte {
	b = putUv(b, uint64(len(ts)))
	for i := 0; i < len(ts); {
		j := i + 1
		for j < len(ts) && ts[j].P == ts[i].P {
			j++
		}
		b = putUv(b, uint64(ts[i].P))
		b = putUv(b, uint64(j-i))
		b = putUv(b, uint64(ts[i].S))
		b = putUv(b, uint64(ts[i].O))
		for k := i + 1; k < j; k++ {
			prev, t := ts[k-1], ts[k]
			b = putUv(b, uint64(t.S-prev.S))
			if t.S == prev.S {
				t.O -= prev.O
			}
			b = putUv(b, uint64(t.O))
		}
		i = j
	}
	return b
}

// appendRecordBody appends r's payload, unframed; r's lists must be in
// codec order (see sortLists).
func appendRecordBody(b []byte, r *Record) []byte {
	b = putU64(b, r.Epoch)
	b = putU32(b, r.Topology)
	b = putU32(b, uint32(r.FirstTerm))
	b = appendTerms(b, r.Terms)
	b = appendTriples(b, r.Inserts)
	return appendTriples(b, r.Deletes)
}

// encodeRecord appends r's framed encoding to b; r's lists must be in
// codec order (see sortLists).
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

// reader walks a decoded byte stream; ok turns false on underflow or on
// a field out of its canonical form.
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

// uv reads a uvarint of minimal length — its last byte is not 0 unless
// it is the only one — that is at most limit.
func (r *reader) uv(limit uint64) uint64 {
	if !r.ok {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) || v > limit {
		r.ok = false
		return 0
	}
	r.b = r.b[n:]
	return v
}

// id reads a uvarint gap and returns from+gap, failing past MaxUint32.
func (r *reader) id(from rdf.TermID) rdf.TermID {
	return from + rdf.TermID(r.uv(uint64(math.MaxUint32-from)))
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
	n := int(r.uv(uint64(len(r.b) / 2))) // each term takes ≥ 2 bytes
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
		val := string(r.bytes(int(r.uv(uint64(len(r.b))))))
		out = append(out, rdf.Term{Kind: kind, Value: val})
	}
	return out
}

// triples decodes a triple list, which must be strictly ascending in
// codec order. The count is checked against the bytes left before
// anything is allocated: each row takes ≥ 2 bytes.
func (r *reader) triples() []rdf.Triple {
	n := int(r.uv(uint64(len(r.b) / 2)))
	if n == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, n)
	for r.ok && len(out) < n {
		p := r.id(0)
		if len(out) > 0 && p <= out[len(out)-1].P {
			r.ok = false
		}
		rows := int(r.uv(uint64(n - len(out))))
		t := rdf.Triple{S: r.id(0), P: p, O: r.id(0)}
		if rows == 0 {
			r.ok = false
		}
		out = append(out, t)
		for k := 1; k < rows && r.ok; k++ {
			prev := t
			if t.S = r.id(t.S); t.S != prev.S {
				t.O = r.id(0)
			} else if t.O = r.id(t.O); t.O == prev.O {
				r.ok = false // a repeat, or an overflow
			}
			out = append(out, t)
		}
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

// encodeImage serializes rec as a checkpoint file on base b, paid being
// the delta bytes written on b before it (0 for a base).
func encodeImage(b uint64, paid int64, rec *Record) []byte {
	out := []byte(imageMagic)
	out = putU64(out, b)
	out = putU64(out, uint64(paid))
	out = appendRecordBody(out, rec)
	return putU32(out, crc32.Checksum(out[len(imageMagic):], crcTable))
}

// decodeImage validates and decodes one checkpoint file.
func decodeImage(data []byte) (b uint64, paid int64, rec *Record, err error) {
	if otherVersion(data, imageMagic) {
		return 0, 0, nil, ErrFormat
	}
	if len(data) < len(imageMagic)+4 || string(data[:len(imageMagic)]) != imageMagic {
		return 0, 0, nil, errors.New("wal: checkpoint: bad header")
	}
	body := data[len(imageMagic) : len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, 0, nil, errors.New("wal: checkpoint: checksum mismatch")
	}
	r := &reader{b: body, ok: true}
	b, paid = r.u64(), int64(r.u64())
	if rec = r.record(); !r.done() {
		return 0, 0, nil, errors.New("wal: checkpoint: malformed body")
	}
	return b, paid, rec, nil
}
