package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"cliquesquare/internal/rdf"
)

func testOpts(fs FS) Options {
	return Options{Dir: "walroot/log", FS: fs, CheckpointBytes: -1}
}

func mkTerm(i int) rdf.Term {
	return rdf.Term{Kind: rdf.IRI, Value: fmt.Sprintf("http://t/%d", i)}
}

func mkRecord(epoch uint64) *Record {
	return &Record{
		Epoch:     epoch,
		FirstTerm: rdf.TermID(epoch * 10),
		Terms:     []rdf.Term{mkTerm(int(epoch)), {Kind: rdf.Literal, Value: fmt.Sprintf("lit-%d", epoch)}},
		Inserts:   []rdf.Triple{{S: rdf.TermID(epoch), P: 2, O: 3}},
		Deletes:   []rdf.Triple{{S: rdf.TermID(epoch), P: 2, O: 4}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		mkRecord(1),
		{Epoch: 2}, // empty batch: no terms, no triples
		{Epoch: 3, Terms: []rdf.Term{{Kind: rdf.Blank, Value: "b0"}}, FirstTerm: 7,
			Deletes: []rdf.Triple{{S: 1, P: 2, O: 3}, {S: 4, P: 5, O: 6}}},
	}
	var buf []byte
	for _, r := range recs {
		buf = encodeRecord(buf, r)
	}
	rest := buf
	for i, want := range recs {
		got, n, ok := decodeRecord(rest)
		if !ok {
			t.Fatalf("record %d: decode failed", i)
		}
		rest = rest[n:]
		if got.Epoch != want.Epoch || got.FirstTerm != want.FirstTerm ||
			!reflect.DeepEqual(got.Terms, want.Terms) ||
			len(got.Inserts) != len(want.Inserts) || len(got.Deletes) != len(want.Deletes) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all records", len(rest))
	}
}

func TestRecordDecodeRejectsCorruption(t *testing.T) {
	buf := encodeRecord(nil, mkRecord(1))
	// Flip a payload byte: CRC must catch it.
	buf[len(buf)-1] ^= 0xff
	if _, _, ok := decodeRecord(buf); ok {
		t.Fatal("decoded record with corrupt payload")
	}
	// Truncated frame: torn write.
	good := encodeRecord(nil, mkRecord(1))
	for cut := 1; cut < len(good); cut++ {
		if _, _, ok := decodeRecord(good[:cut]); ok {
			t.Fatalf("decoded record truncated to %d of %d bytes", cut, len(good))
		}
	}
}

// TestDecodeRejectsUnknownTermKind: a term whose kind byte is above
// rdf.Blank fails its record (and its checkpoint) although the checksum
// holds — the dictionary recovery rebuilds could only alias it onto
// another term. The highest valid kind still decodes.
func TestDecodeRejectsUnknownTermKind(t *testing.T) {
	for kind, want := range map[rdf.TermKind]bool{rdf.Blank: true, rdf.Blank + 1: false, 0xff: false} {
		terms := []rdf.Term{mkTerm(1), {Kind: kind, Value: "x"}}
		rec := &Record{Epoch: 1, FirstTerm: 1, Terms: terms}
		if _, _, ok := decodeRecord(encodeRecord(nil, rec)); ok != want {
			t.Errorf("record with term kind %d: decoded = %v, want %v", kind, ok, want)
		}
		cp := &Checkpoint{Epoch: 1, Terms: terms}
		if _, err := decodeCheckpoint(encodeCheckpoint(cp)); (err == nil) != want {
			t.Errorf("checkpoint with term kind %d: err = %v, want decoded = %v", kind, err, want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Epoch:   42,
		Terms:   []rdf.Term{mkTerm(1), {Kind: rdf.Literal, Value: "x"}},
		Triples: []rdf.Triple{{S: 1, P: 2, O: 3}},
	}
	got, err := decodeCheckpoint(encodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("got %+v want %+v", got, cp)
	}
	bad := encodeCheckpoint(cp)
	bad[len(bad)/2] ^= 0xff
	if _, err := decodeCheckpoint(bad); err == nil {
		t.Fatal("decoded corrupt checkpoint")
	}
}

// appendSync appends r and syncs, failing the test on error.
func appendSync(t *testing.T, l *Log, r *Record) {
	t.Helper()
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// replayAll opens the log collecting every replayed record.
func replayAll(t *testing.T, opts Options) (*Log, *Checkpoint, []*Record) {
	t.Helper()
	var got []*Record
	l, cp, err := Open(opts, nil, func(r *Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, cp, got
}

func TestCreateOpenReplay(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	cp0 := &Checkpoint{Epoch: 0, Terms: []rdf.Term{mkTerm(0)}}
	l, err := Create(opts, cp0)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 5; e++ {
		appendSync(t, l, mkRecord(e))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cp, got := replayAll(t, opts)
	defer l2.Close()
	if cp.Epoch != 0 || !reflect.DeepEqual(cp.Terms, cp0.Terms) {
		t.Fatalf("recovered checkpoint %+v", cp)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Epoch != uint64(i+1) {
			t.Fatalf("record %d has epoch %d", i, r.Epoch)
		}
	}
	// The recovered log must accept the next epoch.
	appendSync(t, l2, mkRecord(6))
}

func TestCreateRefusesExistingState(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Create(opts, &Checkpoint{}); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create: got %v, want ErrExists", err)
	}
}

func TestOpenEmptyDirIsNoState(t *testing.T) {
	if _, _, err := Open(testOpts(NewMemFS()), nil, nil); !errors.Is(err, ErrNoState) {
		t.Fatalf("got %v, want ErrNoState", err)
	}
}

func TestAppendEpochOutOfSequence(t *testing.T) {
	l, err := Create(testOpts(NewMemFS()), &Checkpoint{Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(mkRecord(5)); err == nil {
		t.Fatal("accepted epoch 5 after checkpoint epoch 3")
	}
	if err := l.Append(mkRecord(4)); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, mkRecord(1))
	appendSync(t, l, mkRecord(2))
	// Epoch 3 is appended but the crash tears its write in half: the
	// record never synced, so recovery must keep exactly epochs 1-2.
	if err := l.Append(mkRecord(3)); err != nil {
		t.Fatal(err)
	}
	fs.SetCrashAt(1, CrashTorn)
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync during crash: %v", err)
	}
	fs.Reboot()

	l2, _, got := replayAll(t, opts)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	// The torn tail must be physically gone: the next append extends a
	// clean prefix and survives a further clean recovery.
	appendSync(t, l2, mkRecord(3))
	l2.Close()
	_, _, got2 := replayAll(t, opts)
	if len(got2) != 3 || got2[2].Epoch != 3 {
		t.Fatalf("after re-append: replayed %d records (last %+v)", len(got2), got2[len(got2)-1])
	}
}

func TestCheckpointFallback(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Checkpoint{Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, mkRecord(1))
	appendSync(t, l, mkRecord(2))
	cp2 := &Checkpoint{Epoch: 2, Triples: []rdf.Triple{{S: 1, P: 2, O: 3}}}
	if err := l.WriteCheckpoint(cp2, 2); err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, mkRecord(3))
	l.Close()

	// Corrupt the newest checkpoint in place: Open must fall back to
	// the epoch-0 checkpoint and replay everything from there. The
	// epoch-0 segment was GC'd (watermark 2 > 0 would remove it)...
	// keep=min(prev=0, wm=2)=0, so nothing was removed and the full
	// chain is still present.
	name := filepath.Join(opts.Dir, ckptName(2))
	data := fs.DurableBytes(name)
	if data == nil {
		t.Fatalf("checkpoint %s missing", name)
	}
	data[len(data)-1] ^= 0xff
	fs.mu.Lock()
	fs.files[clean(name)] = &memFile{durable: data}
	fs.mu.Unlock()

	l2, cp, got := replayAll(t, opts)
	defer l2.Close()
	if cp.Epoch != 0 {
		t.Fatalf("fell back to checkpoint epoch %d, want 0", cp.Epoch)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}

func TestCheckpointGCRemovesOldGenerations(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Checkpoint{Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		appendSync(t, l, mkRecord(e))
	}
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 3}, 3); err != nil {
		t.Fatal(err)
	}
	before := l.LiveBytes()
	for e := uint64(4); e <= 6; e++ {
		appendSync(t, l, mkRecord(e))
	}
	// Second checkpoint: generation 0 is now older than both the kept
	// pair (3, 6) and the watermark, so its files must be deleted.
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 6}, 6); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if g, ok := parseGen(e.Name); ok && g.epoch < 3 {
			t.Fatalf("generation-0 file %s survived GC", e.Name)
		}
	}
	if s := l.Stats(); s.RemovedFiles == 0 {
		t.Fatal("stats report no files removed")
	}
	if after := l.LiveBytes(); after >= before+int64(len(segMagic))*2 {
		// Two checkpoints' worth of state is retained by design; the
		// epoch-0 generation must be gone. (Checkpoints here are tiny,
		// so live bytes stay around the pre-churn level.)
		t.Logf("live bytes before=%d after=%d", before, after)
	}

	// A low watermark (pinned reader) blocks GC of its generation.
	for e := uint64(7); e <= 9; e++ {
		appendSync(t, l, mkRecord(e))
	}
	if err := l.WriteCheckpoint(&Checkpoint{Epoch: 9}, 4); err != nil {
		t.Fatal(err)
	}
	ents, _ = fs.ReadDir(opts.Dir)
	seen3 := false
	for _, e := range ents {
		if g, ok := parseGen(e.Name); ok && g.kind == segFile && g.epoch == 3 {
			seen3 = true
		}
	}
	if !seen3 {
		t.Fatal("segment for generation 3 was GC'd despite watermark 4 needing checkpoint 3 + replay")
	}
	l.Close()

	// Recovery after GC still works from what remains.
	_, cp, got := replayAll(t, opts)
	if cp.Epoch != 9 || len(got) != 0 {
		t.Fatalf("recovered cp=%d with %d records, want cp=9, 0 records", cp.Epoch, len(got))
	}
}

func TestSyncFailurePoisonsLog(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, mkRecord(1))
	if err := l.Append(mkRecord(2)); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncAt(1)
	err = l.Sync()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: got %v, want injected fault", err)
	}
	// Every later operation returns the same sticky failure.
	if err2 := l.Append(mkRecord(3)); !errors.Is(err2, ErrInjected) {
		t.Fatalf("append after failed sync: %v", err2)
	}
	if err2 := l.Sync(); !errors.Is(err2, ErrInjected) {
		t.Fatalf("second sync: %v", err2)
	}
	if err2 := l.WriteCheckpoint(&Checkpoint{Epoch: 2}, 0); !errors.Is(err2, ErrInjected) {
		t.Fatalf("checkpoint after failed sync: %v", err2)
	}
	if l.Err() == nil {
		t.Fatal("Err() reports no sticky failure")
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l, err := Create(testOpts(NewMemFS()), &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := l.Append(mkRecord(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed log: %v", err)
	}
}
