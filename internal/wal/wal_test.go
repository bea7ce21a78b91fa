package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
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

// TestRecordRoundTrip: records decode whole — terms, every id of every
// triple, topology — with their lists in codec order, however the
// caller listed them.
func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		mkRecord(1),
		{Epoch: 2}, // empty batch: no terms, no triples
		{Epoch: 3, Terms: []rdf.Term{{Kind: rdf.Blank, Value: "b0"}}, FirstTerm: 7,
			Deletes: []rdf.Triple{{S: 4, P: 5, O: 6}, {S: 1, P: 2, O: 3}, {S: 1, P: 5, O: 9}, {S: 1, P: 5, O: 2}}},
		{Epoch: 4, Topology: 3, Inserts: []rdf.Triple{{S: 9, P: 1, O: 0}, {S: 2, P: 1, O: 7}, {S: 9, P: 1, O: 8}}},
	}
	canon := []*Record{
		recs[0],
		recs[1],
		{Epoch: 3, Terms: recs[2].Terms, FirstTerm: 7,
			Deletes: []rdf.Triple{{S: 1, P: 2, O: 3}, {S: 1, P: 5, O: 2}, {S: 1, P: 5, O: 9}, {S: 4, P: 5, O: 6}}},
		{Epoch: 4, Topology: 3, Inserts: []rdf.Triple{{S: 2, P: 1, O: 7}, {S: 9, P: 1, O: 0}, {S: 9, P: 1, O: 8}}},
	}
	var buf []byte
	for _, r := range recs {
		if err := r.sortLists(); err != nil {
			t.Fatal(err)
		}
		buf = encodeRecord(buf, r)
	}
	rest := buf
	for i, want := range canon {
		got, n, ok := decodeRecord(rest)
		if !ok {
			t.Fatalf("record %d: decode failed", i)
		}
		rest = rest[n:]
		if !reflect.DeepEqual(got, want) {
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
// rdf.Blank fails its record (and its checkpoint image) although the
// checksum holds — the dictionary recovery rebuilds could only alias it
// onto another term. The highest valid kind still decodes.
func TestDecodeRejectsUnknownTermKind(t *testing.T) {
	for kind, want := range map[rdf.TermKind]bool{rdf.Blank: true, rdf.Blank + 1: false, 0xff: false} {
		terms := []rdf.Term{mkTerm(1), {Kind: kind, Value: "x"}}
		rec := &Record{Epoch: 1, FirstTerm: 1, Terms: terms}
		if _, _, ok := decodeRecord(encodeRecord(nil, rec)); ok != want {
			t.Errorf("record with term kind %d: decoded = %v, want %v", kind, ok, want)
		}
		if _, _, _, err := decodeImage(encodeImage(1, 0, rec)); (err == nil) != want {
			t.Errorf("checkpoint with term kind %d: err = %v, want decoded = %v", kind, err, want)
		}
	}
}

// TestCheckpointRoundTrip: a base image decodes to the record it was
// written from, with its base and paid header, and a flipped byte fails
// the checksum.
func TestCheckpointRoundTrip(t *testing.T) {
	b := &Record{
		Epoch:     42,
		FirstTerm: 1,
		Terms:     []rdf.Term{mkTerm(1), {Kind: rdf.Literal, Value: "x"}},
		Inserts:   []rdf.Triple{{S: 1, P: 2, O: 3}},
		Topology:  7,
	}
	img := encodeImage(b.Epoch, 0, b)
	on, paid, got, err := decodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if on != 42 || paid != 0 || !reflect.DeepEqual(got, b) {
		t.Fatalf("got %+v on %d, paid %d; want %+v on 42, paid 0", got, on, paid, b)
	}
	img[len(img)/2] ^= 0xff
	if _, _, _, err := decodeImage(img); err == nil {
		t.Fatal("decoded corrupt checkpoint")
	}
}

// appendSync commits r, failing the test on error.
func appendSync(t *testing.T, l *Log, r *Record) {
	t.Helper()
	if _, _, err := l.Commit(r); err != nil {
		t.Fatal(err)
	}
}

func TestCreateOpenReplay(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{}
	if _, _, err := h.run(opts, 5); err != nil {
		t.Fatal(err)
	}
	l, rc, err := openHistory(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rc.base.Epoch != 0 || len(rc.base.Terms) != historyTerms || rc.epoch != 5 {
		t.Fatalf("recovered base %d with %d terms, to epoch %d; want 0, %d, 5", rc.base.Epoch, len(rc.base.Terms), rc.epoch, historyTerms)
	}
	if err := rc.check(h); err != nil {
		t.Fatal(err)
	}
	// The recovered log must accept the next epoch.
	appendSync(t, l, h.record(6))
}

func TestCreateRefusesExistingState(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Record{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Create(opts, &Record{}); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create: got %v, want ErrExists", err)
	}
}

func TestOpenEmptyDirIsNoState(t *testing.T) {
	if _, _, err := Open(testOpts(NewMemFS()), nil, nil); !errors.Is(err, ErrNoState) {
		t.Fatalf("got %v, want ErrNoState", err)
	}
}

func TestAppendEpochOutOfSequence(t *testing.T) {
	l, err := Create(testOpts(NewMemFS()), &Record{Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.Commit(mkRecord(5)); err == nil {
		t.Fatal("accepted epoch 5 after checkpoint epoch 3")
	}
	if _, _, err := l.Commit(mkRecord(4)); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	l, err := Create(opts, h.base(0))
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, h.record(1))
	appendSync(t, l, h.record(2))
	// Epoch 3 is written but the crash, at Commit's fsync (the second
	// operation, after the write), tears the write in half: the record
	// never synced, so recovery must keep exactly epochs 1-2.
	fs.SetCrashAt(2, CrashTorn)
	if _, _, err := l.Commit(h.record(3)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit during crash: %v", err)
	}
	fs.Reboot()

	l2, rc, err := openHistory(opts)
	if err != nil || rc.epoch != 2 || rc.check(h) != nil {
		t.Fatalf("recovered epoch %d (%v, %v), want 2", rc.epoch, err, rc.check(h))
	}
	// The torn tail must be physically gone: the next append extends a
	// clean prefix and survives a further clean recovery.
	appendSync(t, l2, h.record(3))
	l2.Close()
	if _, rc, err = openHistory(opts); err != nil || rc.epoch != 3 || rc.check(h) != nil {
		t.Fatalf("after re-append: recovered epoch %d (%v, %v), want 3", rc.epoch, err, rc.check(h))
	}
}

func TestCheckpointFallback(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	l, err := Create(opts, h.base(0))
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, h.record(1))
	appendSync(t, l, h.record(2))
	if err := l.WriteCheckpoint(h.base(2), 2); err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, h.record(3))
	l.Close()

	// Corrupt the newest checkpoint in place: Open must fall back to the
	// epoch-0 base and fold everything after it. GC kept that base's
	// closure (the previous checkpoint is its anchor), so the full chain
	// is still present.
	corrupt(t, fs, ckptName(2))
	l2, rc, err := openHistory(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rc.base.Epoch != 0 || rc.epoch != 3 {
		t.Fatalf("fell back to base %d and reached epoch %d, want 0 and 3", rc.base.Epoch, rc.epoch)
	}
	if err := rc.check(h); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointGCRemovesOldGenerations(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	l, err := Create(opts, h.base(0))
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		appendSync(t, l, h.record(e))
	}
	if err := l.WriteCheckpoint(h.base(3), 3); err != nil {
		t.Fatal(err)
	}
	for e := uint64(4); e <= 6; e++ {
		appendSync(t, l, h.record(e))
	}
	// Second checkpoint: generation 0 is now older than both the kept
	// pair (3, 6) and the watermark, so its files must be deleted.
	if err := l.WriteCheckpoint(h.base(6), 6); err != nil {
		t.Fatal(err)
	}
	for _, name := range logFiles(t, fs) {
		if g, ok := parseGen(name); ok && g.epoch < 3 {
			t.Fatalf("generation-0 file %s survived GC", name)
		}
	}
	if s := l.Stats(); s.RemovedFiles == 0 {
		t.Fatal("stats report no files removed")
	}

	// A low watermark (pinned reader) blocks GC of its generation.
	for e := uint64(7); e <= 9; e++ {
		appendSync(t, l, h.record(e))
	}
	if err := l.WriteCheckpoint(h.base(9), 4); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(logFiles(t, fs), segName(3)) {
		t.Fatal("segment for generation 3 was GC'd despite watermark 4 needing checkpoint 3 + replay")
	}
	l.Close()

	// Recovery after GC still works from what remains.
	_, rc, err := openHistory(opts)
	if err != nil || rc.base.Epoch != 9 || rc.epoch != 9 || rc.check(h) != nil {
		t.Fatalf("recovered base %d to epoch %d (%v, %v), want 9 and 9", rc.base.Epoch, rc.epoch, err, rc.check(h))
	}
}

// TestStrayFileNamesIgnored: a file named as the log would never name
// one — uppercase hex, a space or too few digits in an epoch — is no log
// file. Open recovers beside it, and GC neither removes it nor counts a
// removal it did not make.
func TestStrayFileNamesIgnored(t *testing.T) {
	strays := []string{"wal-000000000000000A.log", "ckpt-000000000000000A", "wal- 00000000000001a.log"}
	for _, name := range append(strays, "ckpt-1a", "delta-0000000000000000-000000000000000A", "wal-000000000000001a") {
		if g, ok := parseGen(name); ok {
			t.Errorf("%q parses as %+v", name, g)
		}
	}
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	if _, _, err := h.run(opts, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range strays {
		f, err := fs.Create(filepath.Join(opts.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(segMagic)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	l, rc, err := openHistory(opts)
	if err != nil {
		t.Fatalf("recovery beside stray files: %v", err)
	}
	if err := rc.check(h); err != nil || rc.epoch != 2 {
		t.Fatalf("recovered epoch %d: %v", rc.epoch, err)
	}
	seen := make(map[string]bool)
	for e := uint64(3); e <= 40; e++ {
		appendSync(t, l, h.record(e))
		if e%10 == 0 {
			for _, name := range logFiles(t, fs) {
				seen[name] = true
			}
			if err := l.WriteCheckpoint(h.base(e), e); err != nil {
				t.Fatal(err)
			}
		}
	}
	final := logFiles(t, fs)
	removed := len(seen)
	for _, name := range final {
		if seen[name] {
			removed--
		}
	}
	for _, name := range strays {
		if !slices.Contains(final, name) {
			t.Errorf("GC removed the stray file %q", name)
		}
	}
	if got := l.Stats().RemovedFiles; got != uint64(removed) {
		t.Errorf("GC counts %d removals, %d log files are gone", got, removed)
	}
	l.Close()
}

func TestSyncFailurePoisonsLog(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	l, err := Create(opts, &Record{})
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, mkRecord(1))
	fs.FailSyncAt(1)
	if _, _, err = l.Commit(mkRecord(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit: got %v, want injected fault", err)
	}
	// Every later operation returns the same sticky failure.
	if _, _, err2 := l.Commit(mkRecord(3)); !errors.Is(err2, ErrInjected) {
		t.Fatalf("commit after failed sync: %v", err2)
	}
	if _, _, err2 := l.Commit(mkRecord(2)); !errors.Is(err2, ErrInjected) {
		t.Fatalf("retried commit: %v", err2)
	}
	if err2 := l.WriteCheckpoint(&Record{Epoch: 2}, 0); !errors.Is(err2, ErrInjected) {
		t.Fatalf("checkpoint after failed sync: %v", err2)
	}
	if l.Err() == nil {
		t.Fatal("Err() reports no sticky failure")
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l, err := Create(testOpts(NewMemFS()), &Record{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, _, err := l.Commit(mkRecord(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit on closed log: %v", err)
	}
	if err := l.WriteDelta(0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("delta on closed log: %v", err)
	}
}
