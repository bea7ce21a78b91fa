package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cliquesquare/internal/rdf"
)

// historyTerms is the dictionary size of every scripted history's
// initial base. It sizes that base so a churn history compacted at
// epochs 2, 4 and 6 (or 2, 4 and 4 again) writes a delta, a second delta
// and then, by the ski-rental rule, a full base. It is read off the
// codec, not pinned: the largest base that the delta images at epochs 2
// and 4 stay under and a second image of epoch 4 brings them to — the
// largest, so that scripts compacting less often write deltas only.
var historyTerms = sizeHistoryBase()

// sizeHistoryBase returns historyTerms, encoding each candidate base —
// its terms, no triple — and the deltas a churn history on it writes:
// the net change since the base, the terms minted since and the epoch's
// one triple.
func sizeHistoryBase() int {
	terms := func(from, to int) (out []rdf.Term) {
		for i := from; i <= to; i++ {
			out = append(out, mkTerm(i))
		}
		return out
	}
	best := 0
	for t := 1; ; t++ {
		delta := func(e int) int {
			net := &Record{Epoch: uint64(e), FirstTerm: rdf.TermID(t + 1), Terms: terms(t+1, t+e), Inserts: []rdf.Triple{historyTriple(uint64(e))}}
			return len(encodeImage(0, 0, net))
		}
		base, d2, d4 := len(encodeImage(0, 0, &Record{FirstTerm: 1, Terms: terms(1, t)})), delta(2), delta(4)
		switch {
		case base > d2+2*d4 && best == 0:
			panic("no base folds the scripted histories where their tests say")
		case base > d2+2*d4:
			return best
		case d2+d4 < base:
			best = t
		}
	}
}

// history scripts effective records over an initial base of historyTerms
// terms and no triple: record e mints term historyTerms+e and inserts
// triple (e, 1, e). Under churn it also deletes the previous record's
// triple, so the content stays one triple; otherwise it only grows.
type history struct{ churn bool }

func historyTriple(e uint64) rdf.Triple { return rdf.Triple{S: rdf.TermID(e), P: 1, O: rdf.TermID(e)} }

func (h history) record(e uint64) *Record {
	id := uint64(historyTerms) + e
	r := &Record{Epoch: e, FirstTerm: rdf.TermID(id), Terms: []rdf.Term{mkTerm(int(id))}, Inserts: []rdf.Triple{historyTriple(e)}}
	if h.churn && e > 1 {
		r.Deletes = []rdf.Triple{historyTriple(e - 1)}
	}
	return r
}

// triples is the content at epoch e.
func (h history) triples(e uint64) []rdf.Triple {
	var out []rdf.Triple
	for i := uint64(1); i <= e; i++ {
		if !h.churn || i == e {
			out = append(out, historyTriple(i))
		}
	}
	return out
}

// base is the record that builds epoch e from empty.
func (h history) base(e uint64) *Record {
	b := &Record{Epoch: e, FirstTerm: 1, Inserts: h.triples(e)}
	for i := 1; i <= historyTerms+int(e); i++ {
		b.Terms = append(b.Terms, mkTerm(i))
	}
	return b
}

// compact checkpoints epoch e as an engine does: a delta, or the full
// base the log asks for.
func (h history) compact(l *Log, e, watermark uint64) error {
	err := l.WriteDelta(e, watermark)
	if errors.Is(err, ErrNeedBase) {
		err = l.WriteCheckpoint(h.base(e), watermark)
	}
	return err
}

// run creates a log and appends records 1..n, compacting after the
// epochs listed; it returns the last acknowledged epoch and the log's
// statistics. It stops at the first error (an armed crash).
func (h history) run(opts Options, n uint64, compactAt ...uint64) (acked uint64, st Stats, err error) {
	l, err := Create(opts, h.base(0))
	if err != nil {
		return 0, st, err
	}
	defer l.Close()
	defer func() { st = l.Stats() }()
	for e := uint64(1); e <= n; e++ {
		if _, _, err := l.Commit(h.record(e)); err != nil {
			return acked, st, err
		}
		acked = e
		for _, c := range compactAt {
			if c == e {
				if err := h.compact(l, e, e); err != nil {
					return acked, st, err
				}
			}
		}
	}
	return acked, st, nil
}

// recovery is what Open handed over, applied: the base, the checkpoint
// recovery started from (a delta's epoch when one was used), the epoch
// reached, the dictionary rebuilt and the triples held.
type recovery struct {
	base  *Record
	first uint64
	epoch uint64
	terms []rdf.Term
	held  map[rdf.Triple]bool
}

// openHistory recovers a log, checking what Open hands over against the
// record invariants: after the base, exactly one net record, at or after
// its epoch, whose terms follow the base's and whose inserts and deletes
// are effective against it.
func openHistory(opts Options) (*Log, *recovery, error) {
	rc := &recovery{held: make(map[rdf.Triple]bool)}
	nets := 0
	l, b, err := Open(opts, func(b *Record) error {
		rc.epoch, rc.terms = b.Epoch, append([]rdf.Term(nil), b.Terms...)
		for _, t := range b.Inserts {
			rc.held[t] = true
		}
		return nil
	}, func(r *Record) error {
		if nets++; nets > 1 || r.Epoch < rc.epoch {
			return fmt.Errorf("net record %d, of epoch %d, after the base of epoch %d", nets, r.Epoch, rc.epoch)
		}
		if int(r.FirstTerm) != len(rc.terms)+1 {
			return fmt.Errorf("epoch %d: terms from id %d after the base's %d", r.Epoch, r.FirstTerm, len(rc.terms))
		}
		rc.terms = append(rc.terms, r.Terms...)
		for _, t := range r.Deletes {
			if !rc.held[t] {
				return fmt.Errorf("epoch %d deletes absent %v", r.Epoch, t)
			}
			delete(rc.held, t)
		}
		for _, t := range r.Inserts {
			if rc.held[t] {
				return fmt.Errorf("epoch %d inserts present %v", r.Epoch, t)
			}
			rc.held[t] = true
		}
		rc.epoch = r.Epoch
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if nets != 1 {
		return l, rc, fmt.Errorf("Open handed over %d net records, want 1", nets)
	}
	rc.base, rc.first = b, l.CheckpointEpoch()
	return l, rc, nil
}

// check compares the recovered state with the history at its epoch.
func (rc *recovery) check(h history) error {
	if want := h.base(rc.epoch); !reflect.DeepEqual(rc.terms, want.Terms) {
		return fmt.Errorf("epoch %d: recovered %d terms, want %d", rc.epoch, len(rc.terms), len(want.Terms))
	}
	want := make(map[rdf.Triple]bool)
	for _, t := range h.triples(rc.epoch) {
		want[t] = true
	}
	if !reflect.DeepEqual(rc.held, want) {
		return fmt.Errorf("epoch %d: recovered %v, want %v", rc.epoch, rc.held, want)
	}
	return nil
}

// corrupt flips the last byte of a file in fs.
func corrupt(t *testing.T, fs *MemFS, name string) {
	t.Helper()
	name = filepath.Join("walroot/log", name)
	data := fs.DurableBytes(name)
	if data == nil {
		t.Fatalf("%s missing", name)
	}
	data[len(data)-1] ^= 0xff
	fs.mu.Lock()
	fs.files[clean(name)] = &memFile{durable: data}
	fs.mu.Unlock()
}

// logFiles lists the log directory's file names, sorted.
func logFiles(t *testing.T, fs *MemFS) []string {
	t.Helper()
	ents, err := fs.ReadDir("walroot/log")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// TestDeltaRecovery: compactions write deltas of the net change since
// the base — a churned-away triple leaves no trace, the terms minted
// since the base all do — and recovery rebuilds the exact state from
// the base, the newest delta and the records after it.
func TestDeltaRecovery(t *testing.T) {
	for _, h := range []history{{churn: true}, {churn: false}} {
		fs := NewMemFS()
		opts := testOpts(fs)
		if _, st, err := h.run(opts, 5, 2, 4); err != nil || st.Deltas != 2 || st.Checkpoints != 2 {
			t.Fatalf("churn=%v: stats %+v, err %v; want two deltas", h.churn, st, err)
		}
		l, rc, err := openHistory(opts)
		if err != nil {
			t.Fatal(err)
		}
		if rc.base.Epoch != 0 || rc.first != 4 || rc.epoch != 5 {
			t.Errorf("churn=%v: recovered from base %d, first record %d, to epoch %d; want 0, 4 (the delta), 5",
				h.churn, rc.base.Epoch, rc.first, rc.epoch)
		}
		if err := rc.check(h); err != nil {
			t.Errorf("churn=%v: %v", h.churn, err)
		}
		// The recovered log folds the delta it recovered from.
		if _, _, err := l.Commit(h.record(6)); err != nil {
			t.Fatal(err)
		}
		if err := h.compact(l, 6, 6); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if _, rc, err = openHistory(opts); err != nil || rc.epoch != 6 || rc.check(h) != nil {
			t.Errorf("churn=%v: after a delta of the reopened log: epoch %d, %v, %v", h.churn, rc.epoch, err, rc.check(h))
		}
	}
}

// TestDeltaFoldsIntoBase pins the ski-rental rule and GC's closure: the
// third compaction of the churn history would bring the delta bytes on
// the initial base to its size, so it writes a base; the next delta
// applies to that base, after which only its closure is left.
func TestDeltaFoldsIntoBase(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	_, st, err := h.run(opts, 8, 2, 4, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 4 || st.Deltas != 3 {
		t.Fatalf("%d checkpoints of which %d deltas, want 4 and 3 (delta, delta, base, delta)", st.Checkpoints, st.Deltas)
	}
	want := []string{ckptName(6), deltaName(6, 8), segName(6), segName(8)}
	sort.Strings(want)
	if got := logFiles(t, fs); !reflect.DeepEqual(got, want) {
		t.Errorf("log files %v, want the closure of the last two checkpoints %v", got, want)
	}
	_, rc, err := openHistory(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rc.base.Epoch != 6 || rc.first != 8 || rc.epoch != 8 {
		t.Errorf("recovered from base %d, first record %d, to %d; want 6, 8, 8", rc.base.Epoch, rc.first, rc.epoch)
	}
	if err := rc.check(h); err != nil {
		t.Error(err)
	}
}

// TestCorruptDeltaFallsBack: with the newest delta corrupt, recovery
// starts from the previous delta on the same base, whose segments GC
// kept, and reaches the same state.
func TestCorruptDeltaFallsBack(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	if _, _, err := h.run(opts, 5, 2, 4); err != nil {
		t.Fatal(err)
	}
	corrupt(t, fs, deltaName(0, 4))
	l, rc, err := openHistory(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rc.base.Epoch != 0 || rc.first != 2 || rc.epoch != 5 {
		t.Errorf("recovered from base %d, first record %d, to %d; want 0, 2 (the previous delta), 5", rc.base.Epoch, rc.first, rc.epoch)
	}
	if err := rc.check(h); err != nil {
		t.Error(err)
	}
	// The corrupt delta is gone, and the next delta folds the one used.
	if err := h.compact(l, 5, 5); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, rc, err = openHistory(opts); err != nil || rc.first != 5 || rc.check(h) != nil {
		t.Errorf("after the next delta: first record %d, %v, %v", rc.first, err, rc.check(h))
	}
}

// TestCorruptBaseFallsBack: with the newest base corrupt, recovery
// starts from the previous base's closure — that base, its newest delta
// and the segments after it — and reaches the same state. In the
// second script the base folds at the epoch of the delta before it (a
// second compaction with no commit between), which GC must still keep.
func TestCorruptBaseFallsBack(t *testing.T) {
	for _, c := range []struct {
		n, base   uint64
		compactAt []uint64
	}{
		{n: 7, base: 6, compactAt: []uint64{2, 4, 6}},
		{n: 5, base: 4, compactAt: []uint64{2, 4, 4}},
	} {
		fs := NewMemFS()
		opts := testOpts(fs)
		h := history{churn: true}
		if _, st, err := h.run(opts, c.n, c.compactAt...); err != nil || st.Checkpoints-st.Deltas != 1 {
			t.Fatalf("%v: stats %+v, err %v; want the third checkpoint a base", c.compactAt, st, err)
		}
		corrupt(t, fs, ckptName(c.base))
		l, rc, err := openHistory(opts)
		if err != nil {
			t.Fatalf("%v: %v", c.compactAt, err)
		}
		if rc.base.Epoch != 0 || rc.first != 4 || rc.epoch != c.n {
			t.Errorf("%v: recovered from base %d, first record %d, to %d; want 0, 4, %d", c.compactAt, rc.base.Epoch, rc.first, rc.epoch, c.n)
		}
		if err := rc.check(h); err != nil {
			t.Errorf("%v: %v", c.compactAt, err)
		}
		// The corrupt base is gone: the next checkpoint applies to the
		// base recovery used, and survives a further GC and recovery.
		if err := h.compact(l, c.n, c.n); err != nil {
			t.Fatal(err)
		}
		for _, name := range logFiles(t, fs) {
			if name == ckptName(c.base) {
				t.Errorf("%v: the corrupt base %s survived recovery", c.compactAt, name)
			}
		}
		l.Close()
		if _, rc, err = openHistory(opts); err != nil || rc.epoch != c.n || rc.check(h) != nil {
			t.Errorf("%v: after the next checkpoint: epoch %d, %v, %v", c.compactAt, rc.epoch, err, rc.check(h))
		}
	}
}

// TestInsertOnlyRespectsTwiceTheBase: an insert-only stream, compacted
// after every record, grows every delta. The deltas written on a base
// never reach its size, so a base cycle writes less than twice the base
// that opens it, and recovery reads less than twice a base plus the
// tail.
func TestInsertOnlyRespectsTwiceTheBase(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{}
	l, err := Create(opts, h.base(0))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := l.Stats()
	baseBytes, paid, bases := st.CheckpointBytes, int64(0), 0
	for e := uint64(1); e <= 60; e++ {
		appendSync(t, l, h.record(e))
		if err := h.compact(l, e, e); err != nil {
			t.Fatal(err)
		}
		next := l.Stats()
		wrote := next.CheckpointBytes - st.CheckpointBytes
		if next.Deltas > st.Deltas {
			paid += wrote
			if paid >= baseBytes {
				t.Fatalf("epoch %d: %d delta bytes on a base of %d", e, paid, baseBytes)
			}
			if 2*baseBytes <= baseBytes+wrote {
				t.Fatalf("epoch %d: base %d + delta %d is twice the base or more", e, baseBytes, wrote)
			}
		} else {
			baseBytes, paid = wrote, 0
			bases++
		}
		st = next
	}
	if bases < 3 {
		t.Fatalf("%d bases in 60 growing compactions, want the rule to fold at least 3", bases)
	}
	l.Close()
	if _, rc, err := openHistory(opts); err != nil || rc.epoch != 60 || rc.check(h) != nil {
		t.Errorf("recovered epoch %d: %v, %v", rc.epoch, err, rc.check(h))
	}
}

// TestOpenFoldsTheTail: recovery hands over the change since the base as
// one record, the delta and the records after it folded together: byte
// for byte the record of the delta the recovered log then writes at the
// same epoch.
func TestOpenFoldsTheTail(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	if _, st, err := h.run(opts, 5, 2); err != nil || st.Deltas != 1 {
		t.Fatalf("stats %+v, err %v; want a delta at epoch 2, then records 3 to 5", st, err)
	}
	var nets []*Record
	l, b, err := Open(opts, nil, func(r *Record) error {
		nets = append(nets, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(nets) != 1 {
		t.Fatalf("Open handed over %d records, want the one net record", len(nets))
	}
	if b.Epoch != 0 || l.CheckpointEpoch() != 2 || nets[0].Epoch != 5 {
		t.Fatalf("base %d, checkpoint %d, net record of epoch %d; want 0, 2 (the delta), 5", b.Epoch, l.CheckpointEpoch(), nets[0].Epoch)
	}
	if err := l.WriteDelta(5, 5); err != nil {
		t.Fatal(err)
	}
	_, _, d, err := decodeImage(fs.DurableBytes(filepath.Join(opts.Dir, deltaName(0, 5))))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeRecord(nil, nets[0]), encodeRecord(nil, d); !bytes.Equal(got, want) {
		t.Errorf("Open folded %x, the delta at the same epoch holds %x", got, want)
	}
}

// TestDeltaCarriesTopology: a delta keeps the newest topology since its
// base, and recovery hands it over.
func TestDeltaCarriesTopology(t *testing.T) {
	fs := NewMemFS()
	opts := testOpts(fs)
	h := history{churn: true}
	l, err := Create(opts, h.base(0))
	if err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, h.record(1))
	appendSync(t, l, &Record{Epoch: 2, FirstTerm: rdf.TermID(historyTerms + 2), Topology: 9})
	appendSync(t, l, &Record{Epoch: 3, FirstTerm: rdf.TermID(historyTerms + 2), Topology: 5})
	if err := l.WriteDelta(3, 3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var topo uint32
	_, _, err = Open(opts, nil, func(r *Record) error {
		topo = r.Topology
		return nil
	})
	if err != nil || topo != 5 {
		t.Fatalf("recovered topology %d (%v), want 5", topo, err)
	}
}

// TestCrashAtEveryWalBoundary drives a fixed append/checkpoint script
// against the log with a crash injected at every filesystem fault
// point, in every crash mode, and verifies recovery always yields a
// consistent prefix that includes every synced (acknowledged) epoch and
// holds exactly the scripted content of the epoch it reached. The
// script writes two deltas, a base by the ski-rental rule, and a delta
// on that base.
func TestCrashAtEveryWalBoundary(t *testing.T) {
	h := history{churn: true}
	const n = 8
	compactAt := []uint64{2, 4, 6, 8}
	opts := func(fs FS) Options { return Options{Dir: "walroot/log", FS: fs, CheckpointBytes: -1} }

	rehearsal := NewMemFS()
	acked, st, err := h.run(opts(rehearsal), n, compactAt...)
	if err != nil || acked != n {
		t.Fatalf("rehearsal: acked=%d err=%v", acked, err)
	}
	if st.Deltas < 2 || st.Checkpoints-st.Deltas < 1 {
		t.Fatalf("rehearsal wrote %d checkpoints of which %d deltas; want deltas and a base", st.Checkpoints, st.Deltas)
	}
	totalOps := rehearsal.Ops()
	if totalOps < 10 {
		t.Fatalf("rehearsal counted only %d fault points", totalOps)
	}

	for crashOp := 1; crashOp <= totalOps; crashOp++ {
		for _, mode := range CrashModes {
			t.Run(fmt.Sprintf("op%02d_%s", crashOp, mode), func(t *testing.T) {
				fs := NewMemFS()
				fs.SetCrashAt(crashOp, mode)
				acked, _, err := h.run(opts(fs), n, compactAt...)
				if err == nil && acked != n {
					// err == nil with all epochs acked means the crash hit
					// inside the deferred Close — still a valid crash point.
					t.Fatal("script completed despite armed crash")
				}
				fs.Reboot()

				l, rc, err := openHistory(opts(fs))
				if errors.Is(err, ErrNoState) {
					// The crash hit before the initial checkpoint became
					// durable: nothing was ever acknowledged.
					if acked != 0 {
						t.Fatalf("no state recovered but epoch %d was acked", acked)
					}
					return
				}
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer l.Close()
				if rc.epoch < acked {
					t.Fatalf("recovered through epoch %d but epoch %d was acked", rc.epoch, acked)
				}
				if err := rc.check(h); err != nil {
					t.Fatal(err)
				}
				// The recovered log accepts the next epoch in sequence, and
				// it survives a second recovery.
				if _, _, err := l.Commit(h.record(rc.epoch + 1)); err != nil {
					t.Fatal(err)
				}
				l.Close()
				l2, rc2, err := openHistory(opts(fs))
				if err != nil || rc2.epoch != rc.epoch+1 {
					t.Fatalf("second recovery reached epoch %d (%v), want %d", rc2.epoch, err, rc.epoch+1)
				}
				l2.Close()
			})
		}
	}
}
