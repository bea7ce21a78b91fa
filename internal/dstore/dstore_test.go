package dstore

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"cliquesquare/internal/rdf"
)

// commitAppend appends rows to the named file on node as a one-shot
// transaction, creating the file with the given schema on first use.
func commitAppend(s *Store, node int, name string, schema []string, rows ...Row) {
	tx := s.Begin()
	defer tx.Abort()
	tx.Append(node, name, schema, rows...)
	tx.Commit()
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(3)
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3", s.N())
	}
	if s.Version() != 0 {
		t.Fatalf("fresh store at version %d, want 0", s.Version())
	}
	commitAppend(s, 0, "f1", []string{"s", "p", "o"}, Row{1, 2, 3}, Row{4, 5, 6})
	commitAppend(s, 0, "f1", []string{"s", "p", "o"}, Row{7, 8, 9})
	n0 := s.Current().Node(0)
	f, ok := n0.Get("f1")
	if !ok || f.NumRows() != 3 {
		t.Fatalf("f1 = %v, %v", f, ok)
	}
	if _, ok := n0.Get("missing"); ok {
		t.Error("Get(missing) returned ok")
	}
	if n0.Rows() != 3 || s.TotalRows() != 3 {
		t.Errorf("Rows = %d, TotalRows = %d, want 3", n0.Rows(), s.TotalRows())
	}
	commitAppend(s, 0, "f0", []string{"x"}, Row{1})
	names := s.Current().Node(0).Names()
	if len(names) != 2 || names[0] != "f0" || names[1] != "f1" {
		t.Errorf("Names = %v", names)
	}
	if s.Version() != 3 {
		t.Errorf("version = %d after 3 one-shot txs, want 3", s.Version())
	}
}

func TestSchemaMismatchPanics(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"a", "b"}, Row{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("schema mismatch did not panic")
		}
		// The aborted one-shot tx must have released the writer lock.
		commitAppend(s, 0, "g", []string{"a"}, Row{1})
	}()
	commitAppend(s, 0, "f", []string{"a"}, Row{1})
}

func TestNewStorePanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStore(0) did not panic")
		}
	}()
	NewStore(0)
}

func TestLookup(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"s", "p", "o"},
		Row{2, 10, 200}, Row{1, 20, 100}, Row{1, 10, 100})
	f, _ := s.Current().Node(0).Get("f")
	// The rows are sorted: (1 10 100) (1 20 100) (2 10 200).
	if lo, hi := f.Range(1); lo != 0 || hi != 2 {
		t.Errorf("Range(1) = [%d, %d), want [0, 2)", lo, hi)
	}
	if lo, hi := f.Range(1, 20); lo != 1 || hi != 2 {
		t.Errorf("Range(1, 20) = [%d, %d), want [1, 2)", lo, hi)
	}
	if lo, hi := f.Range(1, 15); lo != hi || lo != 1 {
		t.Errorf("Range(1, 15) = [%d, %d), want the empty run at 1", lo, hi)
	}
	if lo, hi := f.Range(9); lo != hi || lo != 3 {
		t.Errorf("Range(9) = [%d, %d), want the empty run at 3", lo, hi)
	}
	if got := f.Lookup(0, 1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Lookup(s,1) = %v, want [0 1]", got)
	}
	if got := f.Lookup(1, 10); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Lookup(p,10) = %v, want [0 2]", got)
	}
	if got := f.Lookup(2, 999); got != nil {
		t.Errorf("Lookup(o,999) = %v, want nil", got)
	}
	// A File is a snapshot: appending publishes a successor file while
	// the held one stays frozen.
	commitAppend(s, 0, "f", []string{"s", "p", "o"}, Row{1, 30, 300})
	if lo, hi := f.Range(1); hi-lo != 2 {
		t.Errorf("pinned file's Range(1) holds %d rows, want the 2 pre-append ones", hi-lo)
	}
	f2, _ := s.Current().Node(0).Get("f")
	if lo, hi := f2.Range(1); lo != 0 || hi != 3 {
		t.Errorf("Range(1) after re-Get = [%d, %d), want [0, 3)", lo, hi)
	}
}

// TestRangeAcrossEpochs: a successor file, after an append-only and
// after a deleting commit, is sorted and its runs hold exactly its rows
// of each key.
func TestRangeAcrossEpochs(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"s", "p", "o"},
		Row{3, 20, 300}, Row{1, 20, 100}, Row{2, 10, 200}, Row{1, 10, 100})
	commitAppend(s, 0, "f", []string{"s", "p", "o"}, Row{1, 30, 300}, Row{0, 5, 5})
	f2, _ := s.Current().Node(0).Get("f")
	want := []rdf.TermID{0, 5, 5, 1, 10, 100, 1, 20, 100, 1, 30, 300, 2, 10, 200, 3, 20, 300}
	if !reflect.DeepEqual(f2.Slab(), want) {
		t.Fatalf("append successor = %v, want %v", f2.Slab(), want)
	}
	if lo, hi := f2.Range(1); lo != 1 || hi != 4 {
		t.Errorf("Range(1) = [%d, %d), want [1, 4)", lo, hi)
	}

	tx := s.Begin()
	tx.DeleteRow(0, "f", Row{2, 10, 200})
	tx.DeleteRow(0, "f", Row{1, 20, 100})
	tx.Commit()
	f3, _ := s.Current().Node(0).Get("f")
	want = []rdf.TermID{0, 5, 5, 1, 10, 100, 1, 30, 300, 3, 20, 300}
	if !reflect.DeepEqual(f3.Slab(), want) {
		t.Fatalf("deleting successor = %v, want %v", f3.Slab(), want)
	}
	if lo, hi := f3.Range(2); lo != hi {
		t.Errorf("Range of a deleted row's key = [%d, %d), want empty", lo, hi)
	}
	if lo, hi := f3.Range(3, 20, 300); lo != 3 || hi != 4 {
		t.Errorf("Range(3, 20, 300) = [%d, %d), want [3, 4)", lo, hi)
	}
}

// TestSnapshotIsolation pins the visibility rules: a pinned Snapshot
// never changes while later transactions commit, and a commit is only
// visible through snapshots pinned after it.
func TestSnapshotIsolation(t *testing.T) {
	s := NewStore(2)
	tx := s.Begin()
	tx.Append(0, "a", []string{"x"}, Row{1}, Row{2})
	tx.Append(1, "b", []string{"x"}, Row{3})
	tx.Commit()

	pinned := s.Current()
	if pinned.Version() != 1 || pinned.TotalRows() != 3 {
		t.Fatalf("pinned snapshot: version %d rows %d", pinned.Version(), pinned.TotalRows())
	}
	pf, _ := pinned.Node(0).Get("a")

	tx = s.Begin()
	tx.Append(0, "a", []string{"x"}, Row{4})
	tx.DeleteRow(1, "b", Row{3})
	tx.Commit()

	// The pinned epoch is frozen: same files, same rows, same lookups.
	if pinned.TotalRows() != 3 {
		t.Errorf("pinned snapshot changed: %d rows", pinned.TotalRows())
	}
	if f, _ := pinned.Node(0).Get("a"); f != pf || f.NumRows() != 2 {
		t.Error("pinned file identity or rows changed under a later commit")
	}
	if _, ok := pinned.Node(1).Get("b"); !ok {
		t.Error("pinned snapshot lost a file deleted in a later epoch")
	}
	// The new epoch sees the full batch: the emptied file is gone.
	cur := s.Current()
	if cur.Version() != 2 {
		t.Errorf("current version = %d, want 2", cur.Version())
	}
	if f, _ := cur.Node(0).Get("a"); f.NumRows() != 3 {
		t.Errorf("current epoch rows = %d, want 3", f.NumRows())
	}
	if _, ok := cur.Node(1).Get("b"); ok {
		t.Error("emptied file survived in the new epoch")
	}
}

// TestConcurrentAppendDeleteLookup interleaves committing writers with
// lock-free readers under -race: every reader pins a snapshot, and all
// invariants are checked against that pin (complete epochs only).
func TestConcurrentAppendDeleteLookup(t *testing.T) {
	s := NewStore(2)
	const batches = 50
	// Each batch atomically appends one row to BOTH files (on different
	// nodes); readers must never observe the files out of step.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			tx := s.Begin()
			tx.Append(0, "left", []string{"s", "v"}, Row{rdf.TermID(i%5 + 1), rdf.TermID(i + 1)})
			tx.Append(1, "right", []string{"s", "v"}, Row{rdf.TermID(i%5 + 1), rdf.TermID(i + 1)})
			tx.Commit()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := s.Current()
				lf, lok := snap.Node(0).Get("left")
				rf, rok := snap.Node(1).Get("right")
				if lok != rok {
					t.Errorf("torn epoch: left=%v right=%v at version %d", lok, rok, snap.Version())
					return
				}
				if !lok {
					continue
				}
				if lf.NumRows() != rf.NumRows() {
					t.Errorf("torn epoch: %d left rows vs %d right rows at version %d",
						lf.NumRows(), rf.NumRows(), snap.Version())
					return
				}
				// Runs read without a lock stay consistent with the
				// pinned file's rows.
				key := rdf.TermID(r%5 + 1)
				lo, hi := lf.Range(key)
				for id := lo; id < hi; id++ {
					if lf.Row(id)[0] != key {
						t.Errorf("Range(%d) holds row %v", key, lf.Row(id))
						return
					}
				}
				if want := (lf.NumRows() + 4 - r%5) / 5; hi-lo != want {
					t.Errorf("Range(%d) holds %d of %d rows, want %d", key, hi-lo, lf.NumRows(), want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	lf, _ := s.Current().Node(0).Get("left")
	if lf.NumRows() != batches {
		t.Errorf("final left rows = %d, want %d", lf.NumRows(), batches)
	}
}

// TestConcurrentDeleteVisibility runs a writer that alternately deletes
// and re-inserts a fixed row set while readers verify, per pinned
// snapshot, that the row count is one of the two legal epoch states.
func TestConcurrentDeleteVisibility(t *testing.T) {
	s := NewStore(1)
	base := []Row{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}
	commitAppend(s, 0, "f", []string{"s", "p", "o"}, base...)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tx := s.Begin()
			if i%2 == 0 {
				for _, r := range base {
					tx.DeleteRow(0, "f", r)
				}
			} else {
				tx.Append(0, "f", []string{"s", "p", "o"}, base...)
			}
			tx.Commit()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := s.Current()
				f, ok := snap.Node(0).Get("f")
				n := 0
				if ok {
					n = f.NumRows()
				}
				if n != 0 && n != len(base) {
					t.Errorf("torn delete batch: %d rows at version %d", n, snap.Version())
					return
				}
				if ok {
					if lo, hi := f.Range(2); hi-lo != 1 || f.Row(lo)[1] != 2 {
						t.Errorf("Range(2) = [%d, %d) at version %d, want the one row (2 2 2)", lo, hi, snap.Version())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentLookup(t *testing.T) {
	s := NewStore(1)
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{rdf.TermID(i % 7), rdf.TermID(i % 3), rdf.TermID(i)}
	}
	commitAppend(s, 0, "f", []string{"s", "p", "o"}, rows...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, ok := s.Current().Node(0).Get("f")
			if !ok {
				t.Error("Get failed")
				return
			}
			for i := 0; i < 100; i++ {
				col := (g + i) % 3
				id := rdf.TermID(i % 7)
				for _, r := range f.Lookup(col, id) {
					if f.Row(int(r))[col] != id {
						t.Errorf("Lookup(%d,%d) returned row %d = %v", col, id, r, f.Row(int(r)))
						return
					}
				}
				// A key of one to three cells of some row: its run starts
				// at the first row that begins with it.
				key := f.Row((g*100 + i) % f.NumRows())[:1+col]
				lo, hi := f.Range(key...)
				if lo == hi || !slices.Equal(f.Row(lo)[:len(key)], key) || lo > 0 && slices.Equal(f.Row(lo - 1)[:len(key)], key) {
					t.Errorf("Range(%v) = [%d, %d), not the run of rows starting with it", key, lo, hi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDeleteAbsentRowPanics(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"x"}, Row{1})
	tx := s.Begin()
	defer tx.Abort()
	tx.DeleteRow(0, "f", Row{99})
	defer func() {
		if recover() == nil {
			t.Error("delete of an absent row did not panic at commit")
		}
	}()
	tx.Commit()
}

func TestRowClone(t *testing.T) {
	r := Row{1, 2, 3}
	c := r.Clone()
	c[0] = 99
	if r[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

// TestTxAppendThenDeleteNetsOut pins the same-transaction semantics:
// a row appended and deleted within one Tx never becomes visible, for
// both existing and brand-new files.
func TestTxAppendThenDeleteNetsOut(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"x"}, Row{1})
	tx := s.Begin()
	tx.Append(0, "f", []string{"x"}, Row{2})
	tx.DeleteRow(0, "f", Row{2})
	tx.Append(0, "g", []string{"x"}, Row{3})
	tx.DeleteRow(0, "g", Row{3})
	tx.Commit()
	f, _ := s.Current().Node(0).Get("f")
	if f.NumRows() != 1 || f.Row(0)[0] != 1 {
		t.Errorf("f rows = %v, want just the base row", f.Slab())
	}
	if _, ok := s.Current().Node(0).Get("g"); ok {
		t.Error("fully netted-out new file exists")
	}
}

// TestDeleteAllocsIndependentOfFileSize: a commit's delete is a binary
// search of the touched file, which allocates nothing — a key built per
// row would show as an allocation count that grows with the file.
func TestDeleteAllocsIndependentOfFileSize(t *testing.T) {
	schema := []string{"s", "p", "o"}
	allocs := func(rows int) float64 {
		s := NewStore(1)
		tx := s.Begin()
		for i := 0; i < rows; i++ {
			tx.AppendCells(0, "f", schema, rdf.TermID(i+1), 7, rdf.TermID(i+2))
		}
		tx.Commit()
		i := 0
		return testing.AllocsPerRun(20, func() {
			tx := s.Begin()
			tx.DeleteRow(0, "f", Row{rdf.TermID(i + 1), 7, rdf.TermID(i + 2)})
			tx.Commit()
			i++
		})
	}
	if small, large := allocs(64), allocs(4096); large > small {
		t.Errorf("deleting one row allocates %v objects in a 64-row file and %v in a 4096-row file", small, large)
	}
}

// TestProjectFromNarrowsWideRows: on a store whose writers may give
// rows of a wider schema, appends and deletes of such rows keep the
// columns each file's own schema names, and a file at the wide schema
// takes them whole.
func TestProjectFromNarrowsWideRows(t *testing.T) {
	wide := []string{"s", "p", "o"}
	s := NewStore(1)
	s.ProjectFrom(wide, nil)
	commitAppend(s, 0, "pair", []string{"s", "o"}, Row{1, 3}, Row{4, 6})
	commitAppend(s, 0, "class", []string{"s"}, Row{1}, Row{4})
	tx := s.Begin()
	tx.DeleteRow(0, "pair", Row{1, 2, 3})
	tx.AppendCells(0, "pair", wide, 7, 8, 9, 10, 11, 12)
	tx.DeleteRow(0, "class", Row{4, 5, 6})
	tx.Append(0, "class", wide, Row{7, 8, 9})
	tx.AppendCells(0, "whole", wide, 1, 2, 3)
	tx.Commit()
	want := map[string][]rdf.TermID{"pair": {4, 6, 7, 9, 10, 12}, "class": {1, 7}, "whole": {1, 2, 3}}
	for name, cells := range want {
		f, ok := s.Current().Node(0).Get(name)
		if !ok || !reflect.DeepEqual(f.Slab(), cells) {
			t.Errorf("file %s holds %v, want %v", name, f.Slab(), cells)
		}
	}
}

// TestProjectFromDropsUnheldFiles: on a store whose writers address with
// wide rows files it does not hold, appends and deletes of such rows to
// those files are dropped — a delete of a row never stored included —
// while a row at a file's own width is still written.
func TestProjectFromDropsUnheldFiles(t *testing.T) {
	wide := []string{"s", "p", "o"}
	s := NewStore(1)
	s.ProjectFrom(wide, func(name string) bool { return name[0] == 'x' })
	tx := s.Begin()
	tx.DeleteRow(0, "xgone", Row{1, 2, 3})
	tx.AppendCells(0, "xgone", wide, 4, 5, 6)
	tx.Append(0, "xgone", wide, Row{7, 8, 9})
	tx.AppendCells(0, "xkept", []string{"s", "o"}, 1, 3)
	tx.AppendCells(0, "pair", []string{"s", "o"}, 4, 6)
	if snap := tx.Commit(); snap.Copied() != 4 {
		t.Errorf("the commit copied %d cells, want the 4 it wrote", snap.Copied())
	}
	if got := s.Current().Node(0).Names(); !reflect.DeepEqual(got, []string{"pair", "xkept"}) {
		t.Errorf("the store holds %v, want [pair xkept]", got)
	}
}
