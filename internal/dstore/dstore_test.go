package dstore

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"cliquesquare/internal/rdf"
)

// The keys of the tests' files.
const (
	fileF FileKey = iota + 1
	fileG
	fileLeft
	fileRight
	fileDoomed
	fileKeep
)

// commitKeys inserts keys into the file keyed file on node as a one-shot
// transaction, creating the file on first use.
func commitKeys(s *Store, node int, file FileKey, keys ...uint64) {
	tx := s.Begin()
	defer tx.Abort()
	for _, k := range keys {
		tx.Insert(node, file, k)
	}
	tx.Commit()
}

// fileKeys lists the keys of files, in order.
func fileKeys(files []*File) []FileKey {
	out := make([]FileKey, len(files))
	for i, f := range files {
		out[i] = f.Key()
	}
	return out
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(3)
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3", s.N())
	}
	if v := s.Current().Version(); v != 0 {
		t.Fatalf("fresh store at version %d, want 0", v)
	}
	commitKeys(s, 0, fileG, Key(1, 3), Key(4, 6))
	commitKeys(s, 0, fileG, Key(7, 9))
	n0 := s.Current().Node(0)
	f, ok := n0.File(fileG)
	if !ok || f.NumRows() != 3 || f.Key() != fileG {
		t.Fatalf("file %d = %v, %v", fileG, f, ok)
	}
	if _, ok := n0.File(fileLeft); ok {
		t.Error("File of a missing key returned ok")
	}
	if r := f.Row(2); !reflect.DeepEqual(r, Row{7, 9}) {
		t.Errorf("Row(2) = %v, want [7 9]", r)
	}
	commitKeys(s, 0, fileF, Key(1, 1))
	if keys := fileKeys(s.Current().Node(0).Files()); !reflect.DeepEqual(keys, []FileKey{fileF, fileG}) {
		t.Errorf("Files are keyed %v, want %v in order", keys, []FileKey{fileF, fileG})
	}
	if v := s.Current().Version(); v != 3 {
		t.Errorf("version = %d after 3 one-shot txs, want 3", v)
	}
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
	top := ^rdf.NoTerm // the largest placed cell a key can hold
	commitKeys(s, 0, fileF, Key(2, 200), Key(1, 300), Key(1, 100), Key(top, 7), Key(top, top))
	f, _ := s.Current().Node(0).File(fileF)
	// The rows are sorted: (1 100) (1 300) (2 200) (top 7) (top top).
	if lo, hi := f.Range(1, rdf.NoTerm); lo != 0 || hi != 2 {
		t.Errorf("Range(1) = [%d, %d), want [0, 2)", lo, hi)
	}
	if lo, hi := f.Range(1, 300); lo != 1 || hi != 2 {
		t.Errorf("Range(1, 300) = [%d, %d), want [1, 2)", lo, hi)
	}
	if lo, hi := f.Range(1, 150); lo != hi || lo != 1 {
		t.Errorf("Range(1, 150) = [%d, %d), want the empty run at 1", lo, hi)
	}
	if lo, hi := f.Range(9, rdf.NoTerm); lo != hi || lo != 3 {
		t.Errorf("Range(9) = [%d, %d), want the empty run at 3", lo, hi)
	}
	if lo, hi := f.Range(top, rdf.NoTerm); lo != 3 || hi != 5 {
		t.Errorf("Range(top) = [%d, %d), want [3, 5)", lo, hi)
	}
	if lo, hi := f.Range(top, top); lo != 4 || hi != 5 {
		t.Errorf("Range(top, top) = [%d, %d), want [4, 5)", lo, hi)
	}
	if got := f.Lookup(0, 1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Lookup(placed, 1) = %v, want [0 1]", got)
	}
	if got := f.Lookup(1, 200); len(got) != 1 || got[0] != 2 {
		t.Errorf("Lookup(other, 200) = %v, want [2]", got)
	}
	if got := f.Lookup(1, 999); got != nil {
		t.Errorf("Lookup(other, 999) = %v, want nil", got)
	}
	// A File is a snapshot: inserting publishes a successor file while
	// the held one stays frozen.
	commitKeys(s, 0, fileF, Key(1, 400))
	if lo, hi := f.Range(1, rdf.NoTerm); hi-lo != 2 {
		t.Errorf("pinned file's Range(1) holds %d rows, want the 2 pre-insert ones", hi-lo)
	}
	f2, _ := s.Current().Node(0).File(fileF)
	if lo, hi := f2.Range(1, rdf.NoTerm); lo != 0 || hi != 3 {
		t.Errorf("Range(1) after re-Get = [%d, %d), want [0, 3)", lo, hi)
	}
}

// TestRangeAcrossEpochs: a successor file, after an insert-only and
// after a deleting commit, is sorted and its runs hold exactly its rows
// of each placed cell.
func TestRangeAcrossEpochs(t *testing.T) {
	s := NewStore(1)
	commitKeys(s, 0, fileF, Key(3, 300), Key(1, 200), Key(2, 200), Key(1, 100))
	commitKeys(s, 0, fileF, Key(1, 300), Key(0, 5))
	f2, _ := s.Current().Node(0).File(fileF)
	want := []uint64{Key(0, 5), Key(1, 100), Key(1, 200), Key(1, 300), Key(2, 200), Key(3, 300)}
	if !reflect.DeepEqual(f2.Keys(), want) {
		t.Fatalf("insert successor = %v, want %v", f2.Keys(), want)
	}
	if lo, hi := f2.Range(1, rdf.NoTerm); lo != 1 || hi != 4 {
		t.Errorf("Range(1) = [%d, %d), want [1, 4)", lo, hi)
	}

	tx := s.Begin()
	tx.Delete(0, fileF, Key(2, 200))
	tx.Delete(0, fileF, Key(1, 200))
	tx.Commit()
	f3, _ := s.Current().Node(0).File(fileF)
	want = []uint64{Key(0, 5), Key(1, 100), Key(1, 300), Key(3, 300)}
	if !reflect.DeepEqual(f3.Keys(), want) {
		t.Fatalf("deleting successor = %v, want %v", f3.Keys(), want)
	}
	if lo, hi := f3.Range(2, rdf.NoTerm); lo != hi {
		t.Errorf("Range of a deleted row's placed cell = [%d, %d), want empty", lo, hi)
	}
	if lo, hi := f3.Range(3, 300); lo != 3 || hi != 4 {
		t.Errorf("Range(3, 300) = [%d, %d), want [3, 4)", lo, hi)
	}
}

// TestSnapshotIsolation pins the visibility rules: a pinned Snapshot
// never changes while later transactions commit, and a commit is only
// visible through snapshots pinned after it.
func TestSnapshotIsolation(t *testing.T) {
	s := NewStore(2)
	tx := s.Begin()
	tx.Insert(0, fileLeft, Key(1, 1))
	tx.Insert(0, fileLeft, Key(2, 2))
	tx.Insert(1, fileRight, Key(3, 3))
	tx.Commit()

	pinned := s.Current()
	pf, _ := pinned.Node(0).File(fileLeft)
	if pinned.Version() != 1 || pf.NumRows() != 2 {
		t.Fatalf("pinned snapshot: version %d, %d rows in a", pinned.Version(), pf.NumRows())
	}

	tx = s.Begin()
	tx.Insert(0, fileLeft, Key(4, 4))
	tx.Delete(1, fileRight, Key(3, 3))
	tx.Commit()

	// The pinned epoch is frozen: same files, same rows.
	if f, _ := pinned.Node(0).File(fileLeft); f != pf || f.NumRows() != 2 {
		t.Error("pinned file identity or rows changed under a later commit")
	}
	if _, ok := pinned.Node(1).File(fileRight); !ok {
		t.Error("pinned snapshot lost a file deleted in a later epoch")
	}
	// The new epoch sees the full batch: the emptied file is gone.
	cur := s.Current()
	if cur.Version() != 2 {
		t.Errorf("current version = %d, want 2", cur.Version())
	}
	if f, _ := cur.Node(0).File(fileLeft); f.NumRows() != 3 {
		t.Errorf("current epoch rows = %d, want 3", f.NumRows())
	}
	if _, ok := cur.Node(1).File(fileRight); ok {
		t.Error("emptied file survived in the new epoch")
	}
}

// TestConcurrentAppendDeleteLookup interleaves committing writers with
// lock-free readers under -race: every reader pins a snapshot, and all
// invariants are checked against that pin (complete epochs only).
func TestConcurrentAppendDeleteLookup(t *testing.T) {
	s := NewStore(2)
	const batches = 50
	// Each batch atomically inserts one row into BOTH files (on
	// different nodes); readers must never observe the files out of
	// step.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			tx := s.Begin()
			k := Key(rdf.TermID(i%5+1), rdf.TermID(i+1))
			tx.Insert(0, fileLeft, k)
			tx.Insert(1, fileRight, k)
			tx.Commit()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := s.Current()
				lf, lok := snap.Node(0).File(fileLeft)
				rf, rok := snap.Node(1).File(fileRight)
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
				placed := rdf.TermID(r%5 + 1)
				lo, hi := lf.Range(placed, rdf.NoTerm)
				for id := lo; id < hi; id++ {
					if lf.Row(id)[0] != placed {
						t.Errorf("Range(%d) holds row %v", placed, lf.Row(id))
						return
					}
				}
				if want := (lf.NumRows() + 4 - r%5) / 5; hi-lo != want {
					t.Errorf("Range(%d) holds %d of %d rows, want %d", placed, hi-lo, lf.NumRows(), want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	lf, _ := s.Current().Node(0).File(fileLeft)
	if lf.NumRows() != batches {
		t.Errorf("final left rows = %d, want %d", lf.NumRows(), batches)
	}
}

// TestConcurrentDeleteVisibility runs a writer that alternately deletes
// and re-inserts a fixed key set while readers verify, per pinned
// snapshot, that the row count is one of the two legal epoch states.
func TestConcurrentDeleteVisibility(t *testing.T) {
	s := NewStore(1)
	base := []uint64{Key(1, 1), Key(2, 2), Key(3, 3)}
	commitKeys(s, 0, fileF, base...)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tx := s.Begin()
			for _, k := range base {
				if i%2 == 0 {
					tx.Delete(0, fileF, k)
				} else {
					tx.Insert(0, fileF, k)
				}
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
				f, ok := snap.Node(0).File(fileF)
				n := 0
				if ok {
					n = f.NumRows()
				}
				if n != 0 && n != len(base) {
					t.Errorf("torn delete batch: %d rows at version %d", n, snap.Version())
					return
				}
				if ok {
					if lo, hi := f.Range(2, rdf.NoTerm); hi-lo != 1 || f.Row(lo)[1] != 2 {
						t.Errorf("Range(2) = [%d, %d) at version %d, want the one row (2 2)", lo, hi, snap.Version())
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
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = Key(rdf.TermID(i%7+1), rdf.TermID(i%11+1))
	}
	commitKeys(s, 0, fileF, keys...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, ok := s.Current().Node(0).File(fileF)
			if !ok {
				t.Error("Get failed")
				return
			}
			for i := 0; i < 100; i++ {
				col := (g + i) % 2
				id := rdf.TermID(i%7 + 1)
				for _, r := range f.Lookup(col, id) {
					if f.Row(int(r))[col] != id {
						t.Errorf("Lookup(%d,%d) returned row %d = %v", col, id, r, f.Row(int(r)))
						return
					}
				}
				// Some row's placed cell, or the row itself: its run
				// starts at the first row that holds it.
				row := f.Row((g*100 + i) % f.NumRows())
				other := rdf.NoTerm
				if col == 1 {
					other = row[1]
				}
				holds := func(j int) bool { return f.Row(j)[0] == row[0] && (other == rdf.NoTerm || f.Row(j)[1] == other) }
				lo, hi := f.Range(row[0], other)
				if lo == hi || !holds(lo) || !holds(hi-1) || lo > 0 && holds(lo-1) || hi < f.NumRows() && holds(hi) {
					t.Errorf("Range(%d, %d) = [%d, %d), not the run of rows holding it", row[0], other, lo, hi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDeleteAbsentRowPanics(t *testing.T) {
	s := NewStore(1)
	commitKeys(s, 0, fileF, Key(1, 1))
	tx := s.Begin()
	defer tx.Abort()
	tx.Delete(0, fileF, Key(99, 99))
	defer func() {
		if recover() == nil {
			t.Error("delete of an absent row did not panic at commit")
		}
	}()
	tx.Commit()
}

// TestTxAppendThenDeleteNetsOut pins the same-transaction semantics:
// a key inserted and deleted within one Tx never becomes visible, for
// both existing and brand-new files.
func TestTxAppendThenDeleteNetsOut(t *testing.T) {
	s := NewStore(1)
	commitKeys(s, 0, fileF, Key(1, 1))
	tx := s.Begin()
	tx.Insert(0, fileF, Key(2, 2))
	tx.Delete(0, fileF, Key(2, 2))
	tx.Insert(0, fileG, Key(3, 3))
	tx.Delete(0, fileG, Key(3, 3))
	tx.Commit()
	f, _ := s.Current().Node(0).File(fileF)
	if !reflect.DeepEqual(f.Keys(), []uint64{Key(1, 1)}) {
		t.Errorf("f keys = %v, want just the base key", f.Keys())
	}
	if _, ok := s.Current().Node(0).File(fileG); ok {
		t.Error("fully netted-out new file exists")
	}
}

// TestDeleteAllocsIndependentOfFileSize: a commit's delete is a binary
// search of the touched file, which allocates nothing — a key built per
// row would show as an allocation count that grows with the file.
func TestDeleteAllocsIndependentOfFileSize(t *testing.T) {
	allocs := func(rows int) float64 {
		s := NewStore(1)
		tx := s.Begin()
		for i := 0; i < rows; i++ {
			tx.Insert(0, fileF, Key(rdf.TermID(i+1), rdf.TermID(i+2)))
		}
		tx.Commit()
		i := 0
		return testing.AllocsPerRun(20, func() {
			tx := s.Begin()
			tx.Delete(0, fileF, Key(rdf.TermID(i+1), rdf.TermID(i+2)))
			tx.Commit()
			i++
		})
	}
	if small, large := allocs(64), allocs(4096); large > small {
		t.Errorf("deleting one row allocates %v objects in a 64-row file and %v in a 4096-row file", small, large)
	}
}

// soNaming is a Naming that names file 1 "so", which keeps (s, o), and
// file 2 "os", which keeps (o, s); no file has any other name.
type soNaming struct{}

var soNames = []string{1: "so", 2: "os"}

func (soNaming) Key(name string) (FileKey, bool) {
	i := slices.Index(soNames, name)
	return FileKey(i), i > 0
}

func (soNaming) Name(k FileKey) string { return soNames[k] }

func (soNaming) RowKey(k FileKey, r Row) uint64 {
	if soNames[k] == "so" {
		return Key(r[0], r[2])
	}
	return Key(r[2], r[0])
}

// TestProjectFromNarrowsWideRows: on a store whose writers address its
// files with whole (s, p, o) rows, AppendCells and DeleteRow narrow each
// row to its key in the named file by the store's Naming.
func TestProjectFromNarrowsWideRows(t *testing.T) {
	wide := []string{"s", "p", "o"}
	s := NewStore(1)
	s.NameBy(soNaming{})
	commitKeys(s, 0, 1, Key(1, 3), Key(4, 6))
	tx := s.Begin()
	tx.DeleteRow(0, "so", Row{1, 2, 3})
	tx.AppendCells(0, "so", wide, 10, 11, 12, 7, 8, 9)
	tx.AppendCells(0, "os", wide, 1, 2, 3)
	tx.Commit()
	want := map[string][]uint64{"so": {Key(4, 6), Key(7, 9), Key(10, 12)}, "os": {Key(3, 1)}}
	for name, keys := range want {
		if f, ok := s.Current().Node(0).Get(name); !ok || !reflect.DeepEqual(f.Keys(), keys) {
			t.Errorf("file %s holds %v, want %v", name, f.Keys(), keys)
		}
	}
}

// TestProjectFromDropsUnheldFiles: rows given whole to a name the
// Naming says the store keeps no file under are dropped — a delete of a row
// never stored included — and nothing is written for them, while rows
// to held files are still written.
func TestProjectFromDropsUnheldFiles(t *testing.T) {
	wide := []string{"s", "p", "o"}
	s := NewStore(1)
	s.NameBy(soNaming{})
	tx := s.Begin()
	tx.DeleteRow(0, "xgone", Row{1, 2, 3})
	tx.AppendCells(0, "xgone", wide, 4, 5, 6, 7, 8, 9)
	tx.AppendCells(0, "so", wide, 1, 2, 3)
	tx.AppendCells(0, "os", wide, 4, 5, 6)
	if snap := tx.Commit(); snap.Copied() != 4 {
		t.Errorf("the commit copied %d cells, want the 4 of the 2 keys it wrote", snap.Copied())
	}
	if got := s.Current().Node(0).Names(); !reflect.DeepEqual(got, []string{"os", "so"}) {
		t.Errorf("the store holds %v, want [os so]", got)
	}
}
