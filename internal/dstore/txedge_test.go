package dstore

import (
	"reflect"
	"testing"

	"cliquesquare/internal/rdf"
)

// TestEmptyCommitBumpsVersionSharesFiles pins the cheapest possible
// epoch: a Tx with no buffered mutations still publishes version N+1,
// and every file of the new snapshot is the previous epoch's *File by
// pointer — nothing is rewritten.
func TestEmptyCommitBumpsVersionSharesFiles(t *testing.T) {
	s := NewStore(2)
	commitKeys(s, 0, fileF, Key(1, 1))
	commitKeys(s, 1, fileG, Key(2, 3))
	before := s.Current()

	tx := s.Begin()
	snap := tx.Commit()
	if snap.Version() != before.Version()+1 {
		t.Fatalf("empty commit published version %d, want %d", snap.Version(), before.Version()+1)
	}
	if s.Current() != snap {
		t.Fatal("published snapshot is not the current one")
	}
	for n := 0; n < s.N(); n++ {
		for _, of := range before.Node(n).Files() {
			if nf, ok := snap.Node(n).File(of.Key()); !ok || nf != of {
				t.Errorf("node %d file %d not shared by pointer across an empty commit", n, of.Key())
			}
		}
	}
}

// TestDeleteAllRowsRemovesFile pins file lifecycle on the delete path:
// a file whose every row is deleted vanishes from the snapshot (like a
// file that was never loaded), untouched files on the same node are
// shared by pointer, and a reader pinned before the commit still sees
// the full file.
func TestDeleteAllRowsRemovesFile(t *testing.T) {
	s := NewStore(1)
	commitKeys(s, 0, fileDoomed, Key(1, 1), Key(2, 2), Key(3, 3))
	commitKeys(s, 0, fileKeep, Key(9, 9))
	pinned := s.Current()
	kept, _ := pinned.Node(0).File(fileKeep)

	tx := s.Begin()
	tx.Delete(0, fileDoomed, Key(1, 1))
	tx.Delete(0, fileDoomed, Key(2, 2))
	tx.Delete(0, fileDoomed, Key(3, 3))
	snap := tx.Commit()

	if _, ok := snap.Node(0).File(fileDoomed); ok {
		t.Error("fully emptied file still present in the new snapshot")
	}
	if got := fileKeys(snap.Node(0).Files()); !reflect.DeepEqual(got, []FileKey{fileKeep}) {
		t.Errorf("node files = %v, want [%d]", got, fileKeep)
	}
	if nf, _ := snap.Node(0).File(fileKeep); nf != kept {
		t.Error("untouched file rewritten by an unrelated delete")
	}
	if f, ok := pinned.Node(0).File(fileDoomed); !ok || f.NumRows() != 3 {
		t.Error("pinned pre-commit snapshot lost the deleted file")
	}
	// Re-creating the file later starts from scratch.
	commitKeys(s, 0, fileDoomed, Key(7, 7))
	f, ok := s.Current().Node(0).File(fileDoomed)
	if !ok || f.NumRows() != 1 || f.Row(0)[0] != 7 {
		t.Error("re-created file does not start fresh")
	}
}

// TestTxInsertAndDeleteSameFile commits a batch that both inserts into
// and deletes from one file: the successor must hold the surviving base
// keys and the surviving inserts merged in ascending order — exactly
// what a fresh load of those keys holds.
func TestTxInsertAndDeleteSameFile(t *testing.T) {
	s := NewStore(1)
	commitKeys(s, 0, fileF, Key(1, 30), Key(2, 20), Key(1, 10))

	tx := s.Begin()
	for _, k := range []uint64{Key(3, 40), Key(1, 50), Key(1, 20)} {
		tx.Insert(0, fileF, k)
	}
	tx.Delete(0, fileF, Key(2, 20)) // from the base file
	tx.Delete(0, fileF, Key(3, 40)) // from this same transaction's inserts
	tx.Commit()

	f, ok := s.Current().Node(0).File(fileF)
	if !ok {
		t.Fatal("file vanished")
	}
	want := []uint64{Key(1, 10), Key(1, 20), Key(1, 30), Key(1, 50)}
	if !reflect.DeepEqual(f.Keys(), want) {
		t.Fatalf("keys = %v, want %v (survivors and inserts, merged in order)", f.Keys(), want)
	}
	fresh := NewStore(1)
	commitKeys(fresh, 0, fileF, Key(1, 50), Key(1, 20), Key(1, 10), Key(1, 30))
	if ff, _ := fresh.Current().Node(0).File(fileF); !reflect.DeepEqual(ff.Keys(), f.Keys()) {
		t.Errorf("the successor holds %v, a fresh load of its keys %v", f.Keys(), ff.Keys())
	}
	if lo, hi := f.Range(2, rdf.NoTerm); lo != hi {
		t.Errorf("deleted base row's run = [%d, %d), want empty", lo, hi)
	}
	if lo, hi := f.Range(3, rdf.NoTerm); lo != hi {
		t.Errorf("netted-out inserted row's run = [%d, %d), want empty", lo, hi)
	}
}
