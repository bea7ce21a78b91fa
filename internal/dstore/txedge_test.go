package dstore

import (
	"reflect"
	"testing"
)

// TestEmptyCommitBumpsVersionSharesFiles pins the cheapest possible
// epoch: a Tx with no buffered mutations still publishes version N+1,
// and every file of the new snapshot is the previous epoch's *File by
// pointer — nothing is rewritten.
func TestEmptyCommitBumpsVersionSharesFiles(t *testing.T) {
	s := NewStore(2)
	commitAppend(s, 0, "f", []string{"x"}, Row{1})
	commitAppend(s, 1, "g", []string{"x", "y"}, Row{2, 3})
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
		for _, name := range before.Node(n).Names() {
			of, _ := before.Node(n).Get(name)
			nf, ok := snap.Node(n).Get(name)
			if !ok || nf != of {
				t.Errorf("node %d file %q not shared by pointer across an empty commit", n, name)
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
	commitAppend(s, 0, "doomed", []string{"x"}, Row{1}, Row{2}, Row{3})
	commitAppend(s, 0, "keep", []string{"x"}, Row{9})
	pinned := s.Current()
	kept, _ := pinned.Node(0).Get("keep")

	tx := s.Begin()
	tx.DeleteRow(0, "doomed", Row{1})
	tx.DeleteRow(0, "doomed", Row{2})
	tx.DeleteRow(0, "doomed", Row{3})
	snap := tx.Commit()

	if _, ok := snap.Node(0).Get("doomed"); ok {
		t.Error("fully emptied file still present in the new snapshot")
	}
	if got := snap.Node(0).Names(); !reflect.DeepEqual(got, []string{"keep"}) {
		t.Errorf("node files = %v, want [keep]", got)
	}
	if nf, _ := snap.Node(0).Get("keep"); nf != kept {
		t.Error("untouched file rewritten by an unrelated delete")
	}
	if f, ok := pinned.Node(0).Get("doomed"); !ok || f.NumRows() != 3 {
		t.Error("pinned pre-commit snapshot lost the deleted file")
	}
	// Re-creating the name later starts from scratch.
	commitAppend(s, 0, "doomed", []string{"x"}, Row{7})
	f, ok := s.Current().Node(0).Get("doomed")
	if !ok || f.NumRows() != 1 || f.Row(0)[0] != 7 {
		t.Error("re-created file does not start fresh")
	}
}

// TestTxInsertAndDeleteSameFile commits a batch that both appends to
// and deletes from one file: the successor must hold the surviving base
// rows and the surviving appends merged in ascending order — exactly
// what a fresh load of those rows holds.
func TestTxInsertAndDeleteSameFile(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"s", "o"}, Row{1, 30}, Row{2, 20}, Row{1, 10})

	tx := s.Begin()
	tx.Append(0, "f", []string{"s", "o"}, Row{3, 40}, Row{1, 50}, Row{1, 20})
	tx.DeleteRow(0, "f", Row{2, 20}) // from the base file
	tx.DeleteRow(0, "f", Row{3, 40}) // from this same transaction's appends
	tx.Commit()

	f, ok := s.Current().Node(0).Get("f")
	if !ok {
		t.Fatal("file vanished")
	}
	wantSlab := []uint32{1, 10, 1, 20, 1, 30, 1, 50}
	got := make([]uint32, 0, len(f.Slab()))
	for _, c := range f.Slab() {
		got = append(got, uint32(c))
	}
	if !reflect.DeepEqual(got, wantSlab) {
		t.Fatalf("slab = %v, want %v (survivors and appends, merged in order)", got, wantSlab)
	}
	fresh := NewStore(1)
	commitAppend(fresh, 0, "f", f.Schema, Row{1, 50}, Row{1, 20}, Row{1, 10}, Row{1, 30})
	if ff, _ := fresh.Current().Node(0).Get("f"); !reflect.DeepEqual(ff.Slab(), f.Slab()) {
		t.Errorf("the successor holds %v, a fresh load of its rows %v", f.Slab(), ff.Slab())
	}
	if lo, hi := f.Range(2); lo != hi {
		t.Errorf("deleted base row's run = [%d, %d), want empty", lo, hi)
	}
	if lo, hi := f.Range(3); lo != hi {
		t.Errorf("netted-out appended row's run = [%d, %d), want empty", lo, hi)
	}
}
