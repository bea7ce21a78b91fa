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
// and deletes from one file, with the predecessor's secondary index
// already built: the successor must hold base-survivors-then-appends
// in order, and its derived posting lists must answer lookups exactly
// like a from-scratch build over the same rows.
func TestTxInsertAndDeleteSameFile(t *testing.T) {
	s := NewStore(1)
	commitAppend(s, 0, "f", []string{"s", "o"}, Row{1, 10}, Row{2, 20}, Row{1, 30})
	old, _ := s.Current().Node(0).Get("f")
	if got := old.Lookup(0, 1); len(got) != 2 { // force the index build so commit derives it
		t.Fatalf("base lookup = %v, want two rows", got)
	}

	tx := s.Begin()
	tx.Append(0, "f", []string{"s", "o"}, Row{3, 40}, Row{1, 50})
	tx.DeleteRow(0, "f", Row{2, 20}) // from the base file
	tx.DeleteRow(0, "f", Row{3, 40}) // from this same transaction's appends
	tx.Commit()

	f, ok := s.Current().Node(0).Get("f")
	if !ok {
		t.Fatal("file vanished")
	}
	wantSlab := []uint32{1, 10, 1, 30, 1, 50}
	got := make([]uint32, 0, len(f.Slab()))
	for _, c := range f.Slab() {
		got = append(got, uint32(c))
	}
	if !reflect.DeepEqual(got, wantSlab) {
		t.Fatalf("slab = %v, want %v (survivors in base order, then appends)", got, wantSlab)
	}
	// The derived index was carried across the commit: its answers must
	// be identical to a cold rebuild over the same slab.
	fresh := newFile("f", f.Schema, f.Slab())
	for col := 0; col < f.Width(); col++ {
		for _, id := range []uint32{1, 2, 3, 10, 30, 50} {
			d := f.Lookup(col, rdf.TermID(id))
			w := fresh.Lookup(col, rdf.TermID(id))
			if len(d) == 0 && len(w) == 0 {
				continue
			}
			if !reflect.DeepEqual(d, w) {
				t.Errorf("col %d key %d: derived posting list %v, fresh build %v", col, id, d, w)
			}
		}
	}
	if ids := f.Lookup(0, 2); len(ids) != 0 {
		t.Errorf("deleted base row still indexed: %v", ids)
	}
	if ids := f.Lookup(1, 40); len(ids) != 0 {
		t.Errorf("netted-out appended row indexed: %v", ids)
	}
}
