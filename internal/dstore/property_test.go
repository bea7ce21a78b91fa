package dstore

import (
	"math/rand"
	"testing"

	"cliquesquare/internal/rdf"
)

// refStore is the observational reference the slab/CSR implementation
// is checked against: a plain slice-of-slices row list per file, with
// deletes removing the first matching row (the Tx contract) and lookups
// done by a linear scan.
type refStore struct {
	files map[string][]Row
}

func newRefStore() *refStore { return &refStore{files: map[string][]Row{}} }

func (r *refStore) append(name string, rows ...Row) {
	for _, row := range rows {
		r.files[name] = append(r.files[name], row.Clone())
	}
}

func (r *refStore) delete(name string, row Row) bool {
	rows := r.files[name]
	for i := range rows {
		eq := len(rows[i]) == len(row)
		for j := 0; eq && j < len(row); j++ {
			eq = rows[i][j] == row[j]
		}
		if eq {
			r.files[name] = append(rows[:i:i], rows[i+1:]...)
			if len(r.files[name]) == 0 {
				delete(r.files, name)
			}
			return true
		}
	}
	return false
}

func (r *refStore) lookup(name string, col int, id rdf.TermID) []int32 {
	var out []int32
	for i, row := range r.files[name] {
		if row[col] == id {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkFile compares one slab file against the reference rows on every
// observable axis: row count, row iteration order and content, the
// contiguous slab itself, and the full posting list of every (column,
// key) pair — including keys no longer present, which must return nil.
func checkFile(t *testing.T, ref *refStore, name string, f *File, keyDomain []rdf.TermID) {
	t.Helper()
	rows := ref.files[name]
	if f.NumRows() != len(rows) {
		t.Fatalf("%s: NumRows = %d, reference has %d", name, f.NumRows(), len(rows))
	}
	for i, want := range rows {
		got := f.Row(i)
		if len(got) != len(want) {
			t.Fatalf("%s: Row(%d) width %d, want %d", name, i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: Row(%d) = %v, want %v", name, i, got, want)
			}
		}
	}
	if len(f.Slab()) != len(rows)*f.Width() {
		t.Fatalf("%s: slab has %d cells for %d rows of width %d",
			name, len(f.Slab()), len(rows), f.Width())
	}
	for col := 0; col < f.Width(); col++ {
		for _, id := range keyDomain {
			got := f.Lookup(col, id)
			want := ref.lookup(name, col, id)
			if len(got) != len(want) {
				t.Fatalf("%s: Lookup(%d,%d) = %v, want %v", name, col, id, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Lookup(%d,%d) = %v, want %v", name, col, id, got, want)
				}
			}
		}
	}
}

// TestSlabFilePropertyVsReference drives a store through randomized
// batches of appends and deletes — with index builds forced at random
// points so later epochs exercise incremental index derivation rather
// than fresh builds — and checks after every commit that each file is
// observationally identical to the slice-of-slices reference, and that
// derived posting lists are identical to those of a freshly loaded
// store holding the same rows.
func TestSlabFilePropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20150407))
	keyDomain := make([]rdf.TermID, 12)
	for i := range keyDomain {
		keyDomain[i] = rdf.TermID(i + 1)
	}
	names := []string{"f0", "f1", "f2"}
	schema := []string{"s", "p", "o"}
	randRow := func() Row {
		return Row{
			keyDomain[rng.Intn(len(keyDomain))],
			keyDomain[rng.Intn(len(keyDomain))],
			keyDomain[rng.Intn(len(keyDomain))],
		}
	}

	s := NewStore(1)
	ref := newRefStore()
	for round := 0; round < 60; round++ {
		tx := s.Begin()
		// Deletes are resolved against the reference BEFORE any of this
		// round's appends (the Tx applies deletes to the pre-tx file,
		// then filters them against same-tx appends; deleting only rows
		// present pre-tx keeps both models aligned).
		type del struct {
			name string
			row  Row
		}
		var dels []del
		for _, name := range names {
			for _, row := range ref.files[name] {
				if rng.Intn(10) == 0 {
					dels = append(dels, del{name, row.Clone()})
				}
			}
		}
		seen := map[string]map[int]bool{}
		for _, d := range dels {
			// Delete distinct reference rows only: duplicates would make
			// the one-delete-per-occurrence Tx contract remove a second
			// occurrence the reference model did not.
			idx := -1
			for i, row := range ref.files[d.name] {
				if seen[d.name] == nil {
					seen[d.name] = map[int]bool{}
				}
				if seen[d.name][i] {
					continue
				}
				eq := true
				for j := range row {
					if row[j] != d.row[j] {
						eq = false
						break
					}
				}
				if eq {
					idx = i
					break
				}
			}
			if idx < 0 {
				continue
			}
			seen[d.name][idx] = true
			tx.DeleteRow(0, d.name, d.row)
		}
		for _, d := range dels {
			ref.delete(d.name, d.row)
		}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			name := names[rng.Intn(len(names))]
			row := randRow()
			if rng.Intn(2) == 0 {
				tx.Append(0, name, schema, row)
			} else {
				tx.AppendCells(0, name, schema, row[0], row[1], row[2])
			}
			ref.append(name, row)
		}
		tx.Commit()

		nd := s.Current().Node(0)
		for _, name := range names {
			f, ok := nd.Get(name)
			if !ok {
				if len(ref.files[name]) != 0 {
					t.Fatalf("round %d: %s missing, reference has %d rows",
						round, name, len(ref.files[name]))
				}
				continue
			}
			checkFile(t, ref, name, f, keyDomain)
		}

		// Randomly force index builds so the NEXT round's commit derives
		// CSR indexes from built ones instead of starting cold.
		for _, name := range names {
			if f, ok := nd.Get(name); ok && rng.Intn(3) == 0 {
				f.Lookup(rng.Intn(len(schema)), keyDomain[rng.Intn(len(keyDomain))])
			}
		}
	}

	// Final cross-check: every derived index must agree with a freshly
	// loaded store holding the same rows (posting lists are ascending
	// row ids in both, so equality is exact, not just set-equal).
	fresh := NewStore(1)
	for _, name := range names {
		if rows := ref.files[name]; len(rows) > 0 {
			commitAppend(fresh, 0, name, schema, rows...)
		}
	}
	for _, name := range names {
		f, ok := s.Current().Node(0).Get(name)
		if !ok {
			continue
		}
		ff, _ := fresh.Current().Node(0).Get(name)
		for col := 0; col < len(schema); col++ {
			for _, id := range keyDomain {
				got, want := f.Lookup(col, id), ff.Lookup(col, id)
				if len(got) != len(want) {
					t.Fatalf("%s: derived Lookup(%d,%d) = %v, fresh = %v", name, col, id, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: derived Lookup(%d,%d) = %v, fresh = %v", name, col, id, got, want)
					}
				}
			}
		}
	}
}
