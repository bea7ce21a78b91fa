package dstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cliquesquare/internal/rdf"
)

// refStore is the observational reference the sorted slab files are
// checked against: a plain row list per (node, file), in no order, with
// deletes removing one matching row (the Tx contract).
type refStore struct {
	files map[string][]Row // key: node/name
}

func newRefStore() *refStore { return &refStore{files: map[string][]Row{}} }

func refKey(node int, name string) string { return fmt.Sprintf("%d/%s", node, name) }

func (r *refStore) append(node int, name string, rows ...Row) {
	for _, row := range rows {
		r.files[refKey(node, name)] = append(r.files[refKey(node, name)], row.Clone())
	}
}

func (r *refStore) delete(node int, name string, row Row) {
	k := refKey(node, name)
	i := slices.IndexFunc(r.files[k], func(x Row) bool { return slices.Equal(x, row) })
	r.files[k] = slices.Delete(r.files[k], i, i+1)
	if len(r.files[k]) == 0 {
		delete(r.files, k)
	}
}

// checkSorted holds one file to the reference rows: its slab is in
// ascending row order, and it is cell for cell what a fresh load of the
// same rows, given in a random order, holds; every run Range reports
// for a one- and a two-cell key of the domain holds exactly that key's
// rows.
func checkSorted(t *testing.T, label string, f *File, rows []Row, rng *rand.Rand, keyDomain []rdf.TermID) {
	t.Helper()
	w := f.Width()
	if f.NumRows() != len(rows) || len(f.Slab()) != len(rows)*w {
		t.Fatalf("%s: %d rows in %d cells, the reference has %d rows", label, f.NumRows(), len(f.Slab()), len(rows))
	}
	for i := 1; i < f.NumRows(); i++ {
		if slices.Compare(f.Row(i-1), f.Row(i)) > 0 {
			t.Fatalf("%s: row %d %v orders after row %d %v", label, i-1, f.Row(i-1), i, f.Row(i))
		}
	}
	shuffled := slices.Clone(rows)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	fresh := NewStore(1)
	commitAppend(fresh, 0, f.Name, f.Schema, shuffled...)
	if ff, _ := fresh.Current().Node(0).Get(f.Name); !reflect.DeepEqual(ff.Slab(), f.Slab()) {
		t.Fatalf("%s: the file holds %v, a fresh load of its rows %v", label, f.Slab(), ff.Slab())
	}
	for _, a := range keyDomain {
		for _, key := range [][]rdf.TermID{{a}, {a, keyDomain[int(a)%len(keyDomain)]}} {
			lo, hi := f.Range(key...)
			want := 0
			for _, r := range rows {
				if slices.Equal(r[:len(key)], key) {
					want++
				}
			}
			if hi-lo != want {
				t.Fatalf("%s: Range(%v) = [%d, %d), the reference has %d such rows", label, key, lo, hi, want)
			}
			for i := lo; i < hi; i++ {
				if !slices.Equal(f.Row(i)[:len(key)], key) {
					t.Fatalf("%s: Range(%v) holds row %d = %v", label, key, i, f.Row(i))
				}
			}
		}
	}
}

// TestSlabFilePropertyVsReference drives a store through randomized
// commits — appends, deletes of base rows, rows appended and deleted in
// the same transaction, and resizes that grow the cluster or shrink it
// after draining the dropped nodes — and checks after every commit that
// each file is in ascending order and equals a fresh load of the rows
// the reference holds for it.
func TestSlabFilePropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20150407))
	keyDomain := make([]rdf.TermID, 12)
	for i := range keyDomain {
		keyDomain[i] = rdf.TermID(i + 1)
	}
	names := []string{"f0", "f1", "f2"}
	schemas := map[string][]string{"f0": {"s", "p", "o"}, "f1": {"s", "o"}, "f2": {"s", "o"}}
	randRow := func(w int) Row {
		r := make(Row, w)
		for i := range r {
			r[i] = keyDomain[rng.Intn(len(keyDomain))]
		}
		return r
	}

	s := NewStore(2)
	ref := newRefStore()
	for round := 0; round < 80; round++ {
		n := s.N()
		tx := s.Begin()
		newN := n
		switch rng.Intn(8) {
		case 0:
			newN = n + 1 + rng.Intn(2)
		case 1:
			if n > 1 {
				newN = n - 1
			}
		}
		if newN != n {
			tx.SetN(newN)
		}
		// Deletes: a tenth of every file's rows, and every row of a node
		// the resize drops, resolved against the rows before this round.
		for node := 0; node < n; node++ {
			for _, name := range names {
				for _, row := range slices.Clone(ref.files[refKey(node, name)]) {
					if node >= newN || rng.Intn(10) == 0 {
						tx.DeleteRow(node, name, row)
						ref.delete(node, name, row)
					}
				}
			}
		}
		for i, k := 0, rng.Intn(12); i < k; i++ {
			node, name := rng.Intn(newN), names[rng.Intn(len(names))]
			row := randRow(len(schemas[name]))
			switch rng.Intn(4) {
			case 0:
				tx.Append(node, name, schemas[name], row)
			case 1: // appended and deleted in one transaction: nets out
				tx.AppendCells(node, name, schemas[name], row...)
				tx.DeleteRow(node, name, row)
				continue
			default:
				tx.AppendCells(node, name, schemas[name], row...)
			}
			ref.append(node, name, row)
		}
		snap := tx.Commit()

		if snap.N() != newN {
			t.Fatalf("round %d: %d nodes, want %d", round, snap.N(), newN)
		}
		for node := 0; node < newN; node++ {
			for _, name := range names {
				rows := ref.files[refKey(node, name)]
				f, ok := snap.Node(node).Get(name)
				if ok != (len(rows) > 0) {
					t.Fatalf("round %d: node %d holds %s: %v, the reference has %d rows", round, node, name, ok, len(rows))
				}
				if ok {
					checkSorted(t, fmt.Sprintf("round %d: node %d %s", round, node, name), f, rows, rng, keyDomain)
				}
			}
		}
	}
}
