package dstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// refStore is the observational reference the sorted files are checked
// against: a plain key list per (node, file), in no order, with deletes
// removing one matching key (the Tx contract).
type refStore struct {
	files map[fileRef][]uint64
}

func newRefStore() *refStore { return &refStore{files: map[fileRef][]uint64{}} }

func (r *refStore) insert(node int, file FileKey, k uint64) {
	r.files[fileRef{node, file}] = append(r.files[fileRef{node, file}], k)
}

func (r *refStore) delete(node int, file FileKey, k uint64) {
	f := fileRef{node, file}
	i := slices.Index(r.files[f], k)
	r.files[f] = slices.Delete(r.files[f], i, i+1)
	if len(r.files[f]) == 0 {
		delete(r.files, f)
	}
}

// checkSorted holds one file to the reference keys: they are in
// ascending order, and the file is what a fresh load of the same keys,
// given in a random order, holds; every run Range reports for a placed
// cell of the domain, and for the point of it and an other cell, holds
// exactly those rows.
func checkSorted(t *testing.T, label string, f *File, keys []uint64, rng *rand.Rand, domain []rdf.TermID) {
	t.Helper()
	if f.NumRows() != len(keys) {
		t.Fatalf("%s: %d rows, the reference has %d", label, f.NumRows(), len(keys))
	}
	if !slices.IsSorted(f.Keys()) {
		t.Fatalf("%s: keys %v are not in ascending order", label, f.Keys())
	}
	shuffled := slices.Clone(keys)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	fresh := NewStore(1)
	commitKeys(fresh, 0, f.Key(), shuffled...)
	if ff, _ := fresh.Current().Node(0).File(f.Key()); !reflect.DeepEqual(ff.Keys(), f.Keys()) {
		t.Fatalf("%s: the file holds %v, a fresh load of its keys %v", label, f.Keys(), ff.Keys())
	}
	for _, a := range domain {
		for _, other := range []rdf.TermID{rdf.NoTerm, domain[int(a)%len(domain)]} {
			lo, hi := f.Range(a, other)
			want := 0
			for _, k := range keys {
				if p, o := Cells(k); p == a && (other == rdf.NoTerm || o == other) {
					want++
				}
			}
			if hi-lo != want {
				t.Fatalf("%s: Range(%d, %d) = [%d, %d), the reference has %d such rows", label, a, other, lo, hi, want)
			}
			for i := lo; i < hi; i++ {
				if r := f.Row(i); r[0] != a || other != rdf.NoTerm && r[1] != other {
					t.Fatalf("%s: Range(%d, %d) holds row %d = %v", label, a, other, i, r)
				}
			}
		}
	}
}

// TestSlabFilePropertyVsReference drives a store through randomized
// commits — inserts, deletes of base keys, keys inserted and deleted in
// the same transaction, and resizes that grow the cluster or shrink it
// after draining the dropped nodes — and checks after every commit that
// each file is in ascending order and equals a fresh load of the keys
// the reference holds for it, and that the snapshot's Bytes is a recount
// of its files and tables: a shrink takes the dropped nodes' tables off.
func TestSlabFilePropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20150407))
	domain := make([]rdf.TermID, 12)
	for i := range domain {
		domain[i] = rdf.TermID(i + 1)
	}
	files := []FileKey{0, 1, 2}
	randKey := func() uint64 {
		return Key(domain[rng.Intn(len(domain))], domain[rng.Intn(len(domain))])
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
		// Deletes: a tenth of every file's keys, and every key of a node
		// the resize drops, resolved against the keys before this round.
		for node := 0; node < n; node++ {
			for _, file := range files {
				for _, k := range slices.Clone(ref.files[fileRef{node, file}]) {
					if node >= newN || rng.Intn(10) == 0 {
						tx.Delete(node, file, k)
						ref.delete(node, file, k)
					}
				}
			}
		}
		for i, c := 0, rng.Intn(12); i < c; i++ {
			node, file, k := rng.Intn(newN), files[rng.Intn(len(files))], randKey()
			tx.Insert(node, file, k)
			if rng.Intn(4) == 0 { // inserted and deleted in one transaction: nets out
				tx.Delete(node, file, k)
				continue
			}
			ref.insert(node, file, k)
		}
		snap := tx.Commit()

		if snap.N() != newN {
			t.Fatalf("round %d: %d nodes, want %d", round, snap.N(), newN)
		}
		if got, want := snap.Bytes(), recount(snap); got != want {
			t.Fatalf("round %d: Bytes() = %d, a recount of the files and tables %d", round, got, want)
		}
		for node := 0; node < newN; node++ {
			for _, file := range files {
				keys := ref.files[fileRef{node, file}]
				f, ok := snap.Node(node).File(file)
				if ok != (len(keys) > 0) {
					t.Fatalf("round %d: node %d holds file %d: %v, the reference has %d keys", round, node, file, ok, len(keys))
				}
				if ok {
					checkSorted(t, fmt.Sprintf("round %d: node %d file %d", round, node, file), f, keys, rng, domain)
				}
			}
		}
	}
}

// recount sums what a snapshot's files and node tables hold, from their
// capacities, as Bytes counts it.
func recount(s *Snapshot) int64 {
	var n int64
	for i := range s.N() {
		files := s.Node(i).Files()
		n += int64(cap(files)) * int64(unsafe.Sizeof(&File{}))
		for _, f := range files {
			n += int64(unsafe.Sizeof(File{})) + int64(cap(f.Keys()))*8
		}
	}
	return n
}
