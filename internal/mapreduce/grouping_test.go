package mapreduce

// Property tests pinning the binary shuffle path to the retained
// string-keyed reference implementation (reference_test.go): the
// sorted-record grouping must present exactly the same (group →
// records) multisets, in exactly the seed's sorted-string key order,
// and the packed-key machinery must be allocation-free.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cliquesquare/internal/rdf"
)

// randomRecords builds a batch with deliberately colliding keys: small
// group/cell ranges, mixed key widths (including > inlineCells to
// exercise the spill path).
func randomRecords(rng *rand.Rand, n int) []Keyed {
	recs := make([]Keyed, n)
	for i := range recs {
		group := uint32(rng.Intn(4))
		width := 1 + rng.Intn(6) // 1..6 cells, beyond the inline capacity
		cells := make([]uint32, width)
		for j := range cells {
			// Values straddling byte boundaries so byte-swapped order
			// differs from numeric order.
			cells[j] = uint32(rng.Intn(5)) * 0x01010101
		}
		recs[i] = Keyed{
			Key: MakeKey(group, cells),
			Tag: rng.Intn(2),
			Row: Row{rdf.TermID(i), rdf.TermID(rng.Intn(100))},
		}
	}
	return recs
}

// recordID renders a record for multiset comparison.
func recordID(k Keyed) string {
	return fmt.Sprintf("t%d|%v", k.Tag, k.Row)
}

// TestSortedGroupingMatchesReference cross-checks the radix-sorted
// grouping against the seed's map-based grouping: same groups, same
// per-group record multisets, groups visited in the seed's
// sorted-string order.
func TestSortedGroupingMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		recs := randomRecords(rng, rng.Intn(300))
		ref := ReferenceGroups(recs)
		refOrder := ReferenceOrder(ref)

		sorted := append([]Keyed(nil), recs...)
		sortRecords(sorted)
		groups := Groups{recs: sorted}

		var gotOrder []string
		groups.Each(func(key *Key, grecs []Keyed) {
			enc := key.Encode()
			gotOrder = append(gotOrder, enc)
			want, ok := ref[enc]
			if !ok {
				t.Fatalf("trial %d: group %q not in reference", trial, enc)
			}
			if len(grecs) != len(want) {
				t.Fatalf("trial %d: group %q has %d records, reference %d",
					trial, enc, len(grecs), len(want))
			}
			a := make([]string, len(grecs))
			b := make([]string, len(want))
			for i := range grecs {
				a[i] = recordID(grecs[i])
				b[i] = recordID(want[i])
			}
			sort.Strings(a)
			sort.Strings(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: group %q record multisets differ: %v vs %v",
						trial, enc, a, b)
				}
			}
			for i := range grecs {
				if !grecs[i].Key.Equal(&grecs[0].Key) {
					t.Fatalf("trial %d: group %q holds mixed keys", trial, enc)
				}
			}
		})
		if len(gotOrder) != len(refOrder) {
			t.Fatalf("trial %d: %d groups, reference %d", trial, len(gotOrder), len(refOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != refOrder[i] {
				t.Fatalf("trial %d: group %d visited as %q, reference order wants %q",
					trial, i, gotOrder[i], refOrder[i])
			}
		}
	}
}

// TestKeyPathAllocationFree pins the allocation contract of the
// EncodeKey replacement and the routing hash: zero heap allocations
// per record for keys up to inlineCells cells.
func TestKeyPathAllocationFree(t *testing.T) {
	cells := []uint32{7, 11, 13, 17}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		k := MakeKey1(3, 42)
		sink += uint64(k.route(7))
	}); n != 0 {
		t.Errorf("MakeKey1+route: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k := MakeKey(3, cells)
		sink += k.Hash()
	}); n != 0 {
		t.Errorf("MakeKey (4 cells): %v allocs/op, want 0", n)
	}
	row := Row{9, 8, 7, 6}
	cols := []int{2, 0, 3}
	if n := testing.AllocsPerRun(1000, func() {
		k := MakeRowKey(5, row, cols)
		sink += k.Hash()
	}); n != 0 {
		t.Errorf("MakeRowKey (3 cols): %v allocs/op, want 0", n)
	}
	want := MakeKey(5, []uint32{7, 9, 6})
	if got := MakeRowKey(5, row, cols); !got.Equal(&want) || got.Hash() != want.Hash() {
		t.Error("MakeRowKey disagrees with MakeKey over the same cells")
	}
	if n := testing.AllocsPerRun(1000, func() {
		a := MakeKey(1, cells)
		b := MakeKey(1, cells)
		if a.Compare(&b) != 0 || !a.Equal(&b) {
			t.Fatal("key self-comparison failed")
		}
	}); n != 0 {
		t.Errorf("Compare/Equal: %v allocs/op, want 0", n)
	}
	_ = sink
}

// TestSortRecordsAllocationFree pins the reduce-side grouping sort:
// sorting a shuffle buffer in place must not allocate.
func TestSortRecordsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := randomRecords(rng, 512)
	scratch := make([]Keyed, len(recs))
	if n := testing.AllocsPerRun(100, func() {
		copy(scratch, recs)
		sortRecords(scratch)
	}); n != 0 {
		t.Errorf("sortRecords: %v allocs/op, want 0", n)
	}
}
