package mapreduce

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"cliquesquare/internal/rdf"
)

// TestSortRowsMatchesStableSort holds the one row sort to
// slices.SortStableFunc over copies of the rows: rows of 0 to 6 cells in
// strides up to 3 cells wider (a shuffle run's tuples carry key cells
// before the row), keys drawn from 1 to 2^32 values, with and without a
// tie, from none to 4,097 rows. A call reports whether it moved rows,
// leaves the cells past the rows alone, and takes back all it carved;
// rows already in order come back untouched, and then it carves nothing.
// On a warm arena it allocates nothing.
func TestSortRowsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const tail = 3 // cells past the rows: another run's
	for trial := 0; trial < 400; trial++ {
		width := trial % 7
		stride := width + rng.Intn(4)
		n := []int{0, 1, 2, 4096, 4097, rng.Intn(600)}[trial%6]
		keys := []int64{1, 2, 3, 50, 1 << 32}[rng.Intn(5)]
		kc, tc := 0, 0 // the cells the key and the tie read
		if stride > 0 {
			kc, tc = rng.Intn(stride), rng.Intn(stride)
		}
		cells := make([]rdf.TermID, n*stride+tail)
		for i := range cells {
			cells[i] = rdf.TermID(rng.Int63n(keys))
		}
		key := func(i int) uint32 {
			if stride == 0 {
				return 0
			}
			return uint32(cells[i*stride+kc])
		}
		var tie func(i, j int) int
		if rng.Intn(2) == 0 && stride > 0 {
			tie = func(i, j int) int { return cmp.Compare(cells[i*stride+tc], cells[j*stride+tc]) }
		}
		// The reference: every row copied out, sorted stably, laid back.
		rows := make([][]rdf.TermID, n)
		for i := range rows {
			rows[i] = slices.Clone(cells[i*stride : (i+1)*stride])
		}
		slices.SortStableFunc(rows, func(x, y []rdf.TermID) int {
			if stride == 0 {
				return 0
			}
			if c := cmp.Compare(x[kc], y[kc]); c != 0 || tie == nil {
				return c
			}
			return cmp.Compare(x[tc], y[tc])
		})
		want := slices.Concat(append(rows, cells[n*stride:])...)

		for _, sorted := range []bool{false, true} {
			if sorted {
				copy(cells, want)
			}
			before := slices.Clone(cells)
			var p Bufs
			a := p.Lane(0)
			moved := SortRows(cells, n, stride, key, tie, a)
			if !slices.Equal(cells, want) {
				t.Fatalf("trial %d (n %d, width %d, stride %d, tie %v): rows out of order", trial, n, width, stride, tie != nil)
			}
			if inOrder := slices.Equal(before, want); moved == inOrder {
				t.Fatalf("trial %d: SortRows reported %v on rows in order: %v", trial, moved, inOrder)
			}
			if a.Used() != 0 || !moved && a.peak != 0 {
				t.Fatalf("trial %d: %d words still carved, peak %d, rows moved: %v", trial, a.Used(), a.peak, moved)
			}
		}
	}

	// A warm arena: sorting rows out of order, with and without a tie,
	// allocates nothing once the arena holds the words and the row.
	const n, stride = 4097, 3
	input := make([]rdf.TermID, n*stride)
	for i := range input {
		input[i] = rdf.TermID(rng.Intn(40))
	}
	cells := slices.Clone(input)
	key := func(i int) uint32 { return uint32(cells[i*stride+1]) }
	tie := func(i, j int) int { return cmp.Compare(cells[i*stride+2], cells[j*stride+2]) }
	var p Bufs
	a := p.Lane(0)
	SortRows(cells, n, stride, key, tie, a) // grow the arena
	p.Reset()
	for _, tie := range []func(i, j int) int{nil, tie} {
		if allocs := testing.AllocsPerRun(20, func() {
			copy(cells, input)
			if !SortRows(cells, n, stride, key, tie, a) {
				t.Fatal("rows out of order were not sorted")
			}
		}); allocs != 0 {
			t.Errorf("sorting %d rows, tie %v: %v allocs/op, want 0", n, tie != nil, allocs)
		}
	}
}
