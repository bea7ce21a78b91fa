package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cliquesquare/internal/rdf"
)

// loserRuns returns k sorted runs of 1 to 40 rows of width w, their
// cells drawn from vals values, so that rows repeat inside a run and
// across runs.
func loserRuns(rng *rand.Rand, k, w, vals int) [][]Row {
	runs := make([][]Row, k)
	for i := range runs {
		runs[i] = make([]Row, 1+rng.Intn(40))
		for j := range runs[i] {
			runs[i][j] = make(Row, w)
			for c := range runs[i][j] {
				runs[i][j][c] = rdf.TermID(rng.Intn(vals))
			}
		}
		slices.SortFunc(runs[i], func(a, b Row) int { return slices.Compare(a, b) })
	}
	return runs
}

// merged is one row of a merge and the run it came from.
type merged struct {
	run int
	row Row
}

// loserMerge merges runs through a Loser keyed on each head's first cell,
// its state and the runs' positions carved from m, and appends every
// row, with its run, to out.
func loserMerge(m Mem, runs [][]Row, out []merged) []merged {
	var t Loser
	t.Start(m, len(runs))
	pos := Carve[int32](m, len(runs))
	key := func(i int) uint64 {
		if r := runs[i][pos[i]]; len(r) > 0 {
			return uint64(r[0])
		}
		return 0
	}
	tie := func(i, j int) int { return slices.Compare(runs[i][pos[i]], runs[j][pos[j]]) }
	for i := range runs {
		pos[i] = 0
		t.Key[i] = key(i)
	}
	t.Build(tie)
	for i := t.Top(); i >= 0; i = t.Top() {
		out = append(out, merged{run: i, row: runs[i][pos[i]]})
		if pos[i]++; int(pos[i]) < len(runs[i]) {
			t.Key[i] = key(i)
		}
		t.Next(int(pos[i]) == len(runs[i]), tie)
	}
	return out
}

// TestLoserMergesAsAStableSort holds the tree of losers to a reference:
// over k ∈ {0, 1, 2, 3, 7, 64, 1000} sorted runs of rows of width 0 to
// 3, with repeats inside and across runs, the merge hands out every row
// of the runs concatenated and stably sorted — each from the run the
// stable sort puts it in, so a tie goes to the earlier run — and its
// distinct rows are the concatenation sorted and deduplicated. On a warm
// arena the merge allocates nothing.
func TestLoserMergesAsAStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, k := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for w := 0; w <= 3; w++ {
			for _, vals := range []int{3, 1 << 20} {
				name := fmt.Sprintf("k=%d/w=%d/vals=%d", k, w, vals)
				runs := loserRuns(rng, k, w, vals)
				var want []merged
				for i, r := range runs {
					for _, row := range r {
						want = append(want, merged{run: i, row: row})
					}
				}
				slices.SortStableFunc(want, func(a, b merged) int { return slices.Compare(a.row, b.row) })
				got := loserMerge(nil, runs, nil)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows merged, %d in the runs", name, len(got), len(want))
				}
				for i := range want {
					if got[i].run != want[i].run || !slices.Equal(got[i].row, want[i].row) {
						t.Fatalf("%s: row %d is %v of run %d, want %v of run %d", name, i, got[i].row, got[i].run, want[i].row, want[i].run)
					}
				}
				rows := func(ms []merged) []Row {
					out := make([]Row, len(ms))
					for i, m := range ms {
						out[i] = m.row
					}
					return out
				}
				distinct := slices.CompactFunc(rows(got), slices.Equal)
				if ref := sortedRows(rows(want)); !slices.EqualFunc(distinct, ref, slices.Equal) {
					t.Fatalf("%s: %d distinct rows merged, want %d", name, len(distinct), len(ref))
				}
			}
		}
	}

	runs := loserRuns(rng, 64, 3, 3)
	var p Bufs
	a := p.Lane(0)
	out := loserMerge(a, runs, nil)
	p.Reset()
	if allocs := testing.AllocsPerRun(20, func() {
		out = loserMerge(a, runs, out[:0])
		a.Cut(0)
	}); allocs != 0 {
		t.Errorf("a merge of 64 runs on a warm arena: %.0f allocs, want 0", allocs)
	}
}
