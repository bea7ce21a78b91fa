package physical

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// refDedupeSort is the seed's result canonicalization in row form —
// string-keyed deduplication, then sort.Slice under the seed's rowLess
// — kept as the oracle for the flat, typed rewrite.
func refDedupeSort(rows []mapreduce.Row) []mapreduce.Row {
	seen := make(map[string]bool, len(rows))
	out := []mapreduce.Row{}
	for _, row := range rows {
		vals := make([]uint32, len(row))
		for i, v := range row {
			vals[i] = uint32(v)
		}
		k := mapreduce.EncodeKey(0, vals)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// randomParts spreads n random rows of width w over k blocks (some
// possibly empty) and returns them in both forms.
func randomParts(rng *rand.Rand, n, w, k, vals int) ([]mapreduce.Block, []mapreduce.Row) {
	parts := make([]mapreduce.Block, k)
	rows := make([]mapreduce.Row, n)
	for i := range rows {
		rows[i] = make(mapreduce.Row, w)
		for j := range rows[i] {
			rows[i][j] = rdf.TermID(rng.Intn(vals))
		}
		parts[rng.Intn(k)].Append(rows[i])
	}
	return parts, rows
}

// TestDedupeMatchesReference checks dedupeSort against the row-form
// oracle for widths 0–8 on both sides of parallelSortMin, on one lane
// (the parts are sorted inline) and on four (large results sort their
// parts concurrently), with heavy and with light duplication.
func TestDedupeMatchesReference(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		ctx := NewExecContext(lanes)
		for trial := 0; trial < 54; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			w := trial % 9
			n := rng.Intn(300)
			if trial%3 == 2 {
				n = parallelSortMin + rng.Intn(parallelSortMin)
			}
			vals := 6
			if trial%2 == 1 {
				vals = 1 << 20
			}
			parts, rows := randomParts(rng, n, w, 1+rng.Intn(7), vals)
			want := refDedupeSort(rows)
			blk, got := ctx.dedupeSort(parts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lanes %d, trial %d (%d rows of width %d): result differs from the reference (%d rows, want %d)",
					lanes, trial, n, w, len(got), len(want))
			}
			if blk.N != len(got) || blk.Width != w && blk.N > 0 || len(blk.Cells) != len(got)*w || cap(blk.Cells) != len(blk.Cells) || cap(got) != len(got) {
				t.Fatalf("lanes %d, trial %d: block %d x %d with %d/%d cells under a view of %d/%d rows is not exactly sized",
					lanes, trial, blk.N, blk.Width, len(blk.Cells), cap(blk.Cells), len(got), cap(got))
			}
			for i, row := range got {
				if w > 0 && &row[0] != &blk.Cells[i*w] {
					t.Fatalf("lanes %d, trial %d: view row %d is not row %d of the block", lanes, trial, i, i)
				}
			}
		}
		ctx.Close()
	}
}

// TestDedupeAllocations pins the result boundary's allocation contract:
// once the context's scratch has grown, canonicalizing a job's output
// allocates the result block and its view — nothing per row.
func TestDedupeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parts, _ := randomParts(rng, 1024, 2, 7, 40)
	ctx := &ExecContext{}
	ctx.dedupeSort(parts)
	if got := testing.AllocsPerRun(100, func() { ctx.dedupeSort(parts) }); got > 4 {
		t.Errorf("dedupeSort of 1024 rows: %v allocs/op, want the block, the view and at most two closures", got)
	}
}
