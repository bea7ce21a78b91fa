package physical

import (
	"math/rand"
	"reflect"
	"slices"
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

// mergeMark is how many rows apart a packed answer restarts: where
// EachRange cuts.
const mergeMark = mapreduce.PackRestart

// merged packs each block as a unit of the last job packs its rows
// (packPart: sorted in place, repeats dropped) and merges the parts.
func merged(ctx *ExecContext, parts []mapreduce.Block) Rows {
	for i := range parts {
		ctx.packPart(i, i%ctx.lanes(), parts[i])
	}
	return ctx.mergeParts()
}

// sourceRows reads a source's rows one by one, copying each out of
// whatever backs it.
func sourceRows(r Rows) []mapreduce.Row {
	out := []mapreduce.Row{}
	r.Each(0, r.Len(), func(_ int, row mapreduce.Row) { out = append(out, append(mapreduce.Row{}, row...)) })
	return out
}

// TestDedupeMatchesReference checks packPart and mergeParts against the
// row-form oracle for widths 0–8 on both sides of parallelSortMin, on
// one lane and on four (large results are read in ranges concurrently),
// with heavy and with light duplication, empty results and zero-row
// parts included: the rows read through the
// borrowed source, through the rows packed from it and the materialised
// form of each all equal the reference, and the materialised form is
// exactly sized and shares nothing with the parts or the packed bytes.
func TestDedupeMatchesReference(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		ctx := NewExecContext(lanes, mapreduce.DefaultConstants())
		for trial := 0; trial < 56; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			w := trial % 9
			n := rng.Intn(300)
			if trial%3 == 2 {
				n = parallelSortMin + rng.Intn(parallelSortMin)
			}
			if trial >= 54 {
				n = 0 // nothing but zero-row parts
			}
			vals := 6
			if trial%2 == 1 {
				vals = 1 << 20
			}
			parts, rows := randomParts(rng, n, w, 1+rng.Intn(7), vals)
			if trial == 55 {
				parts = nil // a job that produced no part at all
			}
			want := refDedupeSort(rows)
			src := merged(ctx, parts)
			if src.Len() != len(want) || src.Width() != w && src.Len() > 0 {
				t.Fatalf("lanes %d, trial %d (%d rows of width %d): the source has %d rows of width %d, want %d",
					lanes, trial, n, w, src.Len(), src.Width(), len(want))
			}
			if got := sourceRows(src); !reflect.DeepEqual(got, want) {
				t.Fatalf("lanes %d, trial %d (%d rows of width %d): rows read through the source differ from the reference", lanes, trial, n, w)
			}
			packed := src.pack()
			owned := packedRows(&packed, ctx)
			if got := sourceRows(owned); !reflect.DeepEqual(got, want) {
				t.Fatalf("lanes %d, trial %d: rows read through a packed source differ from the reference", lanes, trial)
			}
			// Ranges tile the rows exactly, at every lane count, over either
			// source, and each reads its own rows, concurrently with the
			// others.
			for k, s := range []Rows{src, owned} {
				covered := make([]int32, s.Len())
				s.EachRange(func(lo, hi int) {
					s.Each(lo, hi, func(i int, row mapreduce.Row) {
						if slices.Equal(row, want[i]) {
							covered[i]++ // disjoint ranges: no two lanes share an i
						}
					})
				})
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("lanes %d, trial %d, source %d: row %d was read right by %d ranges", lanes, trial, k, i, c)
					}
				}
			}
			got := src.Materialise()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lanes %d, trial %d (%d rows of width %d): materialised result differs from the reference (%d rows, want %d)",
					lanes, trial, n, w, len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("lanes %d, trial %d: a view of %d/%d rows is not exactly sized", lanes, trial, len(got), cap(got))
			}
			// Over packed rows the source reads the packed bytes themselves,
			// and the view is decoded into a block of its own.
			view := owned.Materialise()
			if owned.Packed() != &packed || !reflect.DeepEqual(view, want) || cap(view) != len(view) {
				t.Fatalf("lanes %d, trial %d: a packed source does not read its packed rows, or did not materialise them", lanes, trial)
			}
			clear(packed.Data)
			if !reflect.DeepEqual(view, want) {
				t.Fatalf("lanes %d, trial %d: the materialised result changed when the packed bytes were overwritten", lanes, trial)
			}
			// Over a merge it shares nothing with the parts.
			for p := range parts {
				for i := range parts[p].Cells {
					parts[p].Cells[i] = ^rdf.TermID(0)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lanes %d, trial %d: the materialised result changed when the parts were overwritten", lanes, trial)
			}
		}
	}
}

// TestDedupeAllocations pins the result boundary's allocation contract:
// once the context's scratch has grown — each part, and the answer
// merged from them, packs there, taken back by the reset an execution
// ends with — ordering a job's output allocates nothing, reading it
// nothing, and only Materialise pays: the block and its view, nothing
// per row.
func TestDedupeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Seven parts of a warm answer: more than one lane's rows each.
	parts, _ := randomParts(rng, 2*parallelSortMin, 2, 7, 400)
	for _, ctx := range []*ExecContext{NewExecContext(1, mapreduce.DefaultConstants()), NewExecContext(4, mapreduce.DefaultConstants())} {
		src := merged(ctx, parts)
		var sum rdf.TermID
		if got := testing.AllocsPerRun(100, func() {
			ctx.bufs.Reset()
			src = merged(ctx, parts)
			src.Each(0, src.Len(), func(_ int, row mapreduce.Row) { sum += row[0] })
		}); got != 0 {
			t.Errorf("%d lanes: ordering and reading %d rows: %v allocs/op, want none on a warm context", ctx.lanes(), src.Len(), got)
		}
		if got := testing.AllocsPerRun(100, func() { src.Materialise() }); got != 2 {
			t.Errorf("%d lanes: Materialise of %d rows: %v allocs/op, want the block and the view", ctx.lanes(), src.Len(), got)
		}
	}
}

// TestMergePacksOneAnswer pins how the last job's parts become the
// answer: parts that overlap — every row of two parts twice — merge into
// one packed relation of the reference's rows, a restart every
// PackRestart of them; a range read from any row — on a restart, just
// before or after one, or between two — is the reference's range;
// EachRange cuts only at restarts; and the merge keeps nothing in the
// pool: on a context never reset, everything it carved came from the Go
// heap.
func TestMergePacksOneAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts, rows := randomParts(rng, 6*mergeMark, 3, 5, 40)
	for _, p := range parts[:2] { // every row of two parts twice
		p.Cells = slices.Clone(p.Cells)
		parts = append(parts, p)
	}
	want := refDedupeSort(rows)
	ctx := NewExecContext(4, mapreduce.DefaultConstants())
	src := merged(ctx, parts)
	if src.Len() != len(want) || src.Len() < 3*mergeMark {
		t.Fatalf("%d survivors, want %d (and at least three restarts' worth)", src.Len(), len(want))
	}
	if p := src.Packed(); p != &ctx.answer || len(p.Restarts) != (src.Len()+mergeMark-1)/mergeMark {
		t.Errorf("the answer is not the context's, or has %d restarts for %d rows, want one every %d", len(p.Restarts), src.Len(), mergeMark)
	}
	if b := ctx.bufs.Bytes(); b != 0 {
		t.Errorf("the merge drew %d B from the pool, want none", b)
	}
	read := func(lo, hi int) []mapreduce.Row {
		out := []mapreduce.Row{}
		src.Each(lo, hi, func(i int, row mapreduce.Row) {
			if i != lo+len(out) {
				t.Fatalf("rows %d to %d: row %d handed out as %d", lo, hi, lo+len(out), i)
			}
			out = append(out, append(mapreduce.Row{}, row...))
		})
		return out
	}
	for _, lo := range []int{0, 1, mergeMark - 1, mergeMark, mergeMark + 1, 2*mergeMark + 17, src.Len() - 1, src.Len()} {
		for _, n := range []int{0, 1, 5, mergeMark, 2*mergeMark + 3} {
			hi := min(lo+n, src.Len())
			if got := read(lo, hi); !reflect.DeepEqual(got, want[lo:hi]) {
				t.Fatalf("rows %d to %d read through the source differ from the reference", lo, hi)
			}
		}
	}
	src.EachRange(func(lo, hi int) {
		if lo%mergeMark != 0 || hi != src.Len() && hi%mergeMark != 0 {
			t.Errorf("EachRange cut at %d and %d: a range must start and end at a restart (every %d rows) or the end", lo, hi, mergeMark)
		}
	})
}

// TestPackedRowsReadFromRestarts holds a result-cache entry's source to
// the merge it was packed from, for widths 0–6 and 0, 1, mergeMark-1,
// mergeMark, mergeMark+1 and several thousand rows: Each from every
// restart, and from just before and after it, reads the merge's rows,
// and EachRange at 1, 2 and 4 lanes cuts at restarts and reads every
// row once.
func TestPackedRowsReadFromRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, lanes := range []int{1, 2, 4} {
		ctx := NewExecContext(lanes, mapreduce.DefaultConstants())
		for w := 0; w <= 6; w++ {
			for _, n := range []int{0, 1, mergeMark - 1, mergeMark, mergeMark + 1, parallelSortMin + 3*mergeMark/2} {
				vals := 1 << 20
				if w >= 3 {
					vals = 64 // long runs share a prefix
				}
				_, rows := randomParts(rng, 2*n, w, 1, vals)
				want := refDedupeSort(rows)
				if len(want) < n && w > 0 {
					t.Fatalf("width %d: %d distinct rows drawn, want %d", w, len(want), n)
				}
				want = want[:min(n, len(want))]
				// One part of exactly the wanted rows.
				parts := []mapreduce.Block{{}}
				for _, row := range want {
					parts[0].Append(row)
				}
				packed := merged(ctx, parts).pack()
				src := packedRows(&packed, ctx)
				if src.Len() != len(want) || src.Width() != w && src.Len() > 0 {
					t.Fatalf("width %d, %d rows: the packed source has %d rows of width %d", w, len(want), src.Len(), src.Width())
				}
				for k := 0; k*mergeMark <= src.Len(); k++ {
					for _, lo := range []int{k*mergeMark - 1, k * mergeMark, k*mergeMark + 1} {
						if lo < 0 || lo > src.Len() {
							continue
						}
						got := []mapreduce.Row{}
						src.Each(lo, src.Len(), func(i int, row mapreduce.Row) {
							if i != lo+len(got) {
								t.Fatalf("width %d, from row %d: row %d handed out as %d", w, lo, lo+len(got), i)
							}
							got = append(got, slices.Clone(row))
						})
						if !reflect.DeepEqual(got, append([]mapreduce.Row{}, want[lo:]...)) {
							t.Fatalf("width %d, %d rows, lanes %d: rows read from %d differ from the merge's", w, len(want), lanes, lo)
						}
					}
				}
				wantLanes := 1
				if src.Len() >= parallelSortMin {
					wantLanes = lanes
				}
				if src.Lanes() != wantLanes {
					t.Fatalf("width %d, %d rows: cut into %d ranges on %d lanes", w, src.Len(), src.Lanes(), lanes)
				}
				covered := make([]int32, src.Len())
				src.EachRange(func(lo, hi int) {
					if lo%mergeMark != 0 || hi != src.Len() && hi%mergeMark != 0 {
						t.Errorf("EachRange cut at %d and %d, not at restarts", lo, hi)
					}
					src.Each(lo, hi, func(i int, row mapreduce.Row) {
						if slices.Equal(row, want[i]) {
							covered[i]++ // disjoint ranges: no two lanes share an i
						}
					})
				})
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("width %d, lanes %d: row %d was read right by %d ranges", w, lanes, i, c)
					}
				}
				ctx.bufs.Reset()
			}
		}
	}
}
