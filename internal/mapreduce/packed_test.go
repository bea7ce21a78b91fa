package mapreduce

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cliquesquare/internal/rdf"
)

// sortedRows sorts rows lexicographically and drops repeats: what Pack
// takes.
func sortedRows(rows []Row) []Row {
	slices.SortFunc(rows, func(a, b Row) int { return slices.Compare(a, b) })
	return slices.CompactFunc(rows, func(a, b Row) bool { return slices.Equal(a, b) })
}

// packRows packs rows (sorted and distinct) through PackBlock, on the Go
// heap.
func packRows(width int, rows []Row) Packed {
	b := Block{Width: width}
	for _, r := range rows {
		b.Append(r)
	}
	return PackBlock(nil, nil, &b)
}

// readPacked decodes rows lo to hi-1 of p, copied, checking the numbers
// Each hands out.
func readPacked(t testing.TB, p *Packed, lo, hi int) []Row {
	out := []Row{}
	p.Each(lo, hi, nil, func(i int, row Row) {
		if i != lo+len(out) || len(row) != p.Width || cap(row) != p.Width {
			t.Fatalf("rows %d to %d: row %d handed out as %d, %d cells (capacity %d) of width %d",
				lo, hi, lo+len(out), i, len(row), cap(row), p.Width)
		}
		out = append(out, slices.Clone(row))
	})
	return out
}

// checkPacked holds packed rows to the rows they were packed from: the
// shape, one restart every PackRestart rows, every row read from the
// start, and ranges read from every restart, just before and after it,
// and between two.
func checkPacked(t testing.TB, label string, want []Row, width int) {
	p := packRows(width, want)
	if p.N != len(want) || p.Width != width || len(p.Restarts) != (len(want)+PackRestart-1)/PackRestart {
		t.Fatalf("%s: packed %d rows of width %d with %d restarts, want %d of width %d",
			label, p.N, p.Width, len(p.Restarts), len(want), width)
	}
	if width == 0 && len(p.Data) != 0 {
		t.Fatalf("%s: rows of width 0 took %d bytes", label, len(p.Data))
	}
	if got := readPacked(t, &p, 0, p.N); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%s: the rows decoded differ from the rows packed", label)
	}
	for k := 0; k*PackRestart <= p.N; k++ {
		for _, lo := range []int{k*PackRestart - 1, k * PackRestart, k*PackRestart + 1, k*PackRestart + PackRestart/2} {
			if lo < 0 || lo > p.N {
				continue
			}
			for _, n := range []int{0, 1, 3, PackRestart + 2} {
				hi := min(lo+n, p.N)
				if got := readPacked(t, &p, lo, hi); !slices.EqualFunc(got, want[lo:hi], slices.Equal) {
					t.Fatalf("%s: rows %d to %d decoded differ from the rows packed", label, lo, hi)
				}
			}
		}
	}
}

// cellGen draws one cell; the generators mix shared prefixes, gaps
// near 2^32 and plain random values.
type cellGen func(rng *rand.Rand, col int) rdf.TermID

var cellGens = map[string]cellGen{
	"random": func(rng *rand.Rand, _ int) rdf.TermID { return rdf.TermID(rng.Uint32()) },
	// Few values in the leading columns: long runs share a prefix.
	"prefix": func(rng *rand.Rand, col int) rdf.TermID {
		if col < 3 {
			return rdf.TermID(rng.Intn(2))
		}
		return rdf.TermID(rng.Uint32())
	},
	// The extremes, so that gaps and later columns' differences reach
	// ±(2^32 - 1).
	"extremes": func(rng *rand.Rand, _ int) rdf.TermID {
		switch rng.Intn(4) {
		case 0:
			return rdf.TermID(rng.Intn(3))
		case 1:
			return rdf.TermID(math.MaxUint32 - rng.Intn(3))
		}
		return rdf.TermID(rng.Uint32())
	},
	// Dense small ids, the shape of a real answer's.
	"dense": func(rng *rand.Rand, col int) rdf.TermID { return rdf.TermID(1 + rng.Intn(64<<col)) },
}

// genRows draws n distinct sorted rows of the given width (fewer when
// the width cannot hold n distinct rows).
func genRows(rng *rand.Rand, gen cellGen, n, width int) []Row {
	if width == 0 {
		return make([]Row, min(n, 1)) // one empty row at most is distinct
	}
	var rows []Row
	for tries := 0; len(rows) < n && tries < 8; tries++ {
		for len(rows) < n {
			r := make(Row, width)
			for j := range r {
				r[j] = gen(rng, j)
			}
			rows = append(rows, r)
		}
		rows = sortedRows(rows)
	}
	return rows[:min(n, len(rows))]
}

// TestPackedProperty packs sorted distinct rows of widths 0–6 — 0, 1,
// PackRestart-1, PackRestart, PackRestart+1 and several thousand of
// them, drawn with long shared prefixes, gaps near 2^32, dense small
// ids and at random — and reads them back whole and from every restart.
// Rows out of order or repeated are refused.
func TestPackedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for width := 0; width <= 6; width++ {
		for name, gen := range cellGens {
			for _, n := range []int{0, 1, PackRestart - 1, PackRestart, PackRestart + 1, 3*PackRestart + 417} {
				rows := genRows(rng, gen, n, width)
				checkPacked(t, name, rows, width)
			}
		}
	}
	// The widest gaps: one column jumping from 0 to 2^32-1, the next
	// falling back by as much.
	checkPacked(t, "edges", []Row{{0, math.MaxUint32}, {1, 0}, {math.MaxUint32, math.MaxUint32}}, 2)
	checkPacked(t, "edges", []Row{{0}, {math.MaxUint32}}, 1)
	for _, bad := range [][]Row{{{2, 1}, {1, 5}}, {{1, 1}, {1, 1}}, {{}, {}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packing %v did not panic", bad)
				}
			}()
			packRows(len(bad[0]), bad)
		}()
	}
}

// FuzzPackedRoundTrip packs whatever rows the input spells — its first
// byte picks a width of 0 to 6, every four bytes after it a cell — once
// sorted and deduplicated, and reads them back whole and from every
// restart.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 255, 255, 255, 255, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0})
	f.Add(append([]byte{1}, make([]byte, 4*2*PackRestart)...))
	seq := []byte{3}
	for i := 0; i < 3*PackRestart; i++ {
		seq = binary.LittleEndian.AppendUint32(seq, uint32(i/7))
		seq = binary.LittleEndian.AppendUint32(seq, uint32(i*13))
		seq = binary.LittleEndian.AppendUint32(seq, math.MaxUint32-uint32(i))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		width, cells := int(in[0]%7), in[1:]
		var rows []Row
		if width == 0 {
			rows = make([]Row, min(len(cells), 1))
		} else {
			for len(cells) >= 4*width {
				r := make(Row, width)
				for j := range r {
					r[j], cells = rdf.TermID(binary.LittleEndian.Uint32(cells)), cells[4:]
				}
				rows = append(rows, r)
			}
		}
		checkPacked(t, "fuzz", sortedRows(rows), width)
	})
}

// BenchmarkPackedEach decodes 100,000 rows of two cells — the shape of
// LUBM Q1's answer: a few rows per first cell, close together — per op.
func BenchmarkPackedEach(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var rows []Row
	for x := rdf.TermID(1); len(rows) < 100000; x += rdf.TermID(1 + rng.Intn(3)) {
		y := rdf.TermID(rng.Intn(1000))
		for k := 1 + rng.Intn(8); k > 0; k-- {
			y += rdf.TermID(1 + rng.Intn(50))
			rows = append(rows, Row{x, y})
		}
	}
	p := packRows(2, rows)
	b.ReportAllocs()
	b.ResetTimer()
	var sum rdf.TermID
	for i := 0; i < b.N; i++ {
		p.Each(0, p.N, nil, func(_ int, row Row) { sum += row[1] })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.N), "ns/row")
}
