package mapreduce

import (
	"sync"
	"testing"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// execute borrows what one simulated execution needs — growing cells,
// records and row numbers element by element, so every buffer goes
// through its growth trail — writes a pattern through every view, checks
// no view overwrote another, and hands everything back.
func execute(t *testing.T, p *Bufs, n int) {
	t.Helper()
	var cells []rdf.TermID
	var recs []record
	var rows []int32
	for i := 0; i < n; i++ {
		cells = append(Grow(p, cells, 1), rdf.TermID(i))
		if i%3 == 0 {
			recs = append(Grow(p, recs, 1), record{group: uint32(i), k0: ^uint32(i)})
		}
		rows = append(Grow(p, rows, 1), int32(-i))
	}
	for i := range cells {
		if cells[i] != rdf.TermID(i) || rows[i] != int32(-i) || i%3 == 0 && (recs[i/3].group != uint32(i) || recs[i/3].k0 != ^uint32(i)) {
			t.Fatalf("element %d was overwritten by another borrower", i)
		}
	}
	Free(p, cells)
	Free(p, recs)
	Free(p, rows)
	p.Reset()
}

// TestBufsHoldOneExecution pins the pool's contract: buffers borrowed
// together never share memory, on one lane or several, the pool keeps
// what the hungriest execution reached whatever ran before or after it,
// a warm pool lends without allocating, and Reset refuses a buffer still
// lent.
func TestBufsHoldOneExecution(t *testing.T) {
	var p Bufs
	execute(t, &p, 5000)
	hungriest := p.Bytes()
	for _, n := range []int{10, 5000, 3000, 1, 5000} {
		execute(t, &p, n)
		if got := p.Bytes(); got != hungriest {
			t.Fatalf("after an execution of %d: the pool holds %d B, the hungriest execution left %d", n, got, hungriest)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { execute(t, &p, 5000) }); allocs != 0 {
		t.Errorf("a warm pool: %v allocs per execution, want none", allocs)
	}

	// Concurrent lanes share the pool.
	var wg sync.WaitGroup
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cells []rdf.TermID
			for i := 0; i < 2000; i++ {
				cells = append(Grow(&p, cells, 1), rdf.TermID(lane))
			}
			for _, c := range cells {
				if c != rdf.TermID(lane) {
					t.Errorf("lane %d's buffer holds another lane's cell", lane)
					break
				}
			}
			Free(&p, cells)
		}()
	}
	wg.Wait()
	p.Reset()

	lent := Grow(&p, []int32(nil), 1)
	defer func() {
		if recover() == nil {
			t.Error("Reset with a buffer still lent did not panic")
		}
		Free(&p, lent)
	}()
	p.Reset()
}

// TestBufsFreedNeighboursCoalesce hands back two neighbouring pieces and
// asks for their joint size: the merged piece serves it, at the first
// piece's address, and the pool occupies no word more.
func TestBufsFreedNeighboursCoalesce(t *testing.T) {
	var p Bufs
	a := Grow(&p, []int32(nil), 600) // 100 units each
	b := Grow(&p, []int32(nil), 600)
	c := Grow(&p, []int32(nil), 600) // keeps a and b from reaching the free space after them
	occupied := p.occupied()
	Free(&p, a)
	Free(&p, b)
	d := Grow(&p, []int32(nil), 1200)
	if unsafe.SliceData(d) != unsafe.SliceData(a) {
		t.Error("two freed neighbours did not serve a request of their joint size")
	}
	if got := p.occupied(); got != occupied || len(p.chunks) != 1 {
		t.Errorf("serving it occupied %d words in %d chunks, before %d in one", got, len(p.chunks), occupied)
	}
	Free(&p, c)
	Free(&p, d)
	p.Reset()
}

// TestBufsResetKeepsLentTails lends the tail of a chunk that a larger
// request skipped: the one chunk Reset keeps holds it, with the rest of
// what the execution occupied and an eighth more, and a repeat of the
// execution fits in it.
func TestBufsResetKeepsLentTails(t *testing.T) {
	var p Bufs
	execute := func() (tailLent bool) {
		x := Grow(&p, []rdf.TermID(nil), 1000*6) // the first chunk is 1024 units: a 24-unit tail
		y := Grow(&p, []rdf.TermID(nil), 100*6)  // skips the tail for a chunk of its own
		z := Grow(&p, []rdf.TermID(nil), 16*6)   // lent from the tail
		tail := uintptr(unsafe.Pointer(unsafe.SliceData(x))) + 1000*bufUnit
		tailLent = uintptr(unsafe.Pointer(unsafe.SliceData(z))) == tail
		Free(&p, x)
		Free(&p, y)
		Free(&p, z)
		p.Reset()
		return tailLent
	}
	if !execute() {
		t.Fatal("the skipped tail did not serve a request it holds")
	}
	occupied := (1000 + 16 + 100) * bufUnit / 8
	want := (occupied + occupied/8) / 3 * 3
	if len(p.chunks) != 1 || len(p.chunks[0].words) != want {
		t.Fatalf("Reset kept %d chunks, the first of %d words; want one of %d: %d occupied and an eighth", len(p.chunks), len(p.chunks[0].words), want, occupied)
	}
	bytes := p.Bytes()
	execute()
	if len(p.chunks) != 1 || p.Bytes() != bytes {
		t.Errorf("a repeat left %d chunks of %d B, the first execution one of %d B", len(p.chunks), p.Bytes(), bytes)
	}
}

// TestBufsDoublingChains grows four buffers element by element, in
// turn, on one lane of a warm pool: each growth either extends its
// buffer over the free pieces around it or hands back a piece next to
// the others' growing ones, and the pool must reuse them, occupying at
// most the chains' live peak — every array lent at once, the one being
// copied out of included — and one chunk of the fewest units a chunk
// has.
func TestBufsDoublingChains(t *testing.T) {
	var p Bufs
	chains := func() (peak int) {
		var chains [4][]int32
		for i := 0; i < 100000; i++ {
			for k := range chains {
				old := cap(chains[k])
				chains[k] = append(Grow(&p, chains[k], 1), int32(i))
				if cap(chains[k]) != old {
					live := old
					for _, c := range chains {
						live += cap(c)
					}
					peak = max(peak, live*4)
				}
			}
		}
		for k := range chains {
			for i, v := range chains[k] {
				if v != int32(i) {
					t.Fatalf("chain %d, element %d: %d, overwritten by another chain", k, i, v)
				}
			}
			Free(&p, chains[k])
		}
		return peak
	}
	chains()
	p.Reset() // one chunk
	peak := chains()
	occupied := p.occupied() * 8
	t.Logf("the chains occupied %d B of the pool's %d: live peak %d B", occupied, p.Bytes(), peak)
	if chunk := 1024 * bufUnit; occupied > peak+chunk {
		t.Errorf("the chains occupied %d B: more than their live peak %d B and a chunk of %d B", occupied, peak, chunk)
	}
	p.Reset()
}
