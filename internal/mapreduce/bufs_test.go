package mapreduce

import (
	"sync"
	"testing"

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
