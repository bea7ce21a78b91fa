package mapreduce

import (
	"sync"
	"testing"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// execute carves what one simulated execution of jobs jobs needs on
// lanes lanes, concurrently: per job, morsels whose temporaries (7 ×
// morsel cells, and a mark Cut back to) come from their lane's arena,
// each emptied as its morsel ends, while the outputs carve lasting
// pieces from the pool's bottom and the job's own from its top. Every
// piece gets a pattern, checked once the job has run: no two pieces
// carved together share memory, and on a warm pool every piece lies in
// its lane's arena or the outputs' array.
func execute(t *testing.T, p *Bufs, lanes, jobs int, warm bool) {
	t.Helper()
	var lasting [][]rdf.TermID
	p.Lane(lanes - 1)
	for job := 0; job < jobs; job++ {
		var mu sync.Mutex
		var wg sync.WaitGroup
		var own [][]run
		for lane := 0; lane < lanes; lane++ {
			a := p.Lane(lane)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := lane; m < 12; m += lanes {
					tmp := Carve[rdf.TermID](a, 7*m)
					mark := a.Used()
					scrap := Carve[int32](a, 100)
					for i := range tmp {
						tmp[i] = rdf.TermID(m)
					}
					a.Cut(mark)
					for _, c := range tmp {
						if c != rdf.TermID(m) {
							t.Errorf("morsel %d: a temporary overwritten", m)
							return
						}
					}
					keep := Carve[rdf.TermID](p, 3*m+job)
					recs := Carve[run]((*top)(p), m)
					for i := range keep {
						keep[i] = rdf.TermID(m<<8 | job)
					}
					for i := range recs {
						recs[i] = run{shape: shape{group: uint32(m)}, off: uint32(job)}
					}
					if warm && !(inside(a.words, tmp) && inside(a.words, scrap) && inside(p.words, keep) && inside(p.words, recs)) {
						t.Errorf("job %d, morsel %d: a warm pool carved a piece off its arrays", job, m)
					}
					p.empty(lane)
					mu.Lock()
					lasting, own = append(lasting, keep), append(own, recs)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for _, recs := range own {
			for _, r := range recs {
				if int(r.off) != job || int(r.group) != len(recs) {
					t.Fatalf("job %d: a run header overwritten", job)
				}
			}
		}
		p.endJob()
	}
	for _, keep := range lasting {
		for _, c := range keep {
			if int(c>>8) != (len(keep)-int(c&0xff))/3 {
				t.Fatalf("a lasting piece overwritten")
			}
		}
	}
	p.Reset()
}

// inside reports whether s lies in words.
func inside[E Elem](words []uint64, s []E) bool {
	if len(s) == 0 {
		return true
	}
	lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(words))), uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return at >= lo && at+uintptr(len(s))*unsafe.Sizeof(s[0]) <= lo+uintptr(len(words))*8
}

// TestBufsHoldOneExecution pins the pool's contract. Pieces carved
// together never share memory, on one lane or several. After Reset the
// pool is exactly the lanes times the largest temporary of any morsel,
// plus the most the outputs held at once — the same words whatever the
// interleaving, each at the allocator's size class — and a repeat, or a
// smaller execution, never grows it and carves without allocating. A lane's arena is empty whenever one
// of the runtime's units starts on it.
func TestBufsHoldOneExecution(t *testing.T) {
	// Per job: morsels 0..11 carve 7m cells and 100 int32 (50 words) at
	// most; the outputs keep 3m+job cells and m run headers (3 words) each.
	temp := (7*11+1)/2 + 50
	keep := func(jobs int) (words int) {
		for job := 0; job < jobs; job++ {
			for m := 0; m < 12; m++ {
				words += (3*m + job + 1) / 2
			}
		}
		return words
	}
	for _, lanes := range []int{1, 2, 4} {
		var p Bufs
		execute(t, &p, lanes, 3, false)
		want := int64(lanes*len(alloc(temp))+len(alloc(keep(3)+3*66))) * 8
		if got := p.Bytes(); got != want {
			t.Fatalf("%d lanes: the pool holds %d B, want %d (lanes × %d words and %d of outputs)", lanes, got, want, temp, keep(3)+3*66)
		}
		for _, jobs := range []int{3, 1, 3, 2} {
			execute(t, &p, lanes, jobs, true)
			if got := p.Bytes(); got != want {
				t.Fatalf("%d lanes: after an execution of %d jobs the pool holds %d B, the hungriest left %d", lanes, jobs, got, want)
			}
		}
	}

	// Through the runtime: each unit finds its lane's arena empty.
	var p Bufs
	p.Lane(3)
	cl := NewCluster(3, DefaultConstants())
	pool := NewPool(4)
	job := Job{
		MapMorsels: func(int) int { return 9 },
		MapMorsel: func(node, morsel, lane int, m *Meter, _ *Emitter, _ *Block) {
			if a := p.Lane(lane); a.Used() != 0 {
				t.Errorf("node %d, morsel %d: lane %d's arena lends %d words at the start", node, morsel, lane, a.Used())
			}
			Carve[rdf.TermID](p.Lane(lane), 2*morsel+node)
		},
	}
	for i := 0; i < 3; i++ {
		cl.RunWith(job, RunOptions{Pool: pool, Scratch: &Scratch{Bufs: &p}})
		p.Reset()
		if got, want := p.Bytes(), int64(4*len(alloc((2*8+2+1)/2)))*8; got != want {
			t.Errorf("run %d: the pool holds %d B, want four arenas of the largest morsel's %d B", i, got, want/4)
		}
	}
}

// fillArena is one morsel's use of arena a, checked as it goes: block
// b1 takes 100 rows of 3 cells (150 words), one at a time, while every
// tenth row a temporary of 40 cells (20 words) is carved from the top,
// scribbled over and cut back; then a temporary of 64 cells (32 words)
// stays, and block b2 takes 30 rows of one cell (15 words) on top of b1,
// is emptied, and block b3 takes 8 rows in its place. The most the
// arena lends at once is 150 + 32 + 15 = 197 words. With inArray, every
// piece must lie in the arena's array and each block grow in place.
func fillArena(t *testing.T, a *Arena, inArray bool) {
	b1, b2, b3 := NewBlock(a), NewBlock(a), NewBlock(a)
	var first *rdf.TermID
	for i := 0; i < 100; i++ {
		row := b1.Extend(1, 3)
		row[0], row[1], row[2] = rdf.TermID(i), rdf.TermID(i+1), rdf.TermID(i+2)
		if i == 0 {
			first = &b1.Cells[0]
		}
		if i%10 == 9 {
			mark := a.Used()
			tmp := Carve[rdf.TermID](a, 40)
			for j := range tmp {
				tmp[j] = 1 << 30
			}
			if inArray && !inside(a.words, tmp) {
				t.Fatal("a temporary carved off a warm arena's array")
			}
			a.Cut(mark)
		}
	}
	keep := Carve[rdf.TermID](a, 64)
	for i := 0; i < 30; i++ {
		b2.Extend(1, 1)[0] = rdf.TermID(i)
	}
	if inArray {
		words := a.words[:len(a.words)-a.top]
		if &b1.Cells[0] != first || !inside(words, b1.Cells) || !inside(words, b2.Cells) || !inside(a.words, keep) {
			t.Fatal("a block moved or left the warm arena's array")
		}
		if at := unsafe.Pointer(unsafe.SliceData(b2.Cells)); at != unsafe.Pointer(&a.words[150]) {
			t.Fatal("the second block does not start where the first ends")
		}
	}
	for i := 0; i < b1.N; i++ {
		if r := b1.Row(i); r[0] != rdf.TermID(i) || r[2] != rdf.TermID(i+2) {
			t.Fatalf("row %d of the first block overwritten: %v", i, r)
		}
	}
	for i, c := range b2.Cells {
		if c != rdf.TermID(i) {
			t.Fatalf("cell %d of the second block overwritten: %d", i, c)
		}
	}
	at := unsafe.SliceData(b2.Cells)
	b2.Empty()
	for i := 0; i < 8; i++ {
		b3.Extend(1, 1)[0] = rdf.TermID(i)
	}
	if inArray && unsafe.SliceData(b3.Cells) != at {
		t.Fatal("an emptied last block did not give its room back")
	}
}

// TestArenaBottomFillsInPlace pins the two ends of a lane's arena: a
// block at the bottom grows in place across carves and cuts at the top,
// blocks filled in turn stack, and an emptied last block gives its room
// back. On a cold arena, whose pieces all come from the Go heap, every
// word is counted all the same: after Reset the arena holds exactly the
// most the morsel lent at once, and the same morsel then runs inside its
// array, in place, without allocating.
func TestArenaBottomFillsInPlace(t *testing.T) {
	var p Bufs
	a := p.Lane(0)
	fillArena(t, a, false)
	p.empty(0)
	p.Reset()
	want := int64(len(alloc(150+32+15))) * 8
	if got := p.Bytes(); got != want {
		t.Fatalf("a cold arena's morsel left %d B, want %d (197 words at the size class)", got, want)
	}
	fillArena(t, a, true)
	p.empty(0)
	if allocs := testing.AllocsPerRun(10, func() { fillArena(t, a, true); p.empty(0) }); allocs != 0 {
		t.Errorf("a warm arena's morsel allocates %.0f times", allocs)
	}
	p.Reset()
	if got := p.Bytes(); got != want {
		t.Errorf("a warm arena's morsel left %d B, want %d", got, want)
	}
}
