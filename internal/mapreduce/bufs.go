package mapreduce

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// Bufs is the scratch of one execution context, in 8-byte words viewed
// as the borrower's element type: a bump Arena per lane for a morsel's
// temporaries, all of one size, and the outputs, carved from the bottom
// (what lasts the execution) and the top (what one job reads) of one
// array. Each piece is carved once, at a counted size, so an execution
// needs the lanes times the largest temporary plus the most the outputs
// held at once, however the lanes were scheduled. A piece past an array
// comes from the Go heap, and Reset grows the arrays to what was needed
// (to the allocator's size class), never shrinking them. The zero value is empty; a nil pool is the Go
// heap.
type Bufs struct {
	words []uint64 // the outputs
	lanes []*Arena
	temp  int           // the words of every arena
	ends  atomic.Uint64 // output words carved from the bottom (low half) and the top
	peak  int           // the most output words carved at once since Reset
}

// Arena is one lane's bump allocator: a morsel's temporaries are carved
// one after another and taken back together, to a mark (Cut) or at the
// morsel's end, when the runtime empties it. One lane uses it at a
// time, so it takes no lock.
type Arena struct {
	words      []uint64
	used, peak int // the words lent now, and the most since Reset
}

// Mem is where a buffer is carved: a lane's Arena, or the bottom of a
// pool's outputs; a nil Bufs is the Go heap.
type Mem interface{ carve(words int) []uint64 }

// Elem is what a scratch buffer holds: pointer-free elements.
type Elem interface {
	rdf.TermID | byte | int32 | uint32 | uint64 | run | cursor | stretch
}

// Carve returns n elements carved from m, their contents unspecified;
// a nil m is the Go heap.
func Carve[E Elem](m Mem, n int) []E {
	if n == 0 {
		return nil
	} else if m == nil {
		return make([]E, n)
	}
	w := m.carve((n*int(unsafe.Sizeof(*new(E))) + 7) / 8)
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

func (a *Arena) carve(w int) []uint64 {
	off := a.used
	a.used += w
	a.peak = max(a.peak, a.used)
	if a.used > len(a.words) {
		return make([]uint64, w)
	}
	return a.words[off:a.used:a.used]
}

// Used reports the words the arena lends: a mark to Cut back to.
func (a *Arena) Used() int { return a.used }

// Cut takes back every piece carved since the arena lent mark words.
func (a *Arena) Cut(mark int) { a.used = mark }

// Lane returns lane i's arena. Lanes are added while none runs.
func (p *Bufs) Lane(i int) *Arena {
	for len(p.lanes) <= i {
		p.lanes = append(p.lanes, &Arena{})
	}
	return p.lanes[i]
}

// empty takes back what lane's arena lends: its morsel has ended.
func (p *Bufs) empty(lane int) {
	if p != nil && lane < len(p.lanes) {
		p.lanes[lane].used = 0
	}
}

// top is a pool's outputs carved from their top.
type top Bufs

func (p *Bufs) carve(w int) []uint64 { return p.carveEnd(w, 0) }
func (t *top) carve(w int) []uint64  { return (*Bufs)(t).carveEnd(w, 32) }

// carveEnd carves w output words from the bottom (shift 0) or the top
// (32), both ends in one atomic word: a piece is in the array if the
// ends had not crossed when it was carved.
func (p *Bufs) carveEnd(w int, shift int) []uint64 {
	if p == nil {
		return make([]uint64, w)
	}
	e := p.ends.Add(uint64(w) << shift)
	lo, hi, out := int(uint32(e)), int(e>>32), p.words
	switch {
	case lo+hi > len(out):
		return make([]uint64, w)
	case shift > 0:
		return out[len(out)-hi : len(out)-hi+w : len(out)-hi+w]
	}
	return out[lo-w : lo : lo]
}

// Spare returns as bytes the outputs' room between their two ends,
// empty when they have crossed: a lone carver may write there, then
// carve from the bottom exactly what it wrote, which hands back the
// same words.
func (p *Bufs) Spare() []byte {
	e := p.ends.Load()
	lo, hi := int(uint32(e)), int(e>>32)
	if lo+hi >= len(p.words) {
		return nil
	}
	w := p.words[lo : len(p.words)-hi]
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// endJob takes back the top: what the job alone read.
func (p *Bufs) endJob() {
	if p != nil {
		e := p.ends.Load()
		p.peak = max(p.peak, int(uint32(e))+int(e>>32))
		p.ends.Store(uint64(uint32(e)))
	}
}

// Reset takes every piece back, growing what the execution outgrew:
// every arena to the largest temporary any lane carved, the outputs to
// the most they held at once. No piece may be held across it.
func (p *Bufs) Reset() {
	p.endJob()
	for _, a := range p.lanes {
		p.temp = max(p.temp, a.peak)
		a.used, a.peak = 0, 0
	}
	for _, a := range p.lanes {
		if len(a.words) < p.temp {
			a.words = alloc(p.temp)
		}
	}
	if len(p.words) < p.peak {
		p.words = alloc(p.peak)
	}
	p.ends.Store(0)
	p.peak = 0
}

// alloc returns an array of at least n words: all the allocator's size
// class holds, so that Bytes counts what the heap keeps.
func alloc(n int) []uint64 {
	w := slices.Grow([]uint64(nil), n)
	return w[:cap(w)]
}

// Bytes reports the bytes the pool holds.
func (p *Bufs) Bytes() int64 {
	n := len(p.words)
	for _, a := range p.lanes {
		n += len(a.words)
	}
	return int64(n) * 8
}
