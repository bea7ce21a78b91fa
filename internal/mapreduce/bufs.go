package mapreduce

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// Bufs is the scratch of one execution context, in 8-byte words viewed
// as the borrower's element type: a two-ended Arena per lane for what a
// morsel computes in, all of one size, and the outputs, carved from the
// bottom (what lasts the execution) and the top (what one job reads) of
// one array. Each output piece is carved once, at its size; a morsel
// writes its blocks into its lane's arena as it fills them, growing the
// last in place, and counted temporaries come from the arena's other
// end. So an execution needs the lanes times the most any morsel held
// at once plus the most the outputs held at once, however the lanes were
// scheduled. A piece past an array comes from the Go heap, counted all
// the same, and Reset grows the arrays to what was needed (to the
// allocator's size class), never shrinking them. The zero value is
// empty: it takes every piece from the Go heap, counted all the same,
// until Reset sizes its arrays.
type Bufs struct {
	words []uint64 // the outputs
	lanes []*Arena
	temp  int           // the words of every arena
	ends  atomic.Uint64 // output words carved from the bottom (low half) and the top
	peak  int           // the most output words carved at once since Reset
}

// Arena is one lane's bump allocator, lending one array from both ends.
// The top holds a morsel's counted temporaries, carved (Carve) one after
// another and taken back together, to a mark (Cut). The bottom holds the
// blocks the morsel fills one at a time (Block.Extend), a stack of which
// only the last grows, in place: a block that starts growing goes on
// the stack, and one that is emptied while last gives its room back. The
// runtime empties both ends as the morsel ends. A piece that would cross
// the other end comes from the Go heap — the last block grows there as
// append grows a slice — but every word is counted as if the array had
// held it, so the arena's peak is a function of the morsel alone. One
// lane uses it at a time, so it takes no lock.
type Arena struct {
	words       []uint64
	top, bottom int          // the words lent at each end
	base        int          // where the last block at the bottom starts
	last        []rdf.TermID // the last block's room, in the array or on the heap
	peak        int          // the most words lent at once since Reset
}

// Mem is where a buffer is carved: the top of a lane's Arena, or the
// bottom of a pool's outputs.
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

// carve carves w words from the top.
func (a *Arena) carve(w int) []uint64 {
	a.top += w
	a.peak = max(a.peak, a.bottom+a.top)
	if a.bottom+a.top > len(a.words) {
		return make([]uint64, w)
	}
	lo := len(a.words) - a.top
	return a.words[lo : lo+w : lo+w]
}

// Used reports the words the arena lends from its top: a mark to Cut
// back to.
func (a *Arena) Used() int { return a.top }

// Cut takes back every piece carved from the top since it lent mark
// words.
func (a *Arena) Cut(mark int) { a.top = mark }

// isLast reports whether cells are the last block at the bottom.
func (a *Arena) isLast(cells []rdf.TermID) bool {
	return cap(cells) > 0 && cap(a.last) > 0 && unsafe.SliceData(cells) == unsafe.SliceData(a.last)
}

// grow returns cells, a block's, with room for n more: in place when
// they are the last block at the bottom, else as a new last block, on
// top of the others. The room is exactly the words the cells take, so
// the block calls again to grow further and every word is counted.
func (a *Arena) grow(cells []rdf.TermID, n int) []rdf.TermID {
	if !a.isLast(cells) {
		a.base, a.last = a.bottom, nil
	}
	w := (len(cells) + n + 1) / 2
	a.bottom = a.base + w
	a.peak = max(a.peak, a.bottom+a.top)
	room := a.last
	switch {
	case a.bottom+a.top <= len(a.words):
		room = unsafe.Slice((*rdf.TermID)(unsafe.Pointer(&a.words[a.base])), 2*w)
	case cap(room) < 2*w:
		room = make([]rdf.TermID, max(2*w, 2*cap(room)))
	}
	if len(cells) > 0 && unsafe.SliceData(room) != unsafe.SliceData(cells) {
		copy(room, cells)
	}
	a.last = room[:cap(room)]
	return room[: len(cells) : 2*w]
}

// spare returns as bytes the arena's room between its ends, nil past
// its array or for a nil arena: a lone writer may write there, then
// count what it wrote (lend).
func (a *Arena) spare() []byte {
	if a == nil || a.bottom+a.top >= len(a.words) {
		return nil
	}
	w := a.words[a.bottom : len(a.words)-a.top]
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// lend counts n bytes written between the arena's ends in its peak, as
// if carved.
func (a *Arena) lend(n int) {
	if a != nil {
		a.peak = max(a.peak, a.bottom+a.top+(n+7)/8)
	}
}

// Lane returns lane i's arena. Lanes are added while none runs.
func (p *Bufs) Lane(i int) *Arena {
	for len(p.lanes) <= i {
		p.lanes = append(p.lanes, &Arena{})
	}
	return p.lanes[i]
}

// empty takes back what lane's arena lends: its morsel has ended.
func (p *Bufs) empty(lane int) {
	a := p.lanes[lane]
	a.top, a.bottom, a.last = 0, 0, nil
}

// top is a pool's outputs carved from their top.
type top Bufs

func (p *Bufs) carve(w int) []uint64 { return p.carveEnd(w, 0) }
func (t *top) carve(w int) []uint64  { return (*Bufs)(t).carveEnd(w, 32) }

// carveEnd carves w output words from the bottom (shift 0) or the top
// (32), both ends in one atomic word: a piece is in the array if the
// ends had not crossed when it was carved.
func (p *Bufs) carveEnd(w int, shift int) []uint64 {
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
	e := p.ends.Load()
	p.peak = max(p.peak, int(uint32(e))+int(e>>32))
	p.ends.Store(uint64(uint32(e)))
}

// Reset takes every piece back, growing what the execution outgrew:
// every arena to the most any lane lent at once, the outputs to the most
// they held at once. No piece may be held across it.
func (p *Bufs) Reset() {
	p.endJob()
	for _, a := range p.lanes {
		p.temp = max(p.temp, a.peak)
		a.top, a.bottom, a.last, a.peak = 0, 0, nil, 0
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
