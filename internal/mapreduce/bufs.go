package mapreduce

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// Bufs is the buffer pool of one execution context: every buffer of
// cells, records, run headers or row numbers an execution computes in is
// carved from the chunks of 8-byte words it keeps, viewed as the
// borrower's element type. The chunks are one address space, chunk
// after chunk. A piece handed back merges with its free neighbours; a
// growing buffer extends over the free pieces around it when they make
// room, and any other request takes the first free piece in address
// order that holds it — through the High view the last, from its top —
// a chunk being added only when none does. Reset takes everything back
// at once and keeps one chunk of what the execution occupied, so the
// pool holds what the hungriest execution occupied, however many ran,
// and a repeat of it on one lane adds no chunk. Lanes grow buffers
// concurrently, so the pool locks; a buffer grows geometrically, so the
// lock is off the per-row path. The zero value is an empty pool.
type Bufs struct {
	mu     sync.Mutex
	chunks []chunk
	free   []span // the free pieces in address order, no two adjacent
	lent   int    // buffers lent and not handed back
	bytes  int64

	high  *Bufs // the High view, once taken
	owner *Bufs // of a High view: the pool it lends from
}

// chunk is one array of the pool and how far into it, from either end,
// this execution lent — the tails that a larger request skipped and a
// smaller one took included.
type chunk struct {
	words  []uint64
	lo, hi int
}

// span is a piece: words off to off+n of chunk c.
type span struct{ c, off, n int }

// adjacent reports whether t starts where s ends.
func (s span) adjacent(t span) bool { return s.c == t.c && s.off+s.n == t.off }

// Elem is what a pool buffer holds: pointer-free elements whose sizes
// divide bufUnit, the bytes buffers are measured in.
type Elem interface {
	rdf.TermID | int32 | record | run
}

const bufUnit = 24

// High returns the view of p that lends from the top of its address
// space. Short-lived scratch (a lane's blocks and tables, handed back as
// its phase or morsel ends) is lent there and what outlives it from the
// bottom, so that the short-lived pieces, handed back, merge into one
// free run instead of holes between long-lived ones. The view shares
// p's pieces and lock; Reset and Bytes are p's.
func (p *Bufs) High() *Bufs {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.high == nil {
		p.high = &Bufs{owner: p}
	}
	return p.high
}

// pool returns the pool p lends from and whether p is its High view.
func (p *Bufs) pool() (*Bufs, bool) {
	if p.owner != nil {
		return p.owner, true
	}
	return p, false
}

// get lends a piece of units units for b's elements, b a lent piece or
// nil. It grows b where it lies when b and the free pieces either side
// of it hold the request — as low as it goes (through the High view as
// high), b's words inside the piece, so that the caller moves them with
// one overlapping copy. Otherwise it lends the first free piece in
// address order that holds the request (through the High view the
// last, from its top), and moved reports that b is still lent.
func (p *Bufs) get(b []uint64, units int) (piece []uint64, moved bool) {
	w := units * bufUnit / 8
	p, high := p.pool()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(b) > 0 {
		s := p.locate(b)
		i := p.find(s)
		r, j := s, i // b with its free neighbours, which are p.free[i:j]
		if i > 0 && p.free[i-1].adjacent(s) {
			i--
			r.off, r.n = p.free[i].off, r.n+p.free[i].n
		}
		if j < len(p.free) && s.adjacent(p.free[j]) {
			r.n += p.free[j].n
			j++
		}
		if r.n >= w {
			start := max(r.off, s.off+s.n-w)
			if high {
				start = min(r.off+r.n-w, s.off)
			}
			return p.lend(i, j, r, start, w, high), false
		}
	}
	p.lent++
	i := -1 // the first free piece that holds w words, or from the top the last
	for k := range p.free {
		j := k
		if high {
			j = len(p.free) - 1 - k
		}
		if p.free[j].n >= w {
			i = j
			break
		}
	}
	if i < 0 { // a new chunk: at least an eighth of the pool
		n := max(units, int(p.bytes/bufUnit/8), 1024) * bufUnit / 8
		p.chunks = append(p.chunks, chunk{words: make([]uint64, n)})
		p.free = append(p.free, span{len(p.chunks) - 1, 0, n})
		p.bytes += int64(n) * 8
		i = len(p.free) - 1
	}
	s := p.free[i]
	start := s.off
	if high {
		start += s.n - w
	}
	return p.lend(i, i+1, s, start, w, high), true
}

// lend lends the w words from start of r, the free stretch that
// p.free[i:j] is or borders, and files the rest of r where those were:
// no free piece borders r, so nothing merges.
func (p *Bufs) lend(i, j int, r span, start, w int, high bool) []uint64 {
	c := &p.chunks[r.c]
	if high {
		c.hi = max(c.hi, len(c.words)-start)
	} else {
		c.lo = max(c.lo, start+w)
	}
	var rest [2]span
	k := 0
	if start > r.off {
		rest[k], k = span{r.c, r.off, start - r.off}, k+1
	}
	if end := r.off + r.n; start+w < end {
		rest[k], k = span{r.c, start + w, end - start - w}, k+1
	}
	p.free = slices.Replace(p.free, i, j, rest[:k]...)
	return c.words[start : start+w : start+w]
}

// put files b among the free pieces, merged with its free neighbours.
func (p *Bufs) put(b []uint64) {
	p, _ = p.pool()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lent--
	s := p.locate(b)
	i := p.find(s)
	next := i < len(p.free) && s.adjacent(p.free[i])
	switch {
	case i > 0 && p.free[i-1].adjacent(s):
		p.free[i-1].n += s.n
		if next {
			p.free[i-1].n += p.free[i].n
			p.free = slices.Delete(p.free, i, i+1)
		}
	case next:
		p.free[i].off, p.free[i].n = s.off, s.n+p.free[i].n
	default:
		p.free = slices.Insert(p.free, i, s)
	}
}

// find returns the index of the first free piece at or after s.
func (p *Bufs) find(s span) int {
	lo, hi := 0, len(p.free)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f := p.free[m]; f.c < s.c || f.c == s.c && f.off < s.off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// locate returns the piece b is.
func (p *Bufs) locate(b []uint64) span {
	at, s := uintptr(unsafe.Pointer(unsafe.SliceData(b))), span{n: len(b)}
	for ; ; s.c++ {
		words := p.chunks[s.c].words
		if d := at - uintptr(unsafe.Pointer(unsafe.SliceData(words))); d < uintptr(len(words))*8 {
			s.off = int(d) / 8
			return s
		}
	}
}

// occupied is the words this execution occupied: of every chunk, what
// it lent from either end, the whole chunk once the ends meet.
func (p *Bufs) occupied() int {
	n := 0
	for _, c := range p.chunks {
		n += min(len(c.words), c.lo+c.hi)
	}
	return n
}

// Reset takes the pool back whole for the next execution; a buffer
// still lent would be carved again under its holder. An execution that
// ran past the pool's chunk leaves one chunk of what it occupied and an
// eighth more: in one chunk its pieces fall otherwise than across
// several, on several lanes they also vary with the interleaving, and
// each new high would otherwise allocate the whole pool again.
func (p *Bufs) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lent != 0 {
		panic(fmt.Sprintf("mapreduce: %d pool buffers outlived their execution", p.lent))
	}
	if len(p.chunks) > 1 {
		n := max(p.occupied(), len(p.chunks[0].words))
		n = (n + n/8) / 3 * 3
		clear(p.chunks)
		p.chunks, p.bytes = append(p.chunks[:0], chunk{words: make([]uint64, n)}), int64(n)*8
	}
	p.free = p.free[:0]
	for c := range p.chunks {
		p.chunks[c].lo, p.chunks[c].hi = 0, 0
		p.free = append(p.free, span{c, 0, len(p.chunks[c].words)})
	}
}

// Bytes reports the bytes the pool holds.
func (p *Bufs) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Block returns an empty block whose cells Extend draws from p (from
// the Go heap when p is nil).
func (p *Bufs) Block() Block { return Block{bufs: p} }

// Grow returns s with room for n more elements: s itself when it has
// the room, else a buffer of p — at least twice s's capacity — holding
// s's elements: s's array grown where it lies when the free pieces
// around it make room, else a new one, s's array handed back. A nil
// pool grows s as append does.
func Grow[E Elem](p *Bufs, s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	if p == nil {
		return slices.Grow(s, n)
	}
	size := int(unsafe.Sizeof(*new(E)))
	w, moved := p.get(words(s), (max(len(s)+n, 2*cap(s))*size+bufUnit-1)/bufUnit)
	t := unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8/size)[:len(s)]
	if len(s) > 0 && &t[0] != &s[0] {
		copy(t, s) // grown in place, the elements moved down: one overlapping copy
	}
	if moved {
		Free(p, s)
	}
	return t
}

// words views s's array as the pool's words.
func words[E Elem](s []E) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*int(unsafe.Sizeof(*new(E)))/8)
}

// Free hands s's array back to p and returns nil, so the position that
// held s keeps a header only. s must be what Grow returned, resliced
// from the front at most.
func Free[E Elem](p *Bufs, s []E) []E {
	if p != nil && cap(s) > 0 {
		p.put(words(s))
	}
	return nil
}
