package mapreduce

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// Bufs is the buffer pool of one execution context: every buffer of
// cells, records, run headers or row numbers an execution computes in is
// carved from the chunks of 8-byte words it keeps, viewed as the
// borrower's element type. A request takes a piece handed back earlier
// in the execution — the smallest class that holds it, split to size —
// and carves only when none does. Reset takes everything back at once,
// so the pool holds what one execution reached, however many ran: the
// hungriest one's peak, not each scratch position's largest-ever array.
// Lanes grow buffers concurrently, so the pool locks; a buffer grows
// geometrically, so the lock is off the per-row path. The zero value is
// an empty pool.
type Bufs struct {
	mu       sync.Mutex
	chunks   [][]uint64
	cur, off int            // the chunk being carved, and words carved from it
	carved   int            // words carved in this execution
	free     [64][][]uint64 // pieces handed back, by floor(log2(units))
	lent     int            // buffers lent and not handed back
	bytes    int64
}

// Elem is what a pool buffer holds: pointer-free elements whose sizes
// divide bufUnit, the bytes buffers are measured in.
type Elem interface {
	rdf.TermID | int32 | record | run
}

const bufUnit = 24

func (p *Bufs) get(units int) []uint64 {
	w := units * bufUnit / 8
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lent++
	for c := bits.Len(uint(units - 1)); c < len(p.free); c++ {
		if n := len(p.free[c]) - 1; n >= 0 {
			b := p.free[c][n]
			p.free[c] = p.free[c][:n]
			p.give(b[w:])
			return b[:w:w]
		}
	}
	for p.cur < len(p.chunks) && len(p.chunks[p.cur])-p.off < w {
		p.give(p.chunks[p.cur][p.off:])
		p.cur, p.off = p.cur+1, 0
	}
	if p.cur == len(p.chunks) { // a new chunk: at least an eighth of the pool
		n := max(units, int(p.bytes/bufUnit/8), 1024) * bufUnit / 8
		p.chunks = append(p.chunks, make([]uint64, n))
		p.bytes += int64(n) * 8
	}
	p.off, p.carved = p.off+w, p.carved+w
	return p.chunks[p.cur][p.off-w : p.off : p.off]
}

// give files a free piece under the largest power of two of units it
// holds.
func (p *Bufs) give(b []uint64) {
	if u := len(b) * 8 / bufUnit; u > 0 {
		c := bits.Len(uint(u)) - 1
		p.free[c] = append(p.free[c], b)
	}
}

func (p *Bufs) put(b []uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.give(b)
	p.lent--
}

// Reset takes the pool back whole for the next execution; a buffer
// still lent would be carved again under its holder. An execution that
// ran past the pool's chunk leaves one chunk of what it carved and an
// eighth more: on several lanes a query's carving varies by up to a few
// percent with the interleaving, and each new high would otherwise
// allocate the whole pool again.
func (p *Bufs) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lent != 0 {
		panic(fmt.Sprintf("mapreduce: %d pool buffers outlived their execution", p.lent))
	}
	for c := range p.free {
		clear(p.free[c][:cap(p.free[c])])
		p.free[c] = p.free[c][:0]
	}
	if len(p.chunks) > 1 {
		n := max(p.carved, len(p.chunks[0]))
		n = (n + n/8) / 3 * 3
		p.chunks, p.bytes = [][]uint64{make([]uint64, n)}, int64(n)*8
	}
	p.cur, p.off, p.carved = 0, 0, 0
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
// s's elements, s's array handed back. A nil pool grows s as append
// does.
func Grow[E Elem](p *Bufs, s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	if p == nil {
		return slices.Grow(s, n)
	}
	size := int(unsafe.Sizeof(*new(E)))
	w := p.get((max(len(s)+n, 2*cap(s))*size + bufUnit - 1) / bufUnit)
	t := unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8/size)[:len(s)]
	copy(t, s)
	Free(p, s)
	return t
}

// Free hands s's array back to p and returns nil, so the position that
// held s keeps a header only. s must be what Grow returned, resliced
// from the front at most.
func Free[E Elem](p *Bufs, s []E) []E {
	if p != nil && cap(s) > 0 {
		size := int(unsafe.Sizeof(*new(E)))
		p.put(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)*size/8))
	}
	return nil
}
