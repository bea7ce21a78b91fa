package rdf

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// TermID is a dense integer identifier for a term, assigned by a Dict.
// ID 0 is never assigned; it is reserved as "no term".
type TermID uint32

// NoTerm is the zero TermID, never assigned to a real term.
const NoTerm TermID = 0

// The id → term side of a Dict is a span per id, in fixed-size chunks,
// over pages of rendered terms; neither ever moves once written.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
	pageBits  = 16
	pageLen   = 1 << pageBits
)

var maxPages = 1 << (32 - pageBits) // what a span addresses: 4 GiB; tests lower it

type span struct{ addr, n uint32 } // n bytes at page addr>>pageBits, offset addr&(pageLen-1)

type chunk [chunkLen]span

// probeLen is the stack buffer a probe renders its key into; a longer
// term spills to the heap and costs the probe one allocation.
const probeLen = 128

// Dict is a bidirectional dictionary between terms and TermIDs. It
// holds each term once, in its rendered N-Triples form (what
// Term.String returns), copied into a page it never modifies (a term
// longer than a page gets one of its own) and found by an 8-byte span:
// those bytes are what the term → id table compares a probe against,
// the string Rendered hands out and the backing of the Value that Term
// returns.
//
// It is safe for concurrent use, and resolving an id takes no lock:
// writers (Encode of a new term, Install) are serialised by mu, write
// the term's bytes and span, growing the directories as needed, and
// only then store the new term count; a reader that loads a count
// covering id therefore sees them all. The zero value is not usable;
// construct with NewDict.
type Dict struct {
	mu sync.RWMutex
	// table is the rendered form → id side, open-addressed with linear
	// probing over the hash of the rendered bytes: a slot holds an id
	// (NoTerm when free) and a probe is compared against Rendered(id), so
	// the pages are the only copy of a key. A power of two long, load at
	// or under 3/4. Guarded by mu.
	table []TermID
	seed  maphash.Seed

	// Span id-1 is (*dir)[(id-1)>>chunkBits][(id-1)&(chunkLen-1)]; terms
	// go into page npages-1, used bytes of it taken (both under mu).
	pages        atomic.Pointer[[][]byte]
	dir          atomic.Pointer[[]*chunk]
	npages, used int
	n            atomic.Uint32 // ids 1..n are assigned and readable
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newDict(64) }

// newDict returns an empty dictionary whose table starts at slots, a
// power of two.
func newDict(slots int) *Dict {
	d := &Dict{table: make([]TermID, slots), seed: maphash.MakeSeed(), used: pageLen}
	d.pages.Store(new([][]byte))
	d.dir.Store(new([]*chunk))
	return d
}

// put sets entry i of the directory p points to, doubling it first when
// i is past its end: entries are set once, before a reader can reach
// them.
func put[T any](p *atomic.Pointer[[]T], i int, v T) {
	s := *p.Load()
	if i == len(s) {
		grown := make([]T, max(2*len(s), 16))
		copy(grown, s)
		s = grown
		p.Store(&grown)
	}
	s[i] = v
}

// find returns the id filed under the rendered form k, whose hash is h,
// or NoTerm. The caller holds mu.
func (d *Dict) find(k []byte, h uint64) TermID {
	mask := uint64(len(d.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := d.table[i]
		if id == NoTerm || d.Rendered(id) == string(k) {
			return id
		}
	}
}

// file puts id, which the table does not hold yet, in the first free
// slot of the probe sequence of hash h.
func (d *Dict) file(id TermID, h uint64) {
	mask := uint64(len(d.table) - 1)
	i := h & mask
	for d.table[i] != NoTerm {
		i = (i + 1) & mask
	}
	d.table[i] = id
}

// Encode returns the ID for t, assigning a fresh one if t is new. It
// panics on a term of no known kind (see KindError): the doors that
// take terms from outside the program — the facade's ApplyBatch,
// Install, the WAL reader — have already refused it with an error. It
// also panics once the term bytes pass 4 GiB, where Install errs.
func (d *Dict) Encode(t Term) TermID {
	if err := t.Check(); err != nil {
		panic(err)
	}
	var buf [probeLen]byte
	k := t.AppendRendered(buf[:0])
	h := maphash.Bytes(d.seed, k)
	d.mu.RLock()
	id := d.find(k, h)
	d.mu.RUnlock()
	if id != NoTerm {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id = d.find(k, h); id != NoTerm {
		return id
	}
	id, err := d.add(k, h)
	if err != nil {
		panic(err)
	}
	return id
}

// add copies the rendered term k, whose hash is h, into the pages under
// the next free id. The caller holds mu for writing. The count is
// stored last: it publishes the entry to lock-free readers. A table past
// its load doubles first, re-filed from the pages.
func (d *Dict) add(k []byte, h uint64) (TermID, error) {
	if len(k) > pageLen-d.used { // the next page, of its own if k is long
		if d.npages == maxPages || uint64(len(k)) > math.MaxUint32 {
			return NoTerm, fmt.Errorf("rdf: dictionary full: %d pages of term bytes, a %d-byte term refused", d.npages, len(k))
		}
		put(&d.pages, d.npages, make([]byte, max(len(k), pageLen)))
		d.npages, d.used = d.npages+1, 0
	}
	page, off := d.npages-1, d.used
	d.used += copy((*d.pages.Load())[page][off:], k)
	n := d.n.Load()
	if n&(chunkLen-1) == 0 {
		put(&d.dir, int(n>>chunkBits), new(chunk))
	}
	(*d.dir.Load())[n>>chunkBits][n&(chunkLen-1)] = span{uint32(page<<pageBits | off), uint32(len(k))}
	id := TermID(n + 1)
	if int(id)*4 > len(d.table)*3 {
		d.table = make([]TermID, 2*len(d.table))
		for old := TermID(1); old < id; old++ {
			d.file(old, maphash.String(d.seed, d.Rendered(old)))
		}
	}
	d.file(id, h)
	d.n.Store(n + 1)
	return id, nil
}

// Lookup returns the ID for t if it has been encoded. A present term,
// or an absent one whose rendered form fits the probe buffer, costs no
// allocation.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	if t.Kind > Blank {
		return NoTerm, false
	}
	var buf [probeLen]byte
	k := t.AppendRendered(buf[:0])
	h := maphash.Bytes(d.seed, k)
	d.mu.RLock()
	id := d.find(k, h)
	d.mu.RUnlock()
	return id, id != NoTerm
}

// Rendered returns the N-Triples form of the term for id — exactly
// Term(id).String() — without allocating: the string is a view of a
// page, whose bytes never change once the id is published. It panics
// if id was never assigned.
func (d *Dict) Rendered(id TermID) string {
	i := uint32(id) - 1 // NoTerm wraps past any count
	if i >= d.n.Load() {
		panic(fmt.Sprintf("rdf: dictionary has no term with id %d", id))
	}
	s := (*d.dir.Load())[i>>chunkBits][i&(chunkLen-1)]
	off := s.addr & (pageLen - 1)
	b := (*d.pages.Load())[s.addr>>pageBits][off : off+s.n]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Term returns the term for id; its Value shares the dictionary's
// bytes. It panics if id was never assigned.
func (d *Dict) Term(id TermID) Term { return parseRendered(d.Rendered(id)) }

// Bytes is the memory the dictionary holds, from the capacities of its
// pages, chunks, directories and id table.
func (d *Dict) Bytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	pages, dir := *d.pages.Load(), *d.dir.Load()
	b := 4*len(d.table) + 24*cap(pages) + 8*cap(dir) + int(unsafe.Sizeof(chunk{}))*int((d.n.Load()+chunkLen-1)/chunkLen)
	for _, p := range pages {
		b += cap(p)
	}
	return int64(b)
}

// Len reports the number of distinct terms encoded.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Install assigns id to t during WAL replay. IDs must arrive densely:
// id is either already assigned (then t must match what it maps to —
// the call is an idempotent no-op, as when a checkpoint and the first
// records after it overlap) or exactly the next free ID. Anything else
// means the log disagrees with the dictionary being rebuilt. A term of
// no known kind is refused with a *KindError.
func (d *Dict) Install(id TermID, t Term) error {
	if err := t.Check(); err != nil {
		return fmt.Errorf("rdf: install id %d: %w", id, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	next := TermID(d.n.Load()) + 1
	switch {
	case id == NoTerm:
		return fmt.Errorf("rdf: install of reserved id 0 (%v)", t)
	case id < next:
		if got := d.Term(id); got != t {
			return fmt.Errorf("rdf: install id %d: already %v, log says %v", id, got, t)
		}
		return nil
	case id == next:
		var buf [probeLen]byte
		k := t.AppendRendered(buf[:0])
		_, err := d.add(k, maphash.Bytes(d.seed, k))
		return err
	default:
		return fmt.Errorf("rdf: install id %d leaves a gap (next free is %d)", id, next)
	}
}

// TermsAfter returns the terms with IDs greater than after, in ID
// order (so TermsAfter(0) is the whole dictionary and the first
// returned term has ID after+1). The WAL logs exactly this slice with
// each batch so recovery can reproduce ID assignment.
func (d *Dict) TermsAfter(after TermID) []Term {
	n := TermID(d.n.Load())
	if after >= n {
		return nil
	}
	out := make([]Term, 0, n-after)
	for id := after + 1; id <= n; id++ {
		out = append(out, d.Term(id))
	}
	return out
}

// EncodeIRI is shorthand for Encode(NewIRI(v)).
func (d *Dict) EncodeIRI(v string) TermID { return d.Encode(NewIRI(v)) }
