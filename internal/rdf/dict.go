package rdf

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// TermID is a dense integer identifier for a term, assigned by a Dict.
// ID 0 is never assigned; it is reserved as "no term".
type TermID uint32

// NoTerm is the zero TermID, never assigned to a real term.
const NoTerm TermID = 0

// The id → term side of a Dict is an append-only slab cut into
// fixed-size chunks, so an entry never moves once written and growing
// the dictionary never copies one.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
)

type chunk [chunkLen]string

// probeLen is the stack buffer a probe renders its key into; a longer
// term spills to the heap and costs the probe one allocation.
const probeLen = 128

// Dict is a bidirectional dictionary between terms and TermIDs. It
// holds each term once, in its rendered N-Triples form (what
// Term.String returns): that one string is what the term → id table
// compares a probe against, the value Rendered hands out and the
// backing of the Value that Term returns.
//
// It is safe for concurrent use, and resolving an id takes no lock:
// writers (Encode of a new term, Install) are serialised by mu, write
// the entry into the slab, swap in a longer chunk directory when the
// last chunk is full and only then store the new term count; a reader
// that loads a count covering id therefore sees both the directory and
// the entry. The zero value is not usable; construct with NewDict.
type Dict struct {
	mu sync.RWMutex
	// table is the rendered form → id side, open-addressed with linear
	// probing over the hash of the rendered bytes: a slot holds an id
	// (NoTerm when free) and a probe is compared against Rendered(id), so
	// the slab is the only copy of a key. A power of two long, load at or
	// under 3/4. Guarded by mu.
	table []TermID
	seed  maphash.Seed

	dir atomic.Pointer[[]*chunk] // entry id-1 is (*dir)[(id-1)>>chunkBits][(id-1)&(chunkLen-1)]
	n   atomic.Uint32            // ids 1..n are assigned and readable
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newDict(64) }

// newDict returns an empty dictionary whose table starts at slots, a
// power of two.
func newDict(slots int) *Dict {
	d := &Dict{table: make([]TermID, slots), seed: maphash.MakeSeed()}
	d.dir.Store(new([]*chunk))
	return d
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
// Install, the WAL reader — have already refused it with an error.
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
	return d.add(string(k), h)
}

// add appends the rendered term s, whose hash is h, under the next free
// id. The caller holds mu for writing. The count is stored last: it is
// what publishes the entry (and a grown directory) to lock-free readers.
// A table past its load doubles first, re-filed from the slab.
func (d *Dict) add(s string, h uint64) TermID {
	n := d.n.Load()
	dir := *d.dir.Load()
	if int(n>>chunkBits) == len(dir) {
		grown := make([]*chunk, len(dir)+1)
		copy(grown, dir)
		grown[len(dir)] = new(chunk)
		d.dir.Store(&grown)
		dir = grown
	}
	dir[n>>chunkBits][n&(chunkLen-1)] = s
	id := TermID(n + 1)
	if int(id)*4 > len(d.table)*3 {
		d.table = make([]TermID, 2*len(d.table))
		for old := TermID(1); old < id; old++ {
			d.file(old, maphash.String(d.seed, d.Rendered(old)))
		}
	}
	d.file(id, h)
	d.n.Store(n + 1)
	return id
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
// Term(id).String() — without allocating: the string is the
// dictionary's own and is never modified. It panics if id was never
// assigned.
func (d *Dict) Rendered(id TermID) string {
	i := uint32(id) - 1 // NoTerm wraps past any count
	if i >= d.n.Load() {
		panic(fmt.Sprintf("rdf: dictionary has no term with id %d", id))
	}
	return (*d.dir.Load())[i>>chunkBits][i&(chunkLen-1)]
}

// Term returns the term for id; its Value shares the dictionary's
// bytes. It panics if id was never assigned.
func (d *Dict) Term(id TermID) Term { return parseRendered(d.Rendered(id)) }

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
		s := t.String()
		d.add(s, maphash.String(d.seed, s))
		return nil
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

// EncodeLiteral is shorthand for Encode(NewLiteral(v)).
func (d *Dict) EncodeLiteral(v string) TermID { return d.Encode(NewLiteral(v)) }
