package rdf

import (
	"slices"
	"sync"
)

// Graph is an in-memory RDF dataset: a dictionary plus a set of encoded
// triples. Duplicate triples are stored once.
//
// Graphs are safe for concurrent use. Mutations copy-on-write the
// triple slice where needed, so a slice obtained from Triples remains a
// stable point-in-time snapshot while writers add or remove triples.
// The zero value with a Dict set is an empty graph.
type Graph struct {
	Dict *Dict

	mu      sync.RWMutex
	triples []Triple
	// table indexes triples as a set, open-addressed with linear probing:
	// a slot holds a triple's position in triples plus one, zero when
	// free — 4 bytes where a Go map would store the triple again. Its
	// length is a power of two that keeps the load at or under 3/4.
	table []uint32
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{Dict: NewDict()}
}

// hash spreads a triple over the table.
func (t Triple) hash() uint64 {
	x := uint64(t.S)*0x9E3779B97F4A7C15 ^ uint64(t.O)*0xBF58476D1CE4E5B9 ^ uint64(t.P)*0x94D049BB133111EB
	return x ^ x>>32
}

// slot returns the table slot that holds t, with t's position in
// g.triples, or the free slot t would take, with -1. The table has a
// free slot; the caller holds mu.
func (g *Graph) slot(t Triple) (i uint64, pos int) {
	mask := uint64(len(g.table) - 1)
	for i = t.hash() & mask; ; i = (i + 1) & mask {
		if e := g.table[i]; e == 0 || g.triples[e-1] == t {
			return i, int(e) - 1
		}
	}
}

// find returns the position of t in g.triples, or -1.
func (g *Graph) find(t Triple) int {
	if len(g.table) == 0 {
		return -1
	}
	_, pos := g.slot(t)
	return pos
}

// reindex rebuilds the table over g.triples, sized for n of them.
func (g *Graph) reindex(n int) {
	size := 8
	for n*4 > size*3 {
		size <<= 1
	}
	if size == len(g.table) {
		clear(g.table)
	} else {
		g.table = make([]uint32, size)
	}
	for pos, t := range g.triples {
		i, _ := g.slot(t)
		g.table[i] = uint32(pos + 1)
	}
}

// Add inserts an encoded triple, ignoring duplicates.
// It reports whether the triple was new.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := len(g.triples) + 1; n*4 > len(g.table)*3 {
		g.reindex(n)
	}
	i, pos := g.slot(t)
	if pos >= 0 {
		return false
	}
	g.triples = append(g.triples, t)
	g.table[i] = uint32(len(g.triples))
	return true
}

// AddTerms encodes the three terms and inserts the resulting triple. Like
// Dict.Encode it panics on a hand-built Term of no known kind.
func (g *Graph) AddTerms(s, p, o Term) Triple {
	t := Triple{g.Dict.Encode(s), g.Dict.Encode(p), g.Dict.Encode(o)}
	g.Add(t)
	return t
}

// AddSPO encodes subject and property as IRIs and the object as an IRI,
// a convenience for building test and example graphs.
func (g *Graph) AddSPO(s, p, o string) Triple {
	return g.AddTerms(NewIRI(s), NewIRI(p), NewIRI(o))
}

// AddSPOLit is AddSPO with a literal object.
func (g *Graph) AddSPOLit(s, p, o string) Triple {
	return g.AddTerms(NewIRI(s), NewIRI(p), NewLiteral(o))
}

// Remove deletes one triple, reporting whether it was present. The
// insertion order of the remaining triples is preserved. Dictionary
// entries are never reclaimed.
func (g *Graph) Remove(t Triple) bool {
	return g.RemoveBatch([]Triple{t}) == 1
}

// RemoveBatch deletes every listed triple present in the graph in one
// pass, returning how many were removed. The surviving triples keep
// their insertion order, in a freshly allocated slice, so snapshots
// previously returned by Triples are unaffected (copy-on-write).
func (g *Graph) RemoveBatch(ts []Triple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var drop []int // positions of the listed triples that are present
	for _, t := range ts {
		if pos := g.find(t); pos >= 0 {
			drop = append(drop, pos)
		}
	}
	if len(drop) == 0 {
		return 0
	}
	slices.Sort(drop)
	drop = slices.Compact(drop)
	next := make([]Triple, 0, len(g.triples)-len(drop))
	from := 0
	for _, pos := range drop {
		next = append(next, g.triples[from:pos]...)
		from = pos + 1
	}
	g.triples = append(next, g.triples[from:]...)
	g.reindex(len(g.triples))
	return len(drop)
}

// Contains reports whether the graph holds the triple.
func (g *Graph) Contains(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.find(t) >= 0
}

// Len reports the number of distinct triples.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.triples)
}

// Triples returns a stable snapshot of the triples in insertion order.
// The returned slice must not be modified; it keeps reflecting the
// graph as of the call even while writers mutate the graph (removals
// rebuild the slice, appends never overwrite snapshotted elements).
func (g *Graph) Triples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.triples
}

// EachTriple calls fn for every triple whose property is prop, or for
// every triple when prop is NoTerm, in insertion order, over a snapshot
// taken at the call.
func (g *Graph) EachTriple(prop TermID, fn func(Triple)) {
	for _, t := range g.Triples() {
		if prop == NoTerm || t.P == prop {
			fn(t)
		}
	}
}
