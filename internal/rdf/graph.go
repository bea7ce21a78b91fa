package rdf

import "sync"

// Graph is an in-memory RDF dataset: a dictionary plus a set of encoded
// triples. Duplicate triples are stored once.
//
// Graphs are safe for concurrent use. Mutations copy-on-write the
// triple slice where needed, so a slice obtained from Triples remains a
// stable point-in-time snapshot while writers add or remove triples.
type Graph struct {
	Dict *Dict

	mu      sync.RWMutex
	triples []Triple
	seen    map[Triple]struct{}
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{Dict: NewDict(), seen: make(map[Triple]struct{})}
}

// Add inserts an encoded triple, ignoring duplicates.
// It reports whether the triple was new.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.seen[t]; dup {
		return false
	}
	g.seen[t] = struct{}{}
	g.triples = append(g.triples, t)
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
	del := make(map[Triple]struct{}, len(ts))
	for _, t := range ts {
		if _, ok := g.seen[t]; ok {
			del[t] = struct{}{}
		}
	}
	if len(del) == 0 {
		return 0
	}
	next := make([]Triple, 0, len(g.triples)-len(del))
	for _, t := range g.triples {
		if _, drop := del[t]; drop {
			delete(g.seen, t)
			continue
		}
		next = append(next, t)
	}
	g.triples = next
	return len(del)
}

// Contains reports whether the graph holds the triple.
func (g *Graph) Contains(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.seen[t]
	return ok
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
