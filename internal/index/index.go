// Package index provides sorted six-permutation triple indexes (in the
// style of RDF-3X / H2RDF+'s HBase index tables) plus a local
// index-nested-loop BGP evaluator. The SHAPE and H2RDF+ comparison
// systems (Section 6.4) rely on indexed local access; this package is
// their storage substrate.
package index

import (
	"sort"

	"cliquesquare/internal/rdf"
)

// Perm identifies one of the six orderings of triple components.
type Perm uint8

// The six permutations.
const (
	SPO Perm = iota
	SOP
	PSO
	POS
	OSP
	OPS
)

// order returns the component order of the permutation as positions.
func (p Perm) order() [3]rdf.Pos {
	switch p {
	case SPO:
		return [3]rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos}
	case SOP:
		return [3]rdf.Pos{rdf.SPos, rdf.OPos, rdf.PPos}
	case PSO:
		return [3]rdf.Pos{rdf.PPos, rdf.SPos, rdf.OPos}
	case POS:
		return [3]rdf.Pos{rdf.PPos, rdf.OPos, rdf.SPos}
	case OSP:
		return [3]rdf.Pos{rdf.OPos, rdf.SPos, rdf.PPos}
	default:
		return [3]rdf.Pos{rdf.OPos, rdf.PPos, rdf.SPos}
	}
}

// Store holds the six sorted copies of a triple set.
type Store struct {
	perms [6][]rdf.Triple
}

// Build sorts the triples into all six permutations.
func Build(triples []rdf.Triple) *Store {
	st := &Store{}
	for p := SPO; p <= OPS; p++ {
		cp := append([]rdf.Triple(nil), triples...)
		ord := p.order()
		sort.Slice(cp, func(i, j int) bool {
			for _, pos := range ord {
				a, b := cp[i].At(pos), cp[j].At(pos)
				if a != b {
					return a < b
				}
			}
			return false
		})
		st.perms[p] = cp
	}
	return st
}

// Len reports the number of triples (per permutation).
func (st *Store) Len() int { return len(st.perms[SPO]) }

// Lookup returns the triples matching the bound components (0 = free),
// using the permutation whose prefix is exactly the bound positions, so
// the sorted range of that prefix is the answer: the scan touches only
// matching triples plus O(log n) search. Touched reports how many
// triples the scan visited (== len(result)).
func (st *Store) Lookup(s, p, o rdf.TermID) (result []rdf.Triple, touched int) {
	perm := choosePerm(s != 0, p != 0, o != 0)
	data := st.perms[perm]
	ord := perm.order()
	want := func(pos rdf.Pos) rdf.TermID {
		switch pos {
		case rdf.SPos:
			return s
		case rdf.PPos:
			return p
		default:
			return o
		}
	}
	// Number of bound leading components in this permutation.
	bound := 0
	for _, pos := range ord {
		if want(pos) == 0 {
			break
		}
		bound++
	}
	lo := sort.Search(len(data), func(i int) bool {
		return cmpPrefix(data[i], ord, want, bound) >= 0
	})
	hi := sort.Search(len(data), func(i int) bool {
		return cmpPrefix(data[i], ord, want, bound) > 0
	})
	return data[lo:hi], hi - lo
}

func cmpPrefix(t rdf.Triple, ord [3]rdf.Pos, want func(rdf.Pos) rdf.TermID, bound int) int {
	for i := 0; i < bound; i++ {
		a, b := t.At(ord[i]), want(ord[i])
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
	}
	return 0
}

// choosePerm picks a permutation whose first components are exactly the
// bound ones, in some order.
func choosePerm(s, p, o bool) Perm {
	switch {
	case s && p:
		return SPO
	case s && o:
		return SOP
	case p && o:
		return POS
	case s:
		return SPO
	case p:
		return PSO
	case o:
		return OSP
	default:
		return SPO
	}
}
