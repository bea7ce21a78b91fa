// Package index provides sorted three-permutation triple indexes (in
// the style of RDF-3X / H2RDF+'s HBase index tables) plus a local
// index-nested-loop BGP evaluator. The SHAPE and H2RDF+ comparison
// systems (Section 6.4) rely on indexed local access; this package is
// their storage substrate.
//
// A Store keeps the cyclic orders SPO, POS and OSP only: every set of
// bound positions leads one of them, so any lookup is the sorted run of
// its bound prefix. Each copy holds its triples' cells in its own
// order, compared cell by cell.
package index

import (
	"slices"

	"cliquesquare/internal/rdf"
)

// Perm identifies one of the three cyclic orderings of triple
// components by its leading position: SPO, POS or OSP.
type Perm uint8

// The three permutations.
const (
	SPO Perm = Perm(rdf.SPos)
	POS Perm = Perm(rdf.PPos)
	OSP Perm = Perm(rdf.OPos)
)

// Cells is a triple's terms in the order of the permutation holding it.
type Cells [3]rdf.TermID

// order returns the component order of the permutation as positions.
func (p Perm) order() [3]rdf.Pos {
	return [3]rdf.Pos{rdf.Pos(p), rdf.Pos(p+1) % 3, rdf.Pos(p+2) % 3}
}

// cell returns the index of position pos in the permutation's cells.
func (p Perm) cell(pos rdf.Pos) int { return (int(pos) + 3 - int(p)) % 3 }

// Triple returns the triple whose cells in p's order are c.
func (p Perm) Triple(c Cells) rdf.Triple {
	return rdf.Triple{S: c[p.cell(rdf.SPos)], P: c[p.cell(rdf.PPos)], O: c[p.cell(rdf.OPos)]}
}

// Store holds the three sorted copies of a triple set.
type Store struct {
	perms [3][]Cells
}

// Build sorts the triples into the three permutations.
func Build(triples []rdf.Triple) *Store {
	st := &Store{}
	for p := range st.perms {
		ord, rows := Perm(p).order(), make([]Cells, len(triples))
		for i, t := range triples {
			rows[i] = Cells{t.At(ord[0]), t.At(ord[1]), t.At(ord[2])}
		}
		slices.SortFunc(rows, func(a, b Cells) int { return compare(a, b, 3) })
		st.perms[p] = rows
	}
	return st
}

// Len reports the number of triples (per permutation).
func (st *Store) Len() int { return len(st.perms[SPO]) }

// Lookup returns the triples matching the bound components (NoTerm is
// free) as the cells of perm, the permutation whose prefix is exactly
// the bound positions: the sorted run of that prefix is the answer, so
// the scan touches only matching triples plus O(log n) search.
func (st *Store) Lookup(s, p, o rdf.TermID) (perm Perm, rows []Cells) {
	perm = choosePerm(s != rdf.NoTerm, p != rdf.NoTerm, o != rdf.NoTerm)
	t, key, n := rdf.Triple{S: s, P: p, O: o}, Cells{}, 0
	for _, pos := range perm.order() {
		if key[n] = t.At(pos); key[n] == rdf.NoTerm {
			break
		}
		n++
	}
	rows, _ = st.run(perm, key, n, 0)
	return perm, rows
}

// EachTriple calls fn for every stored triple whose property is prop —
// the run of prop in POS — or for every stored triple when prop is
// NoTerm, which makes a Store a cost.Source.
func (st *Store) EachTriple(prop rdf.TermID, fn func(rdf.Triple)) {
	perm, rows := st.Lookup(rdf.NoTerm, prop, rdf.NoTerm)
	for _, c := range rows {
		fn(perm.Triple(c))
	}
}

// run returns the rows of perm whose first n cells are key's, and where
// they start. The rows before from must be below key: a lookup that
// follows one of a lower key starts where that one did.
func (st *Store) run(perm Perm, key Cells, n, from int) ([]Cells, int) {
	rows := st.perms[perm]
	lo := search(rows, from, key, n, false)
	return rows[lo:search(rows, lo, key, n, true)], lo
}

// search returns the first row at or after from whose n-cell prefix is
// at least key, or past it when past is set. It gallops from from, so
// it probes few rows when the answer is near.
func search(rows []Cells, from int, key Cells, n int, past bool) int {
	below := func(i int) bool { c := compare(rows[i], key, n); return c < 0 || past && c == 0 }
	lo, hi := from, from
	for step := 1; hi < len(rows) && below(hi); step *= 2 {
		lo, hi = hi+1, min(hi+step, len(rows))
	}
	for lo < hi { // rows before lo are below, the one at hi is not
		if m := int(uint(lo+hi) >> 1); below(m) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// compare orders a and b by their first n cells.
func compare(a, b Cells, n int) int {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// choosePerm picks the permutation whose leading components are exactly
// the bound ones, in some order.
func choosePerm(s, p, o bool) Perm {
	switch {
	case p && !s: // p, or p and o
		return POS
	case o && !p: // o, or o and s
		return OSP
	default: // none, s, s and p, or all three
		return SPO
	}
}
