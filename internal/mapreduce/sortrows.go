package mapreduce

import (
	"cmp"
	"slices"

	"cliquesquare/internal/rdf"
)

// SortRows is the one row sort — of the shuffle's runs (sortRuns), a
// join's inputs and the answer's parts. It puts the n rows of cells, row
// i the stride cells from i*stride, in order by key(i), then by tie(i, j)
// (nil: equal keys are equal rows), stably, in place; key and tie read
// the rows as they were when it was called. Rows already in order are
// left alone, nothing carved, and it reports false. Otherwise it sorts
// one word per row, key<<32 | row, and moves the rows along the cycles
// of that permutation: its only scratch, the words and one row, is
// carved from m, and taken back before it returns when m is an Arena.
func SortRows(cells []rdf.TermID, n, stride int, key func(i int) uint32, tie func(i, j int) int, m Mem) bool {
	for i, p := 0, uint32(0); ; i++ {
		if i == n {
			return false
		} else if q := key(i); i > 0 && (q < p || q == p && tie != nil && tie(i-1, i) > 0) {
			break
		} else {
			p = q
		}
	}
	if a, ok := m.(*Arena); ok {
		defer a.Cut(a.Used())
	}
	words, row := Carve[uint64](m, n), Carve[rdf.TermID](m, stride)
	for i := range words {
		words[i] = uint64(key(i))<<32 | uint64(i)
	}
	if tie == nil {
		slices.Sort(words)
	} else {
		slices.SortFunc(words, func(x, y uint64) int {
			if x>>32 == y>>32 {
				if c := tie(int(uint32(x)), int(uint32(y))); c != 0 {
					return c
				}
			}
			return cmp.Compare(x, y)
		})
	}
	// Row i takes the row its word names, that row the one its word names,
	// and so on round the cycle back to row i, set aside; a row put in
	// place has its word name itself.
	at := func(i int) []rdf.TermID { return cells[i*stride : (i+1)*stride] }
	for i := range words {
		if int(uint32(words[i])) == i {
			continue
		}
		copy(row, at(i))
		j := i
		for k := int(uint32(words[j])); k != i; j, k = k, int(uint32(words[k])) {
			copy(at(j), at(k))
			words[j] = uint64(j)
		}
		copy(at(j), row)
		words[j] = uint64(j)
	}
	return true
}
