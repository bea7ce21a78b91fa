package index

import (
	"slices"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// EvalResult is the outcome of a local BGP evaluation: rows over Vars,
// plus the number of index entries touched (the work measure charged to
// the simulated clock by the systems using this evaluator).
type EvalResult struct {
	Vars    []string
	Rows    mapreduce.Block
	Touched int
}

// step is one pattern compiled against the variables bound before it.
// Its bound slots — constants and bound variables — lead perm, so each
// binding row looks up the run of an n-cell prefix: key's constants,
// and row[from[i]] where from[i] >= 0. A match extends the row by its
// cells add (the pattern's new variables, in s, p, o order) when each
// pair of cells in same is equal (a new variable repeated in the
// pattern). sortBy is the column of the prefix's first bound variable,
// -1 when it has none.
type step struct {
	perm    Perm
	n       int
	key     Cells
	from    [3]int
	add     []int
	same    [][2]int
	sortBy  int
	missing bool // a constant the dictionary lacks: nothing matches
}

// EvalBGP evaluates the patterns over the store with index
// nested-loop joins: patterns are processed most-bound-first, each
// binding extended through index lookups. Before a pattern's lookups
// the bindings are sorted on sortBy, so that their keys mostly ascend:
// a lookup reuses the run of an equal key before it and gallops from
// that of a lower one. Results are bags in no set order (the caller
// projects and deduplicates).
func EvalBGP(st *Store, dict *rdf.Dict, patterns []sparql.TriplePattern) *EvalResult {
	steps, vars := compile(dict, patterns)
	res := &EvalResult{Vars: vars}
	var rows, next mapreduce.Block
	rows.Extend(1, 0) // the empty binding
	for _, s := range steps {
		if s.missing {
			return res
		}
		w := rows.Width
		if c := s.sortBy; c >= 0 {
			mapreduce.SortRows(rows.Cells, rows.N, w, func(i int) uint32 { return uint32(rows.Cells[i*w+c]) }, nil, nil)
		}
		next = mapreduce.Block{Cells: next.Cells[:0]}
		key, matches, at := s.key, []Cells(nil), 0
		for i := 0; i < rows.N; i++ {
			row, prev := rows.Row(i), key
			for c, from := range s.from[:s.n] {
				if from >= 0 {
					key[c] = row[from]
				}
			}
			if c := compare(key, prev, s.n); i == 0 || c != 0 {
				if c < 0 {
					at = 0
				}
				matches, at = st.run(s.perm, key, s.n, at)
			}
			res.Touched += len(matches)
		match:
			for _, m := range matches {
				for _, eq := range s.same {
					if m[eq[0]] != m[eq[1]] {
						continue match
					}
				}
				out := next.Extend(1, w+len(s.add))
				copy(out, row)
				for k, c := range s.add {
					out[w+k] = m[c]
				}
			}
		}
		if rows, next = next, rows; rows.N == 0 {
			return res
		}
	}
	res.Rows = rows
	return res
}

// compile orders the patterns most-bound-first — constants and
// variables bound by the patterns before count alike, the earliest of
// equals first — and compiles each against the variables bound before
// it. vars are the result's columns: each pattern's new variables, in
// s, p, o order.
func compile(dict *rdf.Dict, patterns []sparql.TriplePattern) (steps []step, vars []string) {
	left := slices.Clone(patterns)
	for len(left) > 0 {
		best, bestScore := 0, -1
		for i, tp := range left {
			score := 0
			for _, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
				if !pt.IsVar || slices.Contains(vars, pt.Var) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		var s step
		s, vars = compileStep(dict, left[best], vars)
		steps = append(steps, s)
		left = slices.Delete(left, best, best+1)
	}
	return steps, vars
}

// compileStep compiles tp against the bound variables vars, the columns
// of a binding row, and returns vars extended by tp's new variables.
func compileStep(dict *rdf.Dict, tp sparql.TriplePattern, vars []string) (step, []string) {
	var s step
	var bound [3]bool
	ids, cols := [3]rdf.TermID{}, [3]int{-1, -1, -1}
	for pos, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
		if !pt.IsVar {
			id, ok := dict.Lookup(pt.Term)
			bound[pos], ids[pos], s.missing = true, id, s.missing || !ok
		} else if c := slices.Index(vars, pt.Var); c >= 0 {
			bound[pos], cols[pos] = true, c
		}
	}
	s.perm, s.sortBy = choosePerm(bound[0], bound[1], bound[2]), -1
	for _, pos := range s.perm.order() {
		if !bound[pos] {
			break
		}
		s.key[s.n], s.from[s.n] = ids[pos], cols[pos]
		if s.sortBy < 0 {
			s.sortBy = cols[pos]
		}
		s.n++
	}
	w := len(vars)
	for pos, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
		if bound[pos] {
			continue
		}
		c := s.perm.cell(rdf.Pos(pos))
		if k := slices.Index(vars[w:], pt.Var); k >= 0 {
			s.same = append(s.same, [2]int{s.add[k], c})
		} else {
			vars = append(vars, pt.Var)
			s.add = append(s.add, c)
		}
	}
	return s, vars
}
