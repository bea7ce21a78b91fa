package physical

import (
	"sort"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// relation is a local (per-node or per-group) set of rows under a
// column schema of variable names: a flat block whose width is the
// schema's length. The cells belong to whoever filled the block — an
// arena, a range slot, the context's intermediate table — and a
// relation value is a view of them. A join reads its inputs in order of
// its first attribute, and sorts one that is not in that order in
// place: a join input's cells are the join's to reorder.
type relation struct {
	schema []string
	mapreduce.Block
}

// col returns the column index of attribute a, or -1.
func (r *relation) col(a string) int {
	for i, s := range r.schema {
		if s == a {
			return i
		}
	}
	return -1
}

// appendCols appends the column indexes of attrs to buf: the hoisted
// form of per-row col() scans — resolved once per relation, then used
// for every row.
func (r *relation) appendCols(buf []int, attrs []string) []int {
	for _, a := range attrs {
		buf = append(buf, r.col(a))
	}
	return buf
}

// joinCounts is the work accounting a join reports back to its caller:
// tuples processed (inputs) and produced (outputs).
type joinCounts struct {
	in, out int
}

// naryJoinInto computes the n-ary equality join of children on
// joinAttrs, additionally enforcing equality on every attribute shared
// by two or more children (the folded residual selection), and appends
// the output rows' cells — written directly in attrs column order,
// fusing the post-join projection — to dst. It is a merge on the first
// join attribute: every child is read in order of that column (a child
// out of order is first sorted stably in place, sortOn), a cursor per
// child, and the cursor behind the greatest key advances until all of
// them stand on one key; the runs of that key then combine, child 0's
// outermost. Further join attributes are residual checks. A child whose
// rows arrive in key order — every stored file is sorted on its placed
// cell — keeps its order, so with child 0 sorted the rows come out as a
// stream of child 0 probing the others would emit them. With no join
// attribute, or one child, every child is one run. The column sources
// and checks come from the arena's join-plan memo (they depend only on
// the child schemas and attrs, which repeat across the thousands of
// per-group joins of one reduce phase). With size set, a first pass
// counts the output rows and carves dst's room once for them all; it
// meters nothing. A nil dst only counts: out is that count. Without
// size, dst must have the room already, or its rows come from the Go
// heap.
func (a *arena) naryJoinInto(dst *mapreduce.Block, children []relation, joinAttrs, attrs []string, size bool) joinCounts {
	var counts joinCounts
	empty := len(children) == 0
	for i := range children {
		counts.in += children[i].N
		empty = empty || children[i].N == 0
	}
	if empty {
		return counts
	}
	jp := a.joinPlanFor(children, joinAttrs, attrs)
	nc := len(children)
	a.grow(nc)
	merge := len(joinAttrs) > 0 && nc > 1
	if merge {
		for i := range children {
			a.sortOn(&children[i], jp.keyCols[i])
		}
	}

	// at[i] is where, in child i's cells, the row of the combination
	// being enumerated starts; lo[i]:hi[i] is child i's run of the
	// current key. Rows go to out, dst's header copied to the stack: no
	// lane shares its cache line.
	at, lo, hi := a.at[:nc], a.lo[:nc], a.hi[:nc]
	var out mapreduce.Block
	counting := true // a first pass counts the rows; the last writes them
	emit := func() {
		for _, c := range jp.checks {
			if children[c.aChild].Cells[at[c.aChild]+c.aCol] != children[c.bChild].Cells[at[c.bChild]+c.bCol] {
				return
			}
		}
		if counts.out++; !counting {
			row := out.Extend(1, len(attrs))
			for i := range row {
				row[i] = children[jp.srcChild[i]].Cells[at[jp.srcChild[i]]+jp.srcCol[i]]
			}
		}
	}
	// each calls fn once per key every child holds, in key order, with
	// lo and hi bounding the children's runs of it.
	each := func(fn func()) {
		clear(hi)
		if !merge {
			for i := range children {
				lo[i], hi[i] = 0, children[i].N
			}
			fn()
			return
		}
		for {
			var k rdf.TermID
			for i := 0; i < nc; {
				c, col := &children[i], jp.keyCols[i]
				r := hi[i]
				for r < c.N && c.Cells[r*c.Width+col] < k {
					r++
				}
				if r == c.N {
					return
				}
				lo[i], hi[i] = r, r
				if v := c.Cells[r*c.Width+col]; v > k {
					if k = v; i > 0 {
						i = 0 // the children before i stand on a lesser key
						continue
					}
				}
				i++
			}
			for i := range children {
				c, col := &children[i], jp.keyCols[i]
				for hi[i] < c.N && c.Cells[hi[i]*c.Width+col] == k {
					hi[i]++
				}
			}
			fn()
		}
	}
	combineAll := func() { combine(children, lo, hi, 0, at, emit) }
	if size || dst == nil {
		if len(jp.checks) == 0 { // every combination is a row
			each(func() {
				k := 1
				for i := range lo {
					k *= hi[i] - lo[i]
				}
				counts.out += k
			})
		} else {
			each(combineAll)
		}
		if dst == nil {
			return counts
		}
		dst.Reserve(counts.out, len(attrs))
	}
	counting, counts.out, out = false, 0, *dst
	each(combineAll)
	*dst = out
	return counts
}

// combine enumerates the cross product of the runs lo[i:]:hi[i:] of
// children[i:], filling at in place and invoking fn for each full
// combination (at[:i] is already set by the caller).
func combine(children []relation, lo, hi []int, i int, at []int, fn func()) {
	if i == len(children) {
		fn()
		return
	}
	w := children[i].Width
	for r := lo[i]; r < hi[i]; r++ {
		at[i] = r * w
		combine(children, lo, hi, i+1, at, fn)
	}
}

// sortOn puts rel's rows in order of column col, stably and in place,
// unless one pass finds them in order already; a.sorts counts the
// relations it had to sort. A relation out of order arrives as a few
// ascending runs (a variable-property scan reads one sorted file after
// another), so adjacent runs are merged pairwise, a pass at a time,
// through room of the relation's size carved from the lane's arena and
// taken back at once; a tie takes the earlier run's row, which keeps
// the order sort.Stable would.
func (a *arena) sortOn(rel *relation, col int) {
	w, n := rel.Width, rel.N
	if runEnd(rel.Cells, w, col, 0, n) == n {
		return
	}
	a.sorts++
	mark := a.mem.Used()
	src, dst := rel.Cells[:n*w], mapreduce.Carve[rdf.TermID](a.mem, n*w)
	for merged := false; !merged; src, dst = dst, src {
		for lo := 0; lo < n; {
			mid := runEnd(src, w, col, lo, n)
			hi := runEnd(src, w, col, mid, n)
			mergeRuns(dst, src, w, col, lo, mid, hi)
			merged, lo = lo == 0 && hi == n, hi
		}
	}
	if &src[0] != &rel.Cells[0] {
		copy(rel.Cells, src)
	}
	a.mem.Cut(mark)
}

// runEnd is where the ascending run of column col that starts at row lo
// ends: the first row below the one before it, or n.
func runEnd(cells []rdf.TermID, w, col, lo, n int) int {
	r := min(lo+1, n)
	for r < n && cells[r*w+col] >= cells[(r-1)*w+col] {
		r++
	}
	return r
}

// mergeRuns merges src's ascending runs [lo, mid) and [mid, hi) into
// dst's rows lo to hi-1, the earlier run's row first on a tie.
func mergeRuns(dst, src []rdf.TermID, w, col, lo, mid, hi int) {
	i, j, k := lo, mid, lo*w
	for i < mid && j < hi {
		if src[j*w+col] < src[i*w+col] {
			k += copy(dst[k:], src[j*w:(j+1)*w])
			j++
		} else {
			k += copy(dst[k:], src[i*w:(i+1)*w])
			i++
		}
	}
	k += copy(dst[k:], src[i*w:mid*w])
	copy(dst[k:], src[j*w:hi*w])
}

// unionSchema returns the sorted union of the children's schemas.
func unionSchema(children []relation) []string {
	seen := make(map[string]bool)
	for i := range children {
		for _, a := range children[i].schema {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// columnSources picks, for every output column, the first child (and
// column within it) providing that attribute.
func columnSources(schema []string, children []relation) (srcChild, srcCol []int) {
	srcChild = make([]int, len(schema))
	srcCol = make([]int, len(schema))
	for i, a := range schema {
		for ci := range children {
			if c := children[ci].col(a); c >= 0 {
				srcChild[i], srcCol[i] = ci, c
				break
			}
		}
	}
	return srcChild, srcCol
}

type eqCheck struct {
	aChild, aCol, bChild, bCol int
}

// residualChecks builds the equality checks for attributes provided by
// several children: each extra provider must agree with the primary
// source.
func residualChecks(schema []string, children []relation, srcChild, srcCol []int) []eqCheck {
	var checks []eqCheck
	for i, a := range schema {
		for ci := range children {
			if ci == srcChild[i] {
				continue
			}
			if c := children[ci].col(a); c >= 0 {
				checks = append(checks, eqCheck{srcChild[i], srcCol[i], ci, c})
			}
		}
	}
	return checks
}
