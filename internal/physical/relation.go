package physical

import (
	"sort"

	"cliquesquare/internal/mapreduce"
)

// relation is a local (per-node or per-group) set of rows under a
// column schema of variable names: a flat block whose width is the
// schema's length. The cells belong to whoever filled the block — an
// arena, a range slot, the context's intermediate table — and a
// relation value is a view of them.
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
// fusing the post-join projection — to dst. Every child but the first
// is indexed in an arena-owned open-addressing joinTable keyed directly
// on the rows' join cells (no per-row key string) and listing row
// numbers; the first child's rows stream through, probing each table
// with one precomputed hash. The column sources and residual checks
// come from the arena's join-plan memo (they depend only on the child
// schemas and attrs, which repeat across the thousands of per-group
// joins of one reduce phase). With size set, a first pass counts the
// output rows and carves dst's room once for them all; it meters
// nothing. A nil dst only counts: out is that count. Without size, dst
// must have the room already, or its rows come from the Go heap.
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

	// Resolve join-key columns once per child.
	for i := range children {
		a.colIdx[i] = children[i].appendCols(a.colIdx[i][:0], joinAttrs)
	}
	for i := 1; i < nc; i++ {
		a.tables[i].build(a.mem, children[i].Block, a.colIdx[i])
	}

	// Stream the first child: every row whose key is present in all
	// other children produces the consistent combinations of the
	// per-child groups. at[i] is where, in child i's cells, the row of
	// the combination being enumerated starts. Rows go to out, dst's
	// header copied to the stack: no lane shares its cache line.
	at, lists := a.at[:nc], a.lists[:nc]
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
	c0, cols0 := &children[0], a.colIdx[0]
	// each probes every other child's table with each row of the first
	// and calls fn with the rows matching in all of them, lists filled.
	each := func(fn func(r int)) {
	rows:
		for r := 0; r < c0.N; r++ {
			row0 := c0.Row(r)
			h := hashRowKey(row0, cols0)
			for i := 1; i < nc; i++ {
				if lists[i] = a.tables[i].probe(row0, cols0, h); lists[i] == nil {
					continue rows
				}
			}
			fn(r)
		}
	}
	combineAll := func(r int) {
		at[0] = r * c0.Width
		combine(children, lists, 1, at, emit)
	}
	if size || dst == nil {
		if len(jp.checks) == 0 { // every combination is a row
			each(func(int) {
				k := 1
				for _, l := range lists[1:] {
					k *= len(l)
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

// combine enumerates the cross product of lists[i:] — row numbers of
// children[i:] — filling at in place and invoking fn for each full
// combination (at[:i] is already set by the caller).
func combine(children []relation, lists [][]int32, i int, at []int, fn func()) {
	if i == len(lists) {
		fn()
		return
	}
	for _, r := range lists[i] {
		at[i] = int(r) * children[i].Width
		combine(children, lists, i+1, at, fn)
	}
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
