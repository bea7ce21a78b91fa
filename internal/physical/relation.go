package physical

import (
	"slices"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// joinPlan is one join's compiled merge, for its one output list: the
// source (input and column) of each output column — the post-join
// projection fused into the join's output write — the column of the
// merged attribute in each input, and the residual equality checks. It
// depends only on the inputs' schemas, the join attributes and the
// output list, all fixed by the plan, so CompileWith builds it once and
// every execution and bind shares it.
type joinPlan struct {
	width int // output columns
	// merge: the join merges its inputs on the first join attribute (it
	// has join attributes and two inputs or more).
	merge    bool
	srcChild []int // per output column: providing input...
	srcCol   []int // ...and column within it
	keyCols  []int // per input: the column of the merged attribute
	// checks are the residual equalities over the shared attributes but
	// the merged one: the further join attributes' first, then the
	// others'.
	checks []eqCheck
}

// newJoinPlan compiles the join of inputs with the given schemas on
// joinAttrs, writing attrs. Residual checks cover every attribute but
// the merged one shared by two or more inputs, whether or not it
// survives into attrs.
func newJoinPlan(schemas [][]string, joinAttrs, attrs []string) *joinPlan {
	jp := &joinPlan{width: len(attrs), merge: len(joinAttrs) > 0 && len(schemas) > 1}
	if len(joinAttrs) > 0 {
		jp.keyCols = make([]int, len(schemas))
		for i, s := range schemas {
			jp.keyCols[i] = slices.Index(s, joinAttrs[0])
		}
		rest := joinAttrs[1:]
		kChild, kCol := columnSources(rest, schemas)
		jp.checks = residualChecks(rest, schemas, kChild, kCol)
	}
	union := slices.DeleteFunc(unionSchema(schemas), func(s string) bool { return slices.Contains(joinAttrs, s) })
	uChild, uCol := columnSources(union, schemas)
	jp.checks = append(jp.checks, residualChecks(union, schemas, uChild, uCol)...)
	jp.srcChild, jp.srcCol = columnSources(attrs, schemas)
	return jp
}

// joinCounts is the work accounting a join reports back to its caller:
// tuples processed (inputs) and produced (outputs).
type joinCounts struct {
	in, out int
}

// naryJoinInto computes the n-ary equality join jp of children — local
// (per-node or per-group) blocks whose columns are the inputs' schemas
// — on its join attributes, additionally enforcing equality on every
// attribute shared by two or more children (the folded residual
// selection), and appends the output rows' cells, written directly in
// output column order, to dst. It is a merge on the first join
// attribute: every child is read in order of that column (a child out
// of order is first sorted stably in place by mapreduce.SortRows, sortOn:
// a join input's cells are the join's to reorder), a cursor per child,
// and the cursor behind the greatest key advances until all of them
// stand on one key; the runs of that key then combine, child 0's
// outermost. Further join attributes are residual checks. A child whose
// rows arrive in key order — every stored file is sorted on its placed
// cell — keeps its order, so with child 0 sorted the rows come out as a
// stream of child 0 probing the others would emit them. With no join
// attribute, or one child, every child is one run. Its rows are written
// once, as they are found: dst grows as it takes them, in place when it
// is the last block at its arena's bottom, which no sort disturbs —
// SortRows carves from the top.
func (a *arena) naryJoinInto(dst *mapreduce.Block, children []mapreduce.Block, jp *joinPlan) joinCounts {
	var counts joinCounts
	empty := len(children) == 0
	for i := range children {
		counts.in += children[i].N
		empty = empty || children[i].N == 0
	}
	if empty {
		return counts
	}
	nc := len(children)
	a.grow(nc)
	if jp.merge {
		for i := range children {
			a.sortOn(&children[i], jp.keyCols[i])
		}
	}

	// at[i] is where, in child i's cells, the row of the combination
	// being enumerated starts; lo[i]:hi[i] is child i's run of the
	// current key. Rows go to out, dst's header copied to the stack: no
	// lane shares its cache line.
	at, lo, hi := a.at[:nc], a.lo[:nc], a.hi[:nc]
	out := *dst
	emit := func() {
		for _, c := range jp.checks {
			if children[c.aChild].Cells[at[c.aChild]+c.aCol] != children[c.bChild].Cells[at[c.bChild]+c.bCol] {
				return
			}
		}
		counts.out++
		row := out.Extend(1, jp.width)
		for i := range row {
			row[i] = children[jp.srcChild[i]].Cells[at[jp.srcChild[i]]+jp.srcCol[i]]
		}
	}
	// each calls fn once per key every child holds, in key order, with
	// lo and hi bounding the children's runs of it.
	each := func(fn func()) {
		clear(hi)
		if !jp.merge {
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
	each(func() {
		if len(jp.checks) == 0 { // every combination is a row: room for all
			k := 1
			for i := range lo {
				k *= hi[i] - lo[i]
			}
			out.Reserve(k, jp.width)
		}
		combine(children, lo, hi, 0, at, emit)
		out.Flush() // a sink's block hands its rows on at a key boundary
	})
	*dst = out
	return counts
}

// combine enumerates the cross product of the runs lo[i:]:hi[i:] of
// children[i:], filling at in place and invoking fn for each full
// combination (at[:i] is already set by the caller).
func combine(children []mapreduce.Block, lo, hi []int, i int, at []int, fn func()) {
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

// sortOn puts rel's rows in order of column col, stably and in place
// (mapreduce.SortRows, its scratch carved from the lane's arena's top and
// taken back at once), unless they are in order already; a.sorts counts
// the relations it had to sort.
func (a *arena) sortOn(rel *mapreduce.Block, col int) {
	w, cells := rel.Width, rel.Cells
	if mapreduce.SortRows(cells, rel.N, w, func(i int) uint32 { return uint32(cells[i*w+col]) }, nil, a.mem) {
		a.sorts++
	}
}

// unionSchema returns the sorted union of the schemas.
func unionSchema(schemas [][]string) []string {
	var out []string
	for _, s := range schemas {
		for _, a := range s {
			if !slices.Contains(out, a) {
				out = append(out, a)
			}
		}
	}
	slices.Sort(out)
	return out
}

// columnSources picks, for every attribute of schema, the first input
// (and column within it) providing it.
func columnSources(schema []string, schemas [][]string) (srcChild, srcCol []int) {
	srcChild = make([]int, len(schema))
	srcCol = make([]int, len(schema))
	for i, a := range schema {
		for ci, s := range schemas {
			if c := slices.Index(s, a); c >= 0 {
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
// several inputs: each extra provider must agree with the primary
// source.
func residualChecks(schema []string, schemas [][]string, srcChild, srcCol []int) []eqCheck {
	var checks []eqCheck
	for i, a := range schema {
		for ci, s := range schemas {
			if ci == srcChild[i] {
				continue
			}
			if c := slices.Index(s, a); c >= 0 {
				checks = append(checks, eqCheck{srcChild[i], srcCol[i], ci, c})
			}
		}
	}
	return checks
}
