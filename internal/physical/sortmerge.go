package physical

import (
	"slices"
	"sort"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// parallelSortMin is the result size below which the final sort, and a
// consumer's pass over the finished rows (Rows.EachRange), run on the
// calling lane alone: dispatching to the pool only pays for itself on
// large result sets.
const parallelSortMin = 4096

// compareRows is the canonical result order: lexicographic by cell,
// over rows of one width. It is total on distinct rows, which is what
// makes mergeParts exact — any algorithm producing the sorted distinct
// set yields byte-identical output.
func compareRows(a, b mapreduce.Row) int {
	for k, v := range a {
		if w := b[k]; v != w {
			if v < w {
				return -1
			}
			return 1
		}
	}
	return 0
}

// rowPrefix packs a row's first two cells into one integer that orders
// as the rows do, as far as it goes: the merge compares its parts'
// heads by prefix and falls back to compareRows only on a tie.
func rowPrefix(row mapreduce.Row) uint64 {
	switch len(row) {
	case 0:
		return 0
	case 1:
		return uint64(row[0]) << 32
	}
	return uint64(row[0])<<32 | uint64(row[1])
}

// mergeMark is how many survivors apart the merge records where it
// stands: a reader resumes at the mark at or before the first row it
// wants, and EachRange cuts at marks. It is a packed answer's restart
// interval too, so a cut falls on a restart whichever source is read.
const mergeMark = mapreduce.PackRestart

// mergeParts produces the canonical result set of the last job's output
// parts (one block per node, read by nothing else) — the distinct rows
// in compareRows order: each part's rows are sorted in place
// (concurrently on the pool when the result is large), and one k-way
// merge counts the rows that survive it and records the parts' heads
// every mergeMark survivors, in room carved as if all rows survived;
// no order is kept: a reader merges its range again from the nearest
// mark. Parts and marks are the context's scratch, valid until it is
// released; on a warm context the merge allocates nothing.
func (c *ExecContext) mergeParts(parts []mapreduce.Block) Rows {
	total, width := 0, 0
	for p := range parts {
		total += parts[p].N
		if parts[p].N > 0 {
			width = parts[p].Width
		}
	}
	c.sortParts = parts
	pool := c.pool
	if total < parallelSortMin {
		pool = nil
	}
	if c.sortFn == nil {
		c.sortFn = c.sortPart // bound once: a method value handed to the pool allocates
	}
	pool.ForEach(len(parts), c.sortFn)

	c.mergeMarks = mapreduce.Carve[int32](&c.bufs, (total/mergeMark+1)*len(parts))[:0]
	var hb [16]int32
	var pb [16]uint64
	m, n := c.merger(0, &hb, &pb), 0
	for ; ; n++ {
		if n%mergeMark == 0 {
			c.mergeMarks = append(c.mergeMarks, m.heads...)
		}
		if _, ok := m.next(); !ok {
			break
		}
	}
	return Rows{n: n, width: width, ctx: c}
}

// merger returns a merge of the context's sorted parts standing at mark
// k (at the start before the first mark is recorded), its heads and
// prefixes in hb and pb unless there are more than 16 parts.
func (c *ExecContext) merger(k int, hb *[16]int32, pb *[16]uint64) merger {
	parts := c.sortParts
	m := merger{parts: parts, heads: hb[:], prefix: pb[:]}
	if len(parts) > len(hb) {
		m.heads, m.prefix = make([]int32, len(parts)), make([]uint64, len(parts))
	}
	m.heads, m.prefix = m.heads[:len(parts)], m.prefix[:len(parts)]
	copy(m.heads, c.mergeMarks[min(k*len(parts), len(c.mergeMarks)):])
	m.start()
	return m
}

// merger walks the distinct rows of sorted parts in order, dropping
// duplicates as they meet (equal rows are adjacent across part heads
// under a total order). heads[p] is part p's next unmerged row and
// prefix[p] that row's prefix; between steps every copy of the row last
// returned is behind the heads, so the heads alone say where the merge
// stands.
type merger struct {
	parts  []mapreduce.Block
	heads  []int32
	prefix []uint64
	best   int // the part whose head is the next row; -1 at the end
}

// start readies the merge from heads.
func (m *merger) start() {
	for p := range m.parts {
		if m.more(p) {
			m.prefix[p] = rowPrefix(m.head(p))
		}
	}
	m.best = m.least()
}

// next returns the next distinct row and moves past every copy of it;
// false at the end.
func (m *merger) next() (mapreduce.Row, bool) {
	if m.best < 0 {
		return nil, false
	}
	row := m.head(m.best)
	for {
		p := m.best
		if m.heads[p]++; m.more(p) {
			m.prefix[p] = rowPrefix(m.head(p))
		}
		if m.best = m.least(); m.best < 0 || compareRows(m.head(m.best), row) != 0 {
			return row, true
		}
	}
}

// least returns the part whose head comes first, or -1 when every part
// is merged.
func (m *merger) least() int {
	best := -1
	for p := range m.parts {
		if m.more(p) && (best < 0 || m.prefix[p] < m.prefix[best] || m.prefix[p] == m.prefix[best] && compareRows(m.head(p), m.head(best)) < 0) {
			best = p
		}
	}
	return best
}

func (m *merger) more(p int) bool          { return int(m.heads[p]) < m.parts[p].N }
func (m *merger) head(p int) mapreduce.Row { return m.parts[p].Row(int(m.heads[p])) }

// sortPart sorts part p's rows in place; rows of one cell are the cells.
func (c *ExecContext) sortPart(p, _ int) {
	if b := &c.sortParts[p]; b.Width == 1 {
		slices.Sort(b.Cells)
	} else {
		sort.Sort((*partRows)(b))
	}
}

// partRows sorts a block's rows by swapping their cells (rows of width
// 0 are all equal).
type partRows mapreduce.Block

func (b *partRows) Len() int                { return b.N }
func (b *partRows) row(i int) mapreduce.Row { return (*mapreduce.Block)(b).Row(i) }
func (b *partRows) Less(i, j int) bool      { return compareRows(b.row(i), b.row(j)) < 0 }
func (b *partRows) Swap(i, j int) {
	x, y := b.row(i), b.row(j)
	for k := range x {
		x[k], y[k] = y[k], x[k]
	}
}

// Rows is a finished result as an execution hands it over: the distinct
// rows in canonical order. It is backed either by the running context's
// merge — the last job's per-node output, sorted in place, and the
// merge's marks, both the context's scratch, read in place — or by a
// result-cache entry's packed rows, decoded as they are read. Either
// way it is borrowed: valid only inside the callback ExecContext.Run
// passes it to, and nothing may keep it beyond that; a Row it hands out
// is valid until the function it was handed to returns. Materialise is
// the way out.
type Rows struct {
	n, width int
	// ctx is the context serving the execution: its lanes run EachRange,
	// and without packed rows its sorted parts and marks are the source.
	ctx    *ExecContext
	packed *mapreduce.Packed
}

// packedRows is the source over a result-cache entry's packed rows, read
// on c's lanes.
func packedRows(p *mapreduce.Packed, c *ExecContext) Rows {
	return Rows{n: p.N, width: p.Width, ctx: c, packed: p}
}

// Len is the number of rows.
func (r Rows) Len() int { return r.n }

// Width is the number of cells of every row.
func (r Rows) Width() int { return r.width }

// Packed returns the packed rows the source decodes — a result-cache
// entry's own, shared and immutable — or nil when it reads a merge.
func (r Rows) Packed() *mapreduce.Packed { return r.packed }

// Each calls fn(i, row) for rows lo to hi-1 in order, row a
// capacity-clipped slice valid until fn returns: read it, or copy it. A
// merge is walked again from the mark at or before lo, packed rows are
// decoded from the restart at or before it, so ranges read concurrently
// share no state.
func (r Rows) Each(lo, hi int, fn func(i int, row mapreduce.Row)) {
	if r.packed != nil {
		r.packed.Each(lo, hi, fn)
		return
	}
	var hb [16]int32
	var pb [16]uint64
	m := r.ctx.merger(lo/mergeMark, &hb, &pb)
	for at := lo / mergeMark * mergeMark; at < hi; at++ {
		row, ok := m.next()
		if !ok {
			break
		}
		if at >= lo {
			fn(at, row)
		}
	}
}

// Lanes is the number of ranges EachRange cuts the rows into: the
// context's lanes for a large result, one otherwise.
func (r Rows) Lanes() int {
	if r.Len() < parallelSortMin {
		return 1
	}
	return r.ctx.lanes()
}

// EachRange cuts the rows into Lanes() contiguous ranges, at the merge's
// marks, and calls fn(lo, hi) once per range, concurrently on the
// context's lanes when there are several. A row's number fixes where its
// consumer puts it, so whatever fn builds is the same at every lane
// count. fn is retained by the pool for the call: a caller that must not
// allocate on the one-lane path checks Lanes() first and loops itself.
func (r Rows) EachRange(fn func(lo, hi int)) {
	k, n := r.Lanes(), r.Len()
	if k == 1 {
		fn(0, n)
		return
	}
	r.ctx.pool.ForEach(k, func(i, _ int) { fn(r.cut(i, k), r.cut(i+1, k)) })
}

// cut is where range i of k starts: the mark nearest an even cut, or the
// end.
func (r Rows) cut(i, k int) int {
	n := r.Len()
	if i == k {
		return n
	}
	return min(n, (i*n/k+mergeMark/2)/mergeMark*mergeMark)
}

// pack packs the rows for a result-cache entry: gap-coded, in arrays of
// their own sized to them.
func (r Rows) pack() mapreduce.Packed {
	return mapreduce.Pack(r.width, r.n, func(fn func(mapreduce.Row)) {
		r.Each(0, r.n, func(_ int, row mapreduce.Row) { fn(row) })
	})
}

// Materialise returns the rows in the form that outlives the source: one
// exactly sized header slice over a fresh, exactly sized block the
// context and the result cache do not own. It is the only place the
// data plane builds a []Row.
func (r Rows) Materialise() []mapreduce.Row {
	b := mapreduce.Block{Width: r.width, N: r.n, Cells: make([]rdf.TermID, r.n*r.width)}
	r.Each(0, b.N, func(i int, row mapreduce.Row) { copy(b.Row(i), row) })
	view := make([]mapreduce.Row, b.N)
	for i := range view {
		view[i] = b.Row(i)
	}
	return view
}
