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

// mergeParts produces the canonical result set of the last job's output
// parts (one block per node, read by nothing else) — the distinct rows
// in compareRows order: each part's rows are sorted in place
// (concurrently on the pool when the result is large) and a k-way merge
// lists them in order, dropping duplicates as they meet (equal rows are
// adjacent across part heads under a total order). The product is an
// order over the sorted parts, left in the context's scratch, and the
// Rows that reads through it: valid until the context's next job, and
// on a warm context allocation-free.
func (c *ExecContext) mergeParts(parts []mapreduce.Block) Rows {
	// Rows are numbered part after part: part p's are offs[p]:offs[p+1].
	offs, total, width := c.sortOffs[:0], 0, 0
	for p := range parts {
		offs = append(offs, total)
		total += parts[p].N
		if parts[p].N > 0 {
			width = parts[p].Width
		}
	}
	offs = append(offs, total)
	c.sortOffs, c.sortParts = offs, parts
	pool := c.pool
	if total < parallelSortMin {
		pool = nil
	}
	if c.sortFn == nil {
		c.sortFn = c.sortPart // bound once: a method value handed to the pool allocates
	}
	pool.ForEach(len(parts), c.sortFn)

	// Merge: order lists the distinct rows in result order, each by its
	// number. heads[p] is part p's next unmerged row and prefix[p] that
	// row's prefix.
	order := sized(&c.bufs, c.sortOrder, total)[:0]
	heads := append(c.sortHeads[:0], offs[:len(parts)]...)
	prefix := slices.Grow(c.sortPrefix[:0], len(parts))[:len(parts)]
	head := func(p int) mapreduce.Row { return parts[p].Row(heads[p] - offs[p]) }
	for p := range parts {
		if heads[p] < offs[p+1] {
			prefix[p] = rowPrefix(head(p))
		}
	}
	var last mapreduce.Row
	for {
		best := -1
		for p := range parts {
			if heads[p] == offs[p+1] {
				continue
			}
			if best == -1 || prefix[p] < prefix[best] || prefix[p] == prefix[best] && compareRows(head(p), head(best)) < 0 {
				best = p
			}
		}
		if best == -1 {
			break
		}
		if row := head(best); len(order) == 0 || compareRows(last, row) != 0 {
			order = append(order, int32(heads[best]))
			last = row
		}
		if heads[best]++; heads[best] < offs[best+1] {
			prefix[best] = rowPrefix(head(best))
		}
	}
	c.sortOrder, c.sortHeads, c.sortPrefix = order, heads, prefix
	return Rows{blk: mapreduce.Block{Width: width, N: len(order)}, ctx: c, merged: true}
}

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

// Rows is a finished result as the executor hands it over: the distinct
// rows in canonical order, read in place. It is backed either by the
// merge order of the running context — row numbers into the last job's
// per-node output, sorted in place, both the context's scratch — or by
// one owned block (a result-cache entry's). Either way it is borrowed:
// valid only inside the callback Executor.Run passes it to, and nothing
// may keep it, or a Row it returned, beyond that. Materialise is the
// way out.
type Rows struct {
	// blk is the owned block; of a merge order it gives the shape only
	// (width and row count, no cells).
	blk mapreduce.Block
	// ctx is the context serving the execution: its lanes run EachRange,
	// and when merged its sort scratch is the source.
	ctx    *ExecContext
	merged bool
}

// blockRows is the source over one owned block, read on c's lanes.
func blockRows(b mapreduce.Block, c *ExecContext) Rows { return Rows{blk: b, ctx: c} }

// Len is the number of rows.
func (r Rows) Len() int { return r.blk.N }

// Width is the number of cells of every row.
func (r Rows) Width() int { return r.blk.Width }

// Row returns row i as a capacity-clipped slice into whatever backs the
// source. Read it; it is gone when the source is.
func (r Rows) Row(i int) mapreduce.Row {
	if !r.merged {
		return r.blk.Row(i)
	}
	// order interleaves the parts: a position lies in the part whose span
	// of offsets holds it.
	c, pos := r.ctx, int(r.ctx.sortOrder[i])
	p := sort.SearchInts(c.sortOffs, pos+1) - 1
	return c.sortParts[p].Row(pos - c.sortOffs[p])
}

// Lanes is the number of ranges EachRange cuts the rows into: the
// context's lanes for a large result, one otherwise.
func (r Rows) Lanes() int {
	if r.Len() < parallelSortMin {
		return 1
	}
	return r.ctx.lanes()
}

// EachRange cuts the rows into Lanes() contiguous ranges and calls
// fn(lo, hi) once per range, concurrently on the context's lanes when
// there are several. A row's number fixes where its consumer puts it,
// so whatever fn builds is the same at every lane count. fn is retained
// by the pool for the call: a caller that must not allocate on the
// one-lane path checks Lanes() first and loops itself.
func (r Rows) EachRange(fn func(lo, hi int)) {
	k, n := r.Lanes(), r.Len()
	if k == 1 {
		fn(0, n)
		return
	}
	r.ctx.pool.ForEach(k, func(i, _ int) { fn(i*n/k, (i+1)*n/k) })
}

// block copies the rows into an exactly sized block that shares nothing
// with the source.
func (r Rows) block() mapreduce.Block {
	out := r.blk
	out.Cells = make([]rdf.TermID, out.N*out.Width)
	for i := 0; i < out.N; i++ {
		copy(out.Row(i), r.Row(i))
	}
	return out
}

// Materialise returns the rows in the form that outlives the source:
// one exactly sized header slice over a block the context does not own
// — a fresh copy of a merge order's survivors, or the owned block
// itself (a cache entry's: shared and immutable). It is the only place
// the data plane builds a []Row.
func (r Rows) Materialise() []mapreduce.Row {
	b := r.blk
	if r.merged {
		b = r.block()
	}
	view := make([]mapreduce.Row, b.N)
	for i := range view {
		view[i] = b.Row(i)
	}
	return view
}
