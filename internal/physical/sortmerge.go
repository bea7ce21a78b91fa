package physical

import (
	"slices"
	"sort"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// parallelSortMin is the result size below which the final sort runs
// on the calling lane alone: dispatching the parts to the pool only
// pays for itself on large result sets.
const parallelSortMin = 4096

// compareRows is the canonical result order: lexicographic by cell,
// over rows of one width. It is total on distinct rows, which is what
// makes dedupeSort exact — any algorithm producing the sorted distinct
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

// dedupeSort produces the canonical result set of a job's output parts
// (one block per node): the distinct rows in compareRows order, as an
// exactly sized block that shares nothing with the context, and the
// one []Row view over it. No row moves until then: each part's row
// numbers are sorted on their own (concurrently on the pool when the
// result is large), a k-way merge lists the rows in order, dropping
// duplicates as they meet (equal rows are adjacent across part heads
// under a total order), and only the survivors' cells are copied.
func (c *ExecContext) dedupeSort(parts []mapreduce.Block) (mapreduce.Block, []mapreduce.Row) {
	// idx holds each part's row numbers, part after part; part p's are
	// idx[offs[p]:offs[p+1]].
	offs, total, width := c.sortOffs[:0], 0, 0
	for p := range parts {
		offs = append(offs, total)
		total += parts[p].N
		if parts[p].N > 0 {
			width = parts[p].Width
		}
	}
	offs = append(offs, total)
	c.sortOffs = offs
	c.sortIdx = sized(c.sortIdx, total)
	idx := c.sortIdx
	pool := c.pool
	if total < parallelSortMin {
		pool = nil
	}
	pool.ForEach(len(parts), func(p, _ int) {
		part, rows := &parts[p], idx[offs[p]:offs[p+1]]
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, func(a, b int32) int { return compareRows(part.Row(int(a)), part.Row(int(b))) })
	})

	// Merge: order lists, as positions in idx, the distinct rows in
	// result order. heads[p] is part p's next unmerged position and
	// prefix[p] that row's prefix.
	order := c.sortOrder[:0]
	heads := append(c.sortHeads[:0], offs[:len(parts)]...)
	prefix := sized(c.sortPrefix, len(parts))
	head := func(p int) mapreduce.Row { return parts[p].Row(int(idx[heads[p]])) }
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

	out := mapreduce.Block{Width: width, N: len(order), Cells: make([]rdf.TermID, len(order)*width)}
	view := make([]mapreduce.Row, len(order))
	for i, pos := range order {
		// order interleaves the parts: pos lies in the part whose span
		// of idx holds it.
		p := sort.SearchInts(offs, int(pos)+1) - 1
		view[i] = out.Row(i)
		copy(view[i], parts[p].Row(int(idx[pos])))
	}
	return out, view
}
