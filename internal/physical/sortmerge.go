package physical

import (
	"math/bits"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// parallelSortMin is the result size below which a consumer's pass over
// the finished rows (Rows.EachRange) runs on the calling lane alone:
// dispatching to the pool only pays for itself on large result sets.
const parallelSortMin = 4096

// compareRows is the canonical result order: lexicographic by cell,
// over rows of one width. It is total on distinct rows, which is what
// makes the merge exact — any algorithm producing the sorted distinct
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

// packPart is the last job's sink: every M rows of a unit (or the rest,
// as the unit ends), written into its lane's arena, are sorted in place
// (mapreduce.SortRows: by the first cell, then compareRows), their
// repeats dropped, and packed once into the arena's free room, then
// copied into a part carved from the context's outputs at its size and
// listed with the lane's parts — the raw rows go as the sink returns.
// The parts merge into one answer, so it ignores the unit's node.
func (c *ExecContext) packPart(_, lane int, raw mapreduce.Block) {
	a := c.arenas[lane]
	if raw.Width > 0 { // rows of width 0 are all equal
		var tie func(i, j int) int
		if raw.Width > 1 {
			tie = func(i, j int) int { return compareRows(raw.Row(i), raw.Row(j)) }
		}
		mapreduce.SortRows(raw.Cells, raw.N, raw.Width, func(i int) uint32 { return uint32(raw.Cells[i*raw.Width]) }, tie, a.mem)
	}
	n := 0
	for i := 0; i < raw.N; i++ {
		if n == 0 || compareRows(raw.Row(i), raw.Row(n-1)) != 0 {
			copy(raw.Row(n), raw.Row(i))
			n++
		}
	}
	raw.N, raw.Cells = n, raw.Cells[:n*raw.Width]
	a.parts = append(a.parts, mapreduce.PackBlock(&c.bufs, a.mem, &raw))
}

// mergeParts merges the last job's packed parts — each sorted and
// distinct — into the answer: the distinct rows in compareRows order,
// packed, carved from the context's outputs. It packs each row once into
// the outputs' spare room — or, where the room runs out, as on a
// context that has not yet held so large an answer, into bytes on the
// Go heap — then carves what it wrote. Its merge state is carved from
// lane 0's arena and taken back after. The answer is the context's
// scratch, valid until it is released.
func (c *ExecContext) mergeParts() Rows {
	parts, width, total := c.parts[:0], 0, 0
	for _, a := range c.arenas {
		for _, p := range a.parts {
			if p.N > 0 {
				parts, width, total = append(parts, p), p.Width, total+p.N
			}
		}
		clear(a.parts)
		a.parts = a.parts[:0]
	}
	c.parts = parts

	a := c.bufs.Lane(0)
	mark := a.Used()
	m := newMerger(a, parts, width)
	restarts := mapreduce.Carve[uint32](&c.bufs, (total+mapreduce.PackRestart-1)/mapreduce.PackRestart)
	var k mapreduce.Packer
	k.Start(width, c.bufs.Spare(), restarts)
	for m.next() {
		k.Put(m.last(), m.row, m.coded)
	}
	data := mapreduce.Carve[byte](&c.bufs, len(k.Data)) // the spare room written, or a copy
	k.Data = data[:copy(data, k.Data)]
	a.Cut(mark)
	c.answer = k.Done()
	lanes := min(c.lanes(), 64)
	c.decode = mapreduce.Carve[rdf.TermID](&c.bufs, lanes*width)
	c.free.Store(1<<lanes - 1)
	return Rows{packed: &c.answer, ctx: c}
}

// claim lends a reader of p one of the rows the answer is decoded into,
// carved with it, one per lane, so reading it allocates nothing; nil
// (the reader makes its own) for other packed rows, or past the rows
// there are. unclaim gives back row i.
func (c *ExecContext) claim(p *mapreduce.Packed) (row mapreduce.Row, i int) {
	if p != &c.answer {
		return nil, -1
	}
	for free := c.free.Load(); free != 0; free = c.free.Load() {
		if i = bits.TrailingZeros64(free); c.free.CompareAndSwap(free, free&^(1<<i)) {
			return c.decode[i*p.Width : (i+1)*p.Width], i
		}
	}
	return nil, -1
}

func (c *ExecContext) unclaim(i int) {
	if i >= 0 {
		c.free.Or(1 << i)
	}
}

// merger walks the distinct rows of sorted packed parts in order, a
// tree of losers (mapreduce.Loser) over their heads keyed on the heads'
// prefixes, dropping duplicates as they meet (equal rows are adjacent
// under a total order). heads[p] is part p's next unmerged row, decoded
// at head(p); its bytes run from from[p] to at[p]. The rows it returns
// alternate between two buffers, row and prev, so the one before stays
// readable.
type merger struct {
	parts     []mapreduce.Packed
	tree      mapreduce.Loser
	heads     []int32
	from, at  []uint32
	rows      []rdf.TermID // every part's head
	w, n      int          // the width; the rows returned
	row, prev mapreduce.Row
	// The row returned last is row src of part part. coded is its bytes
	// there when the row before it there was returned just before it, and
	// it is no restart; else nil.
	part  int
	src   int32
	coded []byte
}

// newMerger returns a merge of parts of rows of width w, from their
// first rows, its state carved from m.
func newMerger(m mapreduce.Mem, parts []mapreduce.Packed, w int) merger {
	k := len(parts)
	out := mapreduce.Carve[rdf.TermID](m, 2*w)
	mg := merger{
		parts: parts, w: w, part: -1,
		heads: mapreduce.Carve[int32](m, k),
		from:  mapreduce.Carve[uint32](m, k),
		at:    mapreduce.Carve[uint32](m, k),
		rows:  mapreduce.Carve[rdf.TermID](m, k*w),
		row:   out[:w:w],
		prev:  out[w : 2*w : 2*w],
	}
	clear(mg.heads)
	mg.tree.Start(m, k)
	for p := range parts {
		mg.from[p] = parts[p].Restarts[0]
		mg.at[p] = uint32(parts[p].Next(0, int(mg.from[p]), mg.head(p)))
		mg.tree.Key[p] = rowPrefix(mg.head(p))
	}
	mg.tree.Build(mg.tie())
	return mg
}

// next moves to the next distinct row, past every copy of it: m.row,
// m.prev the one before it (when m.n > 1) and m.coded its bytes; false
// at the end.
func (m *merger) next() bool {
	b := m.tree.Top()
	if b < 0 {
		return false
	}
	m.row, m.prev = m.prev, m.row
	copy(m.row, m.head(b))
	m.coded = nil
	if h := m.heads[b]; b == m.part && h == m.src+1 && h%mapreduce.PackRestart != 0 {
		m.coded = m.parts[b].Data[m.from[b]:m.at[b]]
	}
	m.part, m.src = b, m.heads[b]
	m.n++
	for key := rowPrefix(m.row); ; {
		// Part b's head is the row: it moves on, and the next part's head
		// may be a copy.
		p := &m.parts[b]
		if m.heads[b]++; m.heads[b] < int32(p.N) {
			m.from[b] = m.at[b]
			m.at[b] = uint32(p.Next(int(m.heads[b]), int(m.at[b]), m.head(b)))
			m.tree.Key[b] = rowPrefix(m.head(b))
		}
		m.tree.Next(m.heads[b] == int32(p.N), m.tie())
		if b = m.tree.Top(); b < 0 || m.tree.Key[b] != key || m.w > 2 && compareRows(m.head(b), m.row) != 0 {
			return true
		}
	}
}

// tie decides between parts whose heads' prefixes tie: nil where a
// prefix is the whole row.
func (m *merger) tie() func(p, q int) int {
	if m.w <= 2 {
		return nil
	}
	return func(p, q int) int { return compareRows(m.head(p), m.head(q)) }
}

// last is the row before the row next moved to, nil before the first.
func (m *merger) last() mapreduce.Row {
	if m.n < 2 {
		return nil
	}
	return m.prev
}

func (m *merger) head(p int) mapreduce.Row { return m.rows[p*m.w : (p+1)*m.w : (p+1)*m.w] }

// Rows is a finished result as an execution hands it over: the distinct
// rows in canonical order, packed — the running context's answer, merged
// from the last job's parts into its scratch, or a result-cache entry's
// rows — and decoded as they are read. Either way it is borrowed: valid
// only inside the callback ExecContext.Run passes it to, and nothing may
// keep it beyond that; a Row it hands out is valid until the function it
// was handed to returns. Materialise is the way out.
type Rows struct {
	packed *mapreduce.Packed
	ctx    *ExecContext // the context serving the execution: its lanes run EachRange
}

// packedRows is the source over packed rows, read on c's lanes.
func packedRows(p *mapreduce.Packed, c *ExecContext) Rows { return Rows{packed: p, ctx: c} }

// Len is the number of rows.
func (r Rows) Len() int { return r.packed.N }

// Width is the number of cells of every row.
func (r Rows) Width() int { return r.packed.Width }

// Packed returns the packed rows the source decodes: a result-cache
// entry's own, shared and immutable, or the context's answer.
func (r Rows) Packed() *mapreduce.Packed { return r.packed }

// Each calls fn(i, row) for rows lo to hi-1 in order, row a
// capacity-clipped slice valid until fn returns: read it, or copy it.
// The rows are decoded from the restart at or before lo, so ranges read
// concurrently share no state.
func (r Rows) Each(lo, hi int, fn func(i int, row mapreduce.Row)) {
	row, i := r.ctx.claim(r.packed)
	defer r.ctx.unclaim(i)
	r.packed.Each(lo, hi, row, fn)
}

// Lanes is the number of ranges EachRange cuts the rows into: the
// context's lanes for a large result, one otherwise.
func (r Rows) Lanes() int {
	if r.Len() < parallelSortMin {
		return 1
	}
	return r.ctx.lanes()
}

// EachRange cuts the rows into Lanes() contiguous ranges, at restarts,
// and calls fn(lo, hi) once per range, concurrently on the context's
// lanes when there are several. A row's number fixes where its consumer
// puts it, so whatever fn builds is the same at every lane count. fn is
// retained by the pool for the call: a caller that must not allocate on
// the one-lane path checks Lanes() first and loops itself.
func (r Rows) EachRange(fn func(lo, hi int)) {
	k, n := r.Lanes(), r.Len()
	if k == 1 {
		fn(0, n)
		return
	}
	r.ctx.pool.ForEach(k, func(i, _ int) { fn(r.cut(i, k), r.cut(i+1, k)) })
}

// cut is where range i of k starts: the restart nearest an even cut, or
// the end.
func (r Rows) cut(i, k int) int {
	const every = mapreduce.PackRestart
	n := r.Len()
	if i == k {
		return n
	}
	return min(n, (i*n/k+every/2)/every*every)
}

// pack copies the rows for a result-cache entry, into arrays of their
// own.
func (r Rows) pack() mapreduce.Packed { return r.packed.Clone() }

// Materialise returns the rows in the form that outlives the source: one
// exactly sized header slice over a fresh, exactly sized block the
// context and the result cache do not own. It is the only place the
// data plane builds a []Row.
func (r Rows) Materialise() []mapreduce.Row {
	b := mapreduce.Block{Width: r.Width(), N: r.Len(), Cells: make([]rdf.TermID, r.Len()*r.Width())}
	r.Each(0, b.N, func(i int, row mapreduce.Row) { copy(b.Row(i), row) })
	view := make([]mapreduce.Row, b.N)
	for i := range view {
		view[i] = b.Row(i)
	}
	return view
}
