package mapreduce

import (
	"encoding/binary"
	"math"
	"slices"

	"cliquesquare/internal/rdf"
)

// PackRestart is how many rows apart a Packed relation writes a row in
// full: a reader seeks the restart at or before the first row it wants
// and decodes forward from there, at most PackRestart-1 rows.
const PackRestart = 1024

// Packed is a relation body of distinct rows in ascending order
// (lexicographic by cell), each gap-coded against the row before it, as
// RDF-3X stores its sorted triples. A row is one uvarint of gap·Width+c,
// where c is the first column that differs from the previous row and
// gap > 0 is the difference in that column, then a zigzag varint per
// later column of its difference from the previous row; the cells
// before c repeat the previous row's. Every PackRestart-th row, the
// first included, is a restart: its cells are written in full as
// uvarints, and its byte offset is recorded. Rows of width 0 take no
// bytes. Like a Block it holds no pointer; unlike one it is built once,
// by a Packer, and only read after.
type Packed struct {
	Width, N int
	// Data is the rows' bytes; its capacity is what it holds.
	Data []byte
	// Restarts[k] is where row k·PackRestart starts in Data.
	Restarts []uint32
}

// A Packer packs ascending distinct rows handed to it one at a time,
// each with the row before it (nil before the first) and, when the row
// comes from other packed rows in which the same row came before it, its
// bytes there (else nil), which are copied unless the row is a restart.
// A row need only be valid for the call; one that does not come after
// the row before it panics. It codes each row once, into the room it
// was started with and, past it, into bytes that grow on the Go heap.
type Packer struct{ Packed }

// Start readies a pass writing rows of the given width into data's
// room, restarts holding every restart the rows may need.
func (k *Packer) Start(width int, data []byte, restarts []uint32) {
	k.Packed = Packed{Width: width, Data: data[:0:min(cap(data), math.MaxUint32)], Restarts: restarts}
}

// Put writes the next row.
func (k *Packer) Put(prev, row Row, coded []byte) {
	switch i := k.N; {
	case i%PackRestart == 0:
		if len(k.Data) > math.MaxUint32 {
			panic("mapreduce: packing 4 GiB of rows")
		}
		k.Restarts[i/PackRestart] = uint32(len(k.Data))
		k.Data = appendRow(k.Data, prev, row, i)
	case coded != nil:
		k.Data = append(k.Data, coded...)
	default:
		k.Data = appendRow(k.Data, prev, row, i)
	}
	k.N++
}

// Done returns the rows put, their restarts cut to those they have.
func (k *Packer) Done() Packed {
	p := k.Packed
	p.Restarts = p.Restarts[:(p.N+PackRestart-1)/PackRestart]
	return p
}

// PackBlock packs b's rows, ascending and distinct, once, into the room
// between the ends of arena a (a nil arena, or one past its array, has
// none) — counted in its peak — and copies them into arrays carved from
// m at their size.
func PackBlock(m Mem, a *Arena, b *Block) Packed {
	var k Packer
	k.Start(b.Width, a.spare(), Carve[uint32](m, (b.N+PackRestart-1)/PackRestart))
	for i := 0; i < b.N; i++ {
		k.Put(b.before(i), b.Row(i), nil)
	}
	a.lend(len(k.Data))
	data := Carve[byte](m, len(k.Data))
	k.Data = data[:copy(data, k.Data)]
	return k.Done()
}

// before returns the row before row i, nil before the first.
func (b *Block) before(i int) Row {
	if i == 0 {
		return nil
	}
	return b.Row(i - 1)
}

// Clone returns a copy of p in arrays of its own, at the allocator's
// size class.
func (p *Packed) Clone() Packed {
	return Packed{Width: p.Width, N: p.N, Data: slices.Clone(p.Data), Restarts: slices.Clone(p.Restarts)}
}

// differs returns the first column where row differs from prev, and
// panics unless row comes after prev.
func differs(prev, row Row) int {
	c := 0
	for c < len(row) && row[c] == prev[c] {
		c++
	}
	if c == len(row) || row[c] < prev[c] {
		panic("mapreduce: packed rows out of order or repeated")
	}
	return c
}

// appendRow appends row i of a Packed, coded against prev, to dst.
func appendRow(dst []byte, prev, row Row, i int) []byte {
	if i%PackRestart == 0 {
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		return dst
	}
	c := differs(prev, row)
	dst = binary.AppendUvarint(dst, uint64(row[c]-prev[c])*uint64(len(row))+uint64(c))
	for j := c + 1; j < len(row); j++ {
		dst = binary.AppendVarint(dst, int64(row[j])-int64(prev[j]))
	}
	return dst
}

// Bytes is what the packed rows keep resident: their bytes and their
// restart offsets, at capacity.
func (p *Packed) Bytes() int64 { return int64(cap(p.Data)) + 4*int64(cap(p.Restarts)) }

// Each calls fn(i, row) for rows lo to hi-1 in order, decoding from the
// restart at or before lo into row, Width cells the decode rewrites (new
// ones when nil): row is valid until fn returns.
func (p *Packed) Each(lo, hi int, row Row, fn func(i int, row Row)) {
	if row == nil {
		row = make(Row, p.Width)
	}
	row = row[:p.Width:p.Width]
	if hi = min(hi, p.N); lo >= hi {
		return
	}
	i := lo / PackRestart * PackRestart
	for at := int(p.Restarts[i/PackRestart]); i < hi; i++ {
		if at = p.Next(i, at, row); i >= lo {
			fn(i, row)
		}
	}
}

// Next decodes row i, which starts at Data[at] (row 0 at Restarts[0]),
// into row, which holds row i-1 unless row i is a restart, and returns
// where row i+1 starts.
func (p *Packed) Next(i, at int, row Row) int {
	data, w := p.Data, p.Width
	if w == 0 {
		return at
	} else if i%PackRestart == 0 {
		for j := range row {
			var v uint64
			v, at = uvarint(data, at)
			row[j] = rdf.TermID(v)
		}
		return at
	}
	// The head, then column j's difference up to the last; the one- and
	// two-byte varints, nearly all of them, read in line.
	for j := -1; j < w; {
		v := uint64(data[at])
		if at++; v >= 0x80 {
			u := uint64(data[at])
			if v, at = v&0x7f|u<<7, at+1; u >= 0x80 {
				v, at = uvarint(data, at-2)
			}
		}
		if j < 0 {
			c, gap := splitHead(v, w)
			row[c] += rdf.TermID(gap)
			j = c + 1
		} else {
			row[j] += rdf.TermID(int64(v>>1) ^ -int64(v&1))
			j++
		}
	}
	return at
}

// splitHead splits a row's head, gap·w+c, into c and gap — without a
// division for the common narrow rows.
func splitHead(v uint64, w int) (int, uint64) {
	switch w {
	case 1:
		return 0, v
	case 2:
		return int(v & 1), v >> 1
	case 3:
		return int(v % 3), v / 3
	}
	return int(v % uint64(w)), v / uint64(w)
}

// uvarint reads the uvarint at data[at:] and returns it and the offset
// after it.
func uvarint(data []byte, at int) (uint64, int) {
	v, n := binary.Uvarint(data[at:])
	return v, at + n
}
