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
// by Pack, and only read after.
type Packed struct {
	Width, N int
	// Data is the rows' bytes; its capacity is what it holds.
	Data []byte
	// Restarts[k] is where row k·PackRestart starts in Data.
	Restarts []uint32
}

// Pack packs n ascending distinct rows of the given width, which each
// hands to its argument in order — twice: once to size the bytes, once
// to write them into an array sized to them (at the allocator's size
// class: the capacity is what the array really holds). A row handed over need
// only be valid for the call. It panics if a row does not come after
// the one before it.
func Pack(width, n int, each func(fn func(row Row))) Packed {
	k := (n + PackRestart - 1) / PackRestart
	p := Packed{Width: width, N: n, Restarts: slices.Grow([]uint32(nil), k)[:k]}
	prev, enc := make(Row, width), make([]byte, 0, binary.MaxVarintLen64*(width+1))
	size, i := 0, 0
	each(func(row Row) {
		size += len(appendRow(enc, prev, row, i))
		copy(prev, row)
		i++
	})
	if i != n || size > math.MaxUint32 {
		panic("mapreduce: packing other rows than counted, or 4 GiB of them")
	}
	p.Data, i = slices.Grow([]byte(nil), size), 0
	each(func(row Row) {
		if i%PackRestart == 0 {
			p.Restarts[i/PackRestart] = uint32(len(p.Data))
		}
		p.Data = appendRow(p.Data, prev, row, i)
		copy(prev, row)
		i++
	})
	return p
}

// appendRow appends row i of a Packed, coded against prev, to dst.
func appendRow(dst []byte, prev, row Row, i int) []byte {
	if i%PackRestart == 0 {
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		return dst
	}
	c := 0
	for c < len(row) && row[c] == prev[c] {
		c++
	}
	if c == len(row) || row[c] < prev[c] {
		panic("mapreduce: packed rows out of order or repeated")
	}
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
// restart at or before lo. row is one buffer the decode rewrites: it is
// valid until fn returns.
func (p *Packed) Each(lo, hi int, fn func(i int, row Row)) {
	w := p.Width
	var buf [16]rdf.TermID
	row := Row(buf[:])
	if w > len(buf) {
		row = make(Row, w)
	}
	row = row[:w:w]
	if hi = min(hi, p.N); lo >= hi {
		return
	} else if w == 0 {
		for i := lo; i < hi; i++ {
			fn(i, row)
		}
		return
	}
	i := lo / PackRestart * PackRestart
	data, at := p.Data, int(p.Restarts[i/PackRestart])
	for ; i < hi; i++ {
		if i%PackRestart == 0 {
			for j := range row {
				var v uint64
				v, at = uvarint(data, at)
				row[j] = rdf.TermID(v)
			}
		} else {
			// The head, then column j's difference up to the last; the
			// one- and two-byte varints, nearly all of them, read in line.
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
		}
		if i >= lo {
			fn(i, row)
		}
	}
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
