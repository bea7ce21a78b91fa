package sparql

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Canonical is the canonical form of a query, the unit the plan cache
// keys on. Canonicalization renames variables by first occurrence in a
// deterministically ordered pattern list, so that queries differing only
// in variable names or pattern order are recognized as the same query.
//
// Key digests the canonical query: the canonically ordered patterns
// with variables replaced by canonical ordinals and constants written
// out, plus the SELECT list. Equal Keys imply equal canonical queries
// (same pattern multiset up to variable renaming, same constants, same
// SELECT order), so a plan prepared for one query with a given Key is
// valid — and chooses the same operators, costs and statistics — for
// every other query with that Key. The query Name is a display label
// and takes no part in it.
type Canonical struct {
	// Key is the hex fingerprint of the canonical query: the full,
	// semantics-preserving plan-cache key.
	Key string
}

// Canonicalize computes the canonical form of q. It does not modify q.
//
// The pattern order is fixed by color refinement (1-WL) on the
// pattern/variable incidence structure: each round re-colors a pattern
// by what stands at its three positions — a variable's color, or a
// constant's kind and value — and a variable by its places in the SELECT
// list plus the multiset of its (pattern color, position) occurrences,
// until the variable partition stabilizes. Colors are functions of
// structure and constants alone, so the induced pattern order — and
// therefore the whole canonical form — is invariant under variable
// renaming and pattern permutation. Patterns refinement cannot tell
// apart are structurally interchangeable for every query shape in
// practice; in the rare symmetric cases 1-WL misjudges, ties fall back
// to input order, which can only miss a cache hit, never produce a wrong
// one (the Key digests the full canonical query).
func Canonicalize(q *Query) Canonical {
	k := Key(q)
	return Canonical{Key: string(k[:])}
}

// KeyLen is the length of a Key: a hex SHA-256 digest.
const KeyLen = 2 * sha256.Size

// Key returns Canonicalize(q).Key as an array, allocating nothing for a
// query of up to stackPatterns patterns: the canonical encoding goes
// straight into the hash.
func Key(q *Query) [KeyLen]byte {
	var atBuf [stackPatterns][3]int32
	var nameBuf [3 * stackPatterns]string
	at, names := numberVars(q.Patterns, atBuf[:0], nameBuf[:0])
	var pcolBuf [stackPatterns]color
	pcol := refine(q, at, names, pcolBuf[:0])
	// Stable sort: input order among refinement-indistinguishable
	// patterns.
	var orderBuf [stackPatterns]int32
	order := orderBuf[:0]
	for i := range at {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(pcol[a], pcol[b]) })

	// Rename variables by first occurrence in the canonical order (rank
	// is 1 + the new number, 0 before the first), then encode the
	// canonical query. The encoding is injective — it is the canonical
	// query itself — so equal digests (collisions aside) mean equal
	// canonical queries.
	var rankBuf [3 * stackPatterns]uint64
	rank, ranked := append(rankBuf[:0], make([]uint64, len(names))...), uint64(0)
	h := sha256.New()
	var buf [64]byte
	for _, i := range order {
		tp := q.Patterns[i]
		for k, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if n := at[i][k]; n >= 0 {
				if rank[n] == 0 {
					ranked, rank[n] = ranked+1, ranked+1
				}
				h.Write(binary.AppendUvarint(append(buf[:0], 'v'), rank[n]-1))
				continue
			}
			h.Write(binary.AppendUvarint(append(buf[:0], 'c', byte(pt.Term.Kind)), uint64(len(pt.Term.Value))))
			for v := pt.Term.Value; len(v) > 0; { // through buf: []byte(v) would copy v to the heap
				n := copy(buf[:], v)
				h.Write(buf[:n])
				v = v[n:]
			}
		}
		h.Write(append(buf[:0], '.'))
	}
	h.Write(append(buf[:0], 's'))
	for _, v := range q.Select {
		if n := slices.Index(names, v); n >= 0 {
			h.Write(binary.AppendUvarint(buf[:0], rank[n]-1))
		} else {
			// A selected variable absent from every pattern (an invalid
			// query — Validate rejects it) must still encode distinctly,
			// so a malformed query can never share a fingerprint with a
			// valid one.
			h.Write(append(append([]byte{'u'}, v...), 0))
		}
	}
	var sum [sha256.Size]byte
	var key [KeyLen]byte
	hex.Encode(key[:], h.Sum(sum[:0]))
	return key
}

// color is a refinement color: an FNV-1a digest of what it stands for.
// 64 bits are plenty — a collision can only merge two color classes,
// that is, leave one more tie to input order.
type color uint64

// blank is the digest of no bytes.
const blank color = 14695981039346656037

func (c color) add(b byte) color { return (c ^ color(b)) * 1099511628211 }

func (c color) addString(s string) color {
	for i := range len(s) {
		c = c.add(s[i])
	}
	return c
}

// addColor digests x's eight bytes, little-endian.
func (c color) addColor(x color) color {
	for i := 0; i < 64; i += 8 {
		c = c.add(byte(x >> i))
	}
	return c
}

// refine runs color refinement over q's patterns and variables — at and
// names as numberVars numbers them — and appends to pcol the patterns'
// colors once the variable partition is stable. A constant is no
// refined term but a fixed color: its kind and value.
func refine(q *Query, at [][3]int32, names []string, pcol []color) []color {
	// Each variable starts from a color that every later color of it
	// digests again: its positions in SELECT.
	var seedBuf, tcolBuf, sortedBuf [3 * stackPatterns]color
	seed := seedBuf[:0]
	for range names {
		seed = append(seed, blank.add('v'))
	}
	var tmp [binary.MaxVarintLen64]byte
	for i, v := range q.Select {
		if n := slices.Index(names, v); n >= 0 {
			seed[n] = seed[n].addString(string(binary.AppendUvarint(tmp[:0], uint64(i))))
		}
	}
	tcol := append(tcolBuf[:0], seed...)
	colorPatterns := func() {
		pcol = pcol[:0]
		for i, tp := range q.Patterns {
			c := blank
			for k, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
				if n := at[i][k]; n >= 0 {
					c = c.add('t').addColor(tcol[n]).add(0)
				} else {
					c = c.add('c').add(byte(pt.Term.Kind)).addString(pt.Term.Value).add(0)
				}
			}
			pcol = append(pcol, c)
		}
	}
	// A round re-colors each variable by its seed and its occurrences,
	// sorted by (pattern color, position).
	type occ struct {
		v, pos  int32
		pattern color
	}
	var occBuf [3 * stackPatterns]occ
	occs, distinct := occBuf[:0], 0
	for round := 0; round <= len(q.Patterns)+1; round++ {
		colorPatterns()
		occs = occs[:0]
		for i, a := range at {
			for p, n := range a {
				if n >= 0 {
					occs = append(occs, occ{n, int32(p), pcol[i]})
				}
			}
		}
		slices.SortFunc(occs, func(a, b occ) int {
			return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.pattern, b.pattern), cmp.Compare(a.pos, b.pos))
		})
		copy(tcol, seed)
		for _, o := range occs {
			tcol[o.v] = tcol[o.v].addColor(o.pattern).add(byte(o.pos))
		}
		sorted := append(sortedBuf[:0], tcol...)
		slices.Sort(sorted)
		n := len(slices.Compact(sorted))
		if n == distinct {
			break // partition stable: no class split this round
		}
		distinct = n
	}
	colorPatterns()
	return pcol
}
