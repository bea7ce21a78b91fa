package sparql

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
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
	pcol := refine(q)
	// Stable sort: input order among refinement-indistinguishable
	// patterns.
	order := make([]int, len(q.Patterns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pcol[order[a]] < pcol[order[b]] })

	// Rename variables by first occurrence in the canonical order, then
	// encode the canonical query. The encoding is injective — it is the
	// canonical query itself — so equal digests (collisions aside) mean
	// equal canonical queries.
	rank := make(map[string]int)
	var enc []byte
	for _, i := range order {
		tp := q.Patterns[i]
		for _, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				r, ok := rank[pt.Var]
				if !ok {
					r = len(rank)
					rank[pt.Var] = r
				}
				enc = appendUvarint(append(enc, 'v'), r)
				continue
			}
			enc = appendUvarint(append(enc, 'c', byte(pt.Term.Kind)), len(pt.Term.Value))
			enc = append(enc, pt.Term.Value...)
		}
		enc = append(enc, '.')
	}
	enc = append(enc, 's')
	for _, v := range q.Select {
		if r, ok := rank[v]; ok {
			enc = appendUvarint(enc, r)
			continue
		}
		// A selected variable absent from every pattern (an invalid
		// query — Validate rejects it) must still encode distinctly, so
		// a malformed query can never share a fingerprint with a valid
		// one.
		enc = append(enc, 'u')
		enc = append(enc, v...)
		enc = append(enc, 0)
	}
	h := sha256.Sum256(enc)
	return Canonical{Key: hex.EncodeToString(h[:])}
}

// color is a refinement color: a digest of what it stands for. 64 bits
// are plenty — a collision can only merge two color classes, that is,
// leave one more tie to input order.
type color uint64

// colorOf digests b (FNV-1a).
func colorOf(b []byte) color {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return color(h)
}

func appendColor(b []byte, c color) []byte { return binary.LittleEndian.AppendUint64(b, uint64(c)) }

// refine runs color refinement over q's patterns and variables and
// returns the patterns' colors once the variable partition is stable. A
// constant is no refined term but a fixed color: its kind and value.
func refine(q *Query) []color {
	// Number the variables and give each its starting color, which every
	// later color of the variable digests again: its positions in SELECT.
	vars := make(map[string]int)
	var seed [][]byte
	at := make([][3]int, len(q.Patterns)) // variable per position, -1 for a constant
	for i, tp := range q.Patterns {
		for p, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if !pt.IsVar {
				at[i][p] = -1
				continue
			}
			n, ok := vars[pt.Var]
			if !ok {
				n = len(seed)
				vars[pt.Var] = n
				seed = append(seed, []byte{'v'})
			}
			at[i][p] = n
		}
	}
	for i, v := range q.Select {
		if n, ok := vars[v]; ok {
			seed[n] = appendUvarint(seed[n], i)
		}
	}
	tcol := make([]color, len(seed))
	for n := range tcol {
		tcol[n] = colorOf(seed[n])
	}

	pcol := make([]color, len(q.Patterns))
	var buf []byte
	colorPatterns := func() {
		for i, tp := range q.Patterns {
			buf = buf[:0]
			for p, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
				if n := at[i][p]; n >= 0 {
					buf = appendColor(append(buf, 't'), tcol[n])
				} else {
					buf = append(append(buf, 'c', byte(pt.Term.Kind)), pt.Term.Value...)
				}
				buf = append(buf, 0)
			}
			pcol[i] = colorOf(buf)
		}
	}
	// occs[n] collects variable n's occurrences of a round.
	type occ struct {
		pattern color
		pos     int
	}
	occs := make([][]occ, len(tcol))
	seen := make(map[color]struct{}, len(tcol))
	distinct := 0
	for round := 0; round <= len(q.Patterns)+1; round++ {
		colorPatterns()
		for n := range occs {
			occs[n] = occs[n][:0]
		}
		for i := range q.Patterns {
			for p, n := range at[i] {
				if n >= 0 {
					occs[n] = append(occs[n], occ{pcol[i], p})
				}
			}
		}
		clear(seen)
		for n, os := range occs {
			slices.SortFunc(os, func(a, b occ) int {
				return cmp.Or(cmp.Compare(a.pattern, b.pattern), cmp.Compare(a.pos, b.pos))
			})
			buf = append(buf[:0], seed[n]...)
			for _, o := range os {
				buf = append(appendColor(buf, o.pattern), byte(o.pos))
			}
			tcol[n] = colorOf(buf)
			seen[tcol[n]] = struct{}{}
		}
		if len(seen) == distinct {
			break // partition stable: no class split this round
		}
		distinct = len(seen)
	}
	colorPatterns()
	return pcol
}

// appendUvarint appends x in a self-delimiting binary form, keeping the
// canonical encoding unambiguous.
func appendUvarint(buf []byte, x int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(x))]...)
}
