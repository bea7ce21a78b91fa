package sparql

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"

	"cliquesquare/internal/rdf"
)

// Canonical is the canonical form of a query, the unit the plan cache
// keys on. Canonicalization renames variables by first occurrence in a
// deterministically ordered pattern list and lifts constants out into a
// binding vector, so that queries differing only in variable names or
// pattern order — and, at the Shape level, only in their constants —
// are recognized as the same query shape.
//
// Two fingerprints are derived:
//
//   - Shape digests the constant-free structure: the canonically
//     ordered patterns with variables replaced by canonical ordinals
//     and constants by binding-slot ordinals, plus the SELECT list.
//     Alpha-equivalent queries with different constants share a Shape.
//   - Key digests the Shape together with the binding vector. Equal
//     Keys imply equal canonical queries (same pattern multiset up to
//     variable renaming, same constants, same SELECT order), so a plan
//     prepared for one query with a given Key is valid — and chooses
//     the same operators, costs and statistics — for every other query
//     with that Key. Key is what the plan cache indexes on.
//
// The query Name is a display label and takes part in neither digest.
type Canonical struct {
	// Shape is the hex fingerprint of the constant-free query shape.
	Shape string
	// Bindings are the lifted constants in binding-slot order (slot i
	// holds the i-th distinct constant of the canonical pattern order).
	Bindings []rdf.Term
	// Key is the hex fingerprint of shape plus bindings: the full,
	// semantics-preserving plan-cache key.
	Key string
}

// Canonicalize computes the canonical form of q. It does not modify q.
//
// The pattern order is fixed by color refinement (1-WL) on the
// term/pattern incidence structure: each round re-colors a pattern by
// the colors of its three positions and a term by what it is plus the
// multiset of its (pattern color, position) occurrences, until the term
// partition stabilizes. It runs twice. In the first run a constant is an
// anonymous term like a variable — it starts from its kind, a variable
// from its places in the SELECT list — so the colors, the primary sort
// key, are functions of exactly the structure Shape encodes: queries
// that differ in their constants alone order their patterns alike, which
// is what makes Shape independent of the constants. The second run
// colors constants by value and breaks the first one's ties. Colors are
// functions of structure alone, so the induced pattern order — and
// therefore the whole canonical form — is invariant under variable
// renaming and pattern permutation. Patterns refinement cannot tell
// apart are structurally interchangeable for every query shape in
// practice; in the rare symmetric cases 1-WL misjudges, ties fall back
// to input order, which can only miss a cache hit, never produce a wrong
// one (the Key digests the full canonical query).
func Canonicalize(q *Query) Canonical {
	shapeColor := refine(q, false)
	fullColor := refine(q, true)
	// Stable sort: input order among refinement-indistinguishable
	// patterns.
	order := make([]int, len(q.Patterns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if shapeColor[i] != shapeColor[j] {
			return shapeColor[i] < shapeColor[j]
		}
		return fullColor[i] < fullColor[j]
	})

	// Rename variables by first occurrence in the canonical order and
	// lift constants into binding slots, then encode the canonical
	// query. The encoding is injective — it is the canonical query
	// itself — so equal digests (collisions aside) mean equal canonical
	// queries.
	rank := make(map[string]int)
	slot := make(map[rdf.Term]int)
	var bindings []rdf.Term
	var shape []byte
	for _, i := range order {
		tp := q.Patterns[i]
		for _, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				r, ok := rank[pt.Var]
				if !ok {
					r = len(rank)
					rank[pt.Var] = r
				}
				shape = appendUvarint(append(shape, 'v'), r)
				continue
			}
			s, ok := slot[pt.Term]
			if !ok {
				s = len(bindings)
				slot[pt.Term] = s
				bindings = append(bindings, pt.Term)
			}
			shape = appendUvarint(append(shape, 'b'), s)
		}
		shape = append(shape, '.')
	}
	shape = append(shape, 's')
	for _, v := range q.Select {
		if r, ok := rank[v]; ok {
			shape = appendUvarint(shape, r)
			continue
		}
		// A selected variable absent from every pattern (an invalid
		// query — Validate rejects it) must still encode distinctly, so
		// a malformed query can never share a fingerprint with a valid
		// one.
		shape = append(shape, 'u')
		shape = append(shape, v...)
		shape = append(shape, 0)
	}

	h := sha256.Sum256(shape)
	c := Canonical{Shape: hex.EncodeToString(h[:]), Bindings: bindings}
	kh := sha256.New()
	kh.Write(shape)
	for _, t := range bindings {
		kh.Write([]byte{0, byte(t.Kind)})
		kh.Write([]byte(t.Value))
	}
	c.Key = hex.EncodeToString(kh.Sum(nil))
	return c
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

// refine runs color refinement over q's patterns and terms and returns
// the patterns' colors once the term partition is stable. The refined
// terms are the variables and — unless byValue — the distinct constants;
// byValue, a constant is no term of its own but a fixed color, its kind
// and value.
func refine(q *Query, byValue bool) []color {
	// Number the terms and give each its starting color, which every
	// later color of the term digests again: 'v' and the variable's
	// positions in SELECT, 'c' and the constant's kind.
	terms := make(map[PatternTerm]int)
	var seed [][]byte
	at := make([][3]int, len(q.Patterns)) // term per position, -1 for a constant by value
	for i, tp := range q.Patterns {
		for p, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if byValue && !pt.IsVar {
				at[i][p] = -1
				continue
			}
			n, ok := terms[pt]
			if !ok {
				n = len(seed)
				terms[pt] = n
				if pt.IsVar {
					seed = append(seed, []byte{'v'})
				} else {
					seed = append(seed, []byte{'c', byte(pt.Term.Kind)})
				}
			}
			at[i][p] = n
		}
	}
	for i, v := range q.Select {
		if n, ok := terms[Variable(v)]; ok {
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
	// occs[n] collects term n's occurrences of a round.
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
// shape encoding unambiguous.
func appendUvarint(buf []byte, x int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(x))]...)
}
