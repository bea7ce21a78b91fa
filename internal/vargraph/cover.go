package vargraph

import (
	"math/bits"
	"sort"
)

// Decompositions enumerates the clique decompositions of g under method
// m (the CLIQUEDECOMPOSITIONS step of Algorithm 1), stopping once it has
// maxCovers of them (0 means no cap). It reports whether that count cut
// the enumeration short. The budget is a count, not a clock, so results
// are deterministic for a given graph, method and cap on every machine.
func Decompositions(g *Graph, m Method, maxCovers int) ([]Decomposition, bool) {
	n := g.Len()
	if n <= 1 {
		return nil, false
	}
	var pool []Clique
	if m.Maximal() {
		pool = MaximalCliques(g)
	} else {
		pool = PartialCliques(g)
	}
	if len(pool) == 0 {
		return nil, false
	}
	e := &coverEnum{pool: enumOrder(pool), n: n, maxSize: n - 1, maxCovers: maxCovers}
	if m.Exact() {
		if m.Minimum() {
			return e.minimize(e.exactCovers)
		}
		return e.exactCovers(e.maxSize)
	}
	if m.Minimum() {
		return e.minimize(e.simpleCovers)
	}
	return e.simpleCovers(e.maxSize)
}

// enumOrder orders a clique pool for enumeration: larger cliques first
// (ties broken lexicographically), so that under a budget the covers
// found first are the small ones — the ones yielding flat plans.
// Emitted decompositions are re-canonicalized by build().
func enumOrder(pool []Clique) []Clique {
	out := append([]Clique(nil), pool...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Nodes, out[j].Nodes
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// coverEnum enumerates covers of the node set {0..n-1} by cliques from
// pool. Node sets are manipulated as bitmasks (graphs here never exceed
// 64 nodes: queries have at most a few dozen triple patterns).
type coverEnum struct {
	pool      []Clique
	n         int
	maxSize   int
	maxCovers int      // stop at this many covers; 0, never reached, means no cap
	masks     []uint64 // lazily built per-clique bitmasks
	full      uint64
}

func (e *coverEnum) init() {
	if e.masks != nil {
		return
	}
	e.masks = make([]uint64, len(e.pool))
	for i, c := range e.pool {
		var m uint64
		for _, nd := range c.Nodes {
			m |= 1 << uint(nd)
		}
		e.masks[i] = m
	}
	e.full = (uint64(1) << uint(e.n)) - 1
}

// minimize runs enum with increasing size caps until covers appear,
// returning exactly the minimum-size covers.
func (e *coverEnum) minimize(enum func(cap int) ([]Decomposition, bool)) ([]Decomposition, bool) {
	for k := 1; k <= e.maxSize; k++ {
		ds, trunc := enum(k)
		if len(ds) > 0 || trunc {
			return ds, trunc
		}
	}
	return nil, false
}

// simpleCovers enumerates all subsets of the pool of size <= sizeCap
// that cover every node (simple set covers, Def. 3.3). Enumeration is a
// DFS over pool indexes; it prunes branches whose remaining cliques
// cannot complete the cover.
func (e *coverEnum) simpleCovers(sizeCap int) ([]Decomposition, bool) {
	e.init()
	// suffix[i] = union of masks[i:], for the completion prune.
	suffix := make([]uint64, len(e.pool)+1)
	for i := len(e.pool) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] | e.masks[i]
	}
	var out []Decomposition
	truncated := false
	chosen := make([]int, 0, sizeCap)
	var rec func(idx int, covered uint64)
	rec = func(idx int, covered uint64) {
		if truncated {
			return
		}
		if covered == e.full && len(chosen) > 0 {
			out = append(out, e.build(chosen))
			if len(out) == e.maxCovers {
				truncated = true
				return
			}
			// Keep extending: supersets within the size cap are
			// further (redundant) covers, still valid under Def 3.3.
		}
		if len(chosen) == sizeCap {
			return
		}
		for j := idx; j < len(e.pool); j++ {
			if covered|suffix[j] != e.full {
				return // later cliques cannot complete the cover
			}
			chosen = append(chosen, j)
			rec(j+1, covered|e.masks[j])
			chosen = chosen[:len(chosen)-1]
			if truncated {
				return
			}
		}
	}
	rec(0, 0)
	return out, truncated
}

// exactCovers enumerates all partitions of the node set into disjoint
// pool cliques of size <= sizeCap, Algorithm-X style: always branch on
// the lowest uncovered node, so each exact cover is produced once.
func (e *coverEnum) exactCovers(sizeCap int) ([]Decomposition, bool) {
	e.init()
	// byNode[v] lists pool indexes of cliques containing node v.
	byNode := make([][]int, e.n)
	for i, m := range e.masks {
		for v := 0; v < e.n; v++ {
			if m&(1<<uint(v)) != 0 {
				byNode[v] = append(byNode[v], i)
			}
		}
	}
	var out []Decomposition
	truncated := false
	chosen := make([]int, 0, sizeCap)
	var rec func(covered uint64)
	rec = func(covered uint64) {
		if truncated {
			return
		}
		if covered == e.full {
			if len(chosen) > 0 {
				out = append(out, e.build(chosen))
				truncated = len(out) == e.maxCovers
			}
			return
		}
		if len(chosen) == sizeCap {
			return
		}
		v := bits.TrailingZeros64(^covered) // lowest uncovered node
		for _, j := range byNode[v] {
			if e.masks[j]&covered != 0 {
				continue // overlaps: not exact
			}
			chosen = append(chosen, j)
			rec(covered | e.masks[j])
			chosen = chosen[:len(chosen)-1]
			if truncated {
				return
			}
		}
	}
	rec(0)
	return out, truncated
}

// build materializes a decomposition from chosen pool indexes, sorted so
// the result is canonical.
func (e *coverEnum) build(chosen []int) Decomposition {
	d := make(Decomposition, len(chosen))
	for i, j := range chosen {
		d[i] = e.pool[j]
	}
	// chosen is index-ascending; exactCovers may pick out of order.
	sortCliques(d)
	return d
}
