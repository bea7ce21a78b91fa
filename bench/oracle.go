package main

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"strings"

	"cliquesquare"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
)

// digest identifies an answer up to row order: the row count plus the
// sum of per-row hashes. Hashes are seeded per process, so digests only
// compare within one run.
type digest struct {
	rows int
	sum  uint64
}

var digestSeed = maphash.MakeSeed()

func (d *digest) add(row []string) {
	h := uint64(len(row))
	for _, cell := range row {
		h = h*0x9E3779B97F4A7C15 + maphash.String(digestSeed, cell)
	}
	// Finalize each row before summing so related rows cannot cancel.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	d.sum += h
	d.rows++
}

func digestRows(rows [][]string) digest {
	var d digest
	for _, row := range rows {
		d.add(row)
	}
	return d
}

// oracle holds the expected digest of every request key in both data
// states of the commit stream (0 = state A, 1 = state B).
type oracle struct {
	state [2]map[string]digest
}

// stateOf maps a data version to the stream state it holds: the engine
// starts at version 1 in state A and every commit flips the state.
func stateOf(version uint64) int { return int((version - 1) & 1) }

// buildOracle answers every request key of the mix on a fresh
// sequential engine with no plan or result cache, loaded with the
// data in state A. State B is only produced when the workload
// reads while the stream runs. The cold mix is answered by six
// generalized queries (the university constant turned into an output
// variable, rows bucketed by it), so one execution covers every
// variant and takes a different plan than the variants themselves; a
// seeded sample of variants is additionally checked by the naive
// reference evaluator.
func buildOracle(w workload, univ int, seed int64, mx *mix, t *tally) (*oracle, error) {
	g, strm := generate(univ)
	eng, err := cliquesquare.NewEngine(g, cliquesquare.Options{Nodes: nodes, Parallelism: -1, PlanCacheSize: -1})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	o := &oracle{}
	states := 1
	if w.beside {
		states = 2
	}
	for s := 0; s < states; s++ {
		if s == 1 {
			if _, err := eng.ApplyBatch(strm.toB.batch); err != nil {
				return nil, err
			}
		}
		o.state[s] = make(map[string]digest)
		for i, name := range mx.names {
			if !w.cold {
				r, err := eng.Query(mx.srcs[i])
				if err != nil {
					return nil, fmt.Errorf("oracle %s: %w", name, err)
				}
				o.state[s][name] = digestRows(r.Rows)
				continue
			}
			if err := o.addVariants(eng, s, name, mx.srcs[i], univ); err != nil {
				return nil, err
			}
		}
	}
	if w.cold {
		checkByReference(g, univ, seed, mx, o, t)
	}
	return o, nil
}

// addVariants runs the generalized form of a constant-bearing template
// and files one digest per university constant.
func (o *oracle) addVariants(eng *cliquesquare.Engine, state int, name, src string, univ int) error {
	gen := strings.ReplaceAll(src, "<"+lubm.UniversityIRI(0)+">", "?UC")
	gen = strings.ReplaceAll(gen, `"University3"`, "?UC")
	gen = strings.Replace(gen, " WHERE", " ?UC WHERE", 1)
	r, err := eng.Query(gen)
	if err != nil {
		return fmt.Errorf("oracle %s (generalized): %w", name, err)
	}
	constOf := make(map[string]int, 2*univ)
	for c := 0; c < univ; c++ {
		constOf[rdf.NewIRI(lubm.UniversityIRI(c)).String()] = c
		constOf[rdf.NewLiteral(fmt.Sprintf("University%d", c)).String()] = c
	}
	per := make([]digest, univ)
	for _, row := range r.Rows {
		last := len(row) - 1
		if c, ok := constOf[row[last]]; ok {
			per[c].add(row[:last])
		}
	}
	for c, d := range per {
		o.state[state][variantKey(name, c)] = d
	}
	return nil
}

// referenceTemplates are the constant-bearing templates small enough
// for the naive evaluator (its cost is one full scan of the graph per
// partial binding).
var referenceTemplates = map[string]bool{"Q2": true, "Q3": true, "Q4": true}

// checkByReference evaluates a seeded sample of variants with
// internal/refeval and compares them with the oracle's digests. The
// evaluator runs over the triples that match at least one pattern's
// constants (no other triple can take part in an answer) with the
// patterns ordered so each one shares a variable with those before it.
func checkByReference(g *rdf.Graph, univ int, seed int64, mx *mix, o *oracle, t *tally) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pool []int
	for i, name := range mx.names {
		if referenceTemplates[name] {
			pool = append(pool, i)
		}
	}
	sort.Ints(pool)
	for k := 0; k < refevalVariants; k++ {
		i := pool[k%len(pool)]
		c := rng.Intn(univ)
		q, err := sparql.Parse(variant(mx.srcs[i], c))
		key := variantKey(mx.names[i], c)
		if err != nil {
			t.check(false, "reference %s: %v", key, err)
			continue
		}
		q.Patterns = connectedOrder(q.Patterns)
		sub := matchingSubgraph(g, q)
		var got digest
		for _, row := range refeval.Eval(sub, q) {
			cells := make([]string, len(row))
			for j, id := range row {
				cells[j] = sub.Dict.Term(id).String()
			}
			got.add(cells)
		}
		t.check(got == o.state[0][key], "reference %s: refeval %v, oracle %v", key, got, o.state[0][key])
	}
}

// matchingSubgraph copies the triples of g that match the constants of
// at least one pattern of q.
func matchingSubgraph(g *rdf.Graph, q *sparql.Query) *rdf.Graph {
	type want struct {
		ids [3]rdf.TermID // NoTerm = any
	}
	var wants []want
	for _, tp := range q.Patterns {
		var w want
		ok := true
		for i, pt := range []sparql.PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				continue
			}
			if w.ids[i], ok = g.Dict.Lookup(pt.Term); !ok {
				break
			}
		}
		if ok {
			wants = append(wants, w)
		}
	}
	sub := rdf.NewGraph()
	for _, tr := range g.Triples() {
		for _, w := range wants {
			if (w.ids[0] == rdf.NoTerm || w.ids[0] == tr.S) &&
				(w.ids[1] == rdf.NoTerm || w.ids[1] == tr.P) &&
				(w.ids[2] == rdf.NoTerm || w.ids[2] == tr.O) {
				sub.AddTerms(g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O))
				break
			}
		}
	}
	return sub
}

// connectedOrder puts the most constrained pattern first and then
// always a pattern that shares a variable with the ones already
// placed, so the reference evaluator never builds a cross product.
func connectedOrder(ps []sparql.TriplePattern) []sparql.TriplePattern {
	rest := append([]sparql.TriplePattern(nil), ps...)
	bound := make(map[string]bool)
	score := func(tp sparql.TriplePattern) int {
		s := 0
		if !tp.S.IsVar {
			s += 4
		}
		if !tp.O.IsVar {
			s++
			if tp.P.IsVar || tp.P.Term.Value != sparql.RDFType {
				s += 3 // an entity constant selects more than a class does
			}
		}
		for _, v := range tp.Vars() {
			if bound[v] {
				s += 8
			}
		}
		return s
	}
	var out []sparql.TriplePattern
	for len(rest) > 0 {
		best := 0
		for i := range rest {
			if score(rest[i]) > score(rest[best]) {
				best = i
			}
		}
		for _, v := range rest[best].Vars() {
			bound[v] = true
		}
		out = append(out, rest[best])
		rest = append(rest[:best], rest[best+1:]...)
	}
	return out
}
