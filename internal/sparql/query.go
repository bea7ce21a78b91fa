// Package sparql implements the Basic Graph Pattern (conjunctive) dialect
// of SPARQL used by CliqueSquare: SELECT queries whose WHERE clause is a
// set of triple patterns. It provides the query model, a parser for a
// practical SPARQL subset, and structural analyses (variables, join
// variables, connected components).
package sparql

import (
	"fmt"
	"sort"
	"strings"

	"cliquesquare/internal/rdf"
)

// PatternTerm is one position of a triple pattern: either a variable
// (IsVar true, Var holds the name without '?') or a constant RDF term.
type PatternTerm struct {
	IsVar bool
	Var   string
	Term  rdf.Term
}

// Variable returns a variable pattern term.
func Variable(name string) PatternTerm { return PatternTerm{IsVar: true, Var: name} }

// Constant returns a constant pattern term.
func Constant(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

// String renders the term in SPARQL syntax: a literal's `\` and `"` are
// escaped the way the tokenizer reads them back (a backslash takes the
// next byte as it is). rdf.Term.String — the dictionary's rendered key
// — escapes nothing.
func (pt PatternTerm) String() string { return string(pt.Append(nil)) }

// Append appends the term's SPARQL rendering, the bytes String returns,
// to b.
func (pt PatternTerm) Append(b []byte) []byte {
	switch {
	case pt.IsVar:
		return append(append(b, '?'), pt.Var...)
	case pt.Term.Kind == rdf.Literal:
		b = append(b, '"')
		for i := 0; i < len(pt.Term.Value); i++ {
			if c := pt.Term.Value[i]; c == '\\' || c == '"' {
				b = append(b, '\\')
			}
			b = append(b, pt.Term.Value[i])
		}
		return append(b, '"')
	}
	return pt.Term.AppendRendered(b)
}

// TriplePattern is a SPARQL triple pattern (s p o) where each position is
// a variable or a constant.
type TriplePattern struct {
	S, P, O PatternTerm
}

// At returns the pattern term at pos.
func (tp TriplePattern) At(pos rdf.Pos) PatternTerm {
	switch pos {
	case rdf.SPos:
		return tp.S
	case rdf.PPos:
		return tp.P
	default:
		return tp.O
	}
}

// Vars returns the distinct variable names of the pattern in s,p,o order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := make(map[string]bool, 3)
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar && !seen[pt.Var] {
			seen[pt.Var] = true
			out = append(out, pt.Var)
		}
	}
	return out
}

// String renders the pattern in SPARQL syntax.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// Query is a BGP query: SELECT ?v1 ... ?vm WHERE { t1 ... tn }.
type Query struct {
	// Name is an optional label (e.g. "Q7") used in reports.
	Name string
	// Select lists the distinguished variables, without '?'.
	Select []string
	// Patterns are the WHERE triple patterns.
	Patterns []TriplePattern
}

// Vars returns all distinct variables of the query, sorted.
func (q *Query) Vars() []string {
	seen := make(map[string]bool)
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// JoinVars returns the variables occurring in at least two distinct
// patterns (the join variables), sorted.
func (q *Query) JoinVars() []string {
	count := make(map[string]int)
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			count[v]++
		}
	}
	var out []string
	for v, c := range count {
		if c >= 2 {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the query in SPARQL syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT")
	for _, v := range q.Select {
		b.WriteString(" ?")
		b.WriteString(v)
	}
	b.WriteString(" WHERE {")
	for _, tp := range q.Patterns {
		b.WriteString(" ")
		b.WriteString(tp.String())
	}
	b.WriteString(" }")
	return b.String()
}

// Validate checks structural well-formedness: at least one pattern, every
// selected variable occurring in the WHERE clause, and no cartesian
// product (the pattern graph must be variable-connected, as CliqueSquare
// assumes ×-free queries).
func (q *Query) Validate() error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("sparql: query %s has no triple patterns", q.Name)
	}
	vars := make(map[string]bool)
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			vars[v] = true
		}
	}
	for _, v := range q.Select {
		if !vars[v] {
			return fmt.Errorf("sparql: selected variable ?%s does not occur in WHERE", v)
		}
	}
	if cc := q.ConnectedComponents(); len(cc) > 1 {
		return fmt.Errorf("sparql: query is a cartesian product of %d components", len(cc))
	}
	return nil
}

// ConnectedComponents partitions pattern indexes into groups connected by
// shared variables. A well-formed (×-free) query has exactly one group.
func (q *Query) ConnectedComponents() [][]int {
	n := len(q.Patterns)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVar := make(map[string][]int)
	for i, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			byVar[v] = append(byVar[v], i)
		}
	}
	for _, idxs := range byVar {
		for i := 1; i < len(idxs); i++ {
			union(idxs[0], idxs[i])
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
