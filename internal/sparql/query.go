// Package sparql implements the Basic Graph Pattern (conjunctive) dialect
// of SPARQL used by CliqueSquare: SELECT queries whose WHERE clause is a
// set of triple patterns. It provides the query model, a parser for a
// practical SPARQL subset, and structural analyses (variables, join
// variables, connected components).
package sparql

import (
	"fmt"
	"slices"
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
// escaped the way the scanner reads them back (a backslash takes the
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

// Vars returns the distinct variable names of the pattern in s,p,o
// order, in a slice of its own.
func (tp TriplePattern) Vars() []string {
	_, names := numberVars([]TriplePattern{tp}, nil, make([]string, 0, 3))
	return names
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
	_, names := numberVars(q.Patterns, nil, nil)
	slices.Sort(names)
	return names
}

// JoinVars returns the variables occurring in at least two distinct
// patterns (the join variables), sorted.
func (q *Query) JoinVars() []string {
	at, names := numberVars(q.Patterns, nil, nil)
	var out []string
	for n, v := range names {
		in := 0
		for _, a := range at {
			if slices.Contains(a[:], int32(n)) {
				in++
			}
		}
		if in >= 2 {
			out = append(out, v)
		}
	}
	slices.Sort(out)
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
// assumes ×-free queries). It allocates nothing for a valid query of up
// to stackPatterns patterns.
func (q *Query) Validate() error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("sparql: query %s has no triple patterns", q.Name)
	}
	var atBuf [stackPatterns][3]int32
	var nameBuf [3 * stackPatterns]string
	at, names := numberVars(q.Patterns, atBuf[:0], nameBuf[:0])
	for _, v := range q.Select {
		if !slices.Contains(names, v) {
			return fmt.Errorf("sparql: selected variable ?%s does not occur in WHERE", v)
		}
	}
	var parent [4 * stackPatterns]int32 // the patterns, then up to three variables each
	if _, c := link(at, len(names), parent[:0]); c > 1 {
		return fmt.Errorf("sparql: query is a cartesian product of %d components", c)
	}
	return nil
}

// ConnectedComponents partitions pattern indexes into groups connected by
// shared variables, each ascending, ordered by their first index. A
// well-formed (×-free) query has exactly one group.
func (q *Query) ConnectedComponents() [][]int {
	at, names := numberVars(q.Patterns, nil, nil)
	parent, c := link(at, len(names), nil)
	out := make([][]int, 0, c)
	group := make([]int, len(parent)) // per root: 1 + its group's index
	for i := range at {
		r := find(parent, int32(i))
		if group[r] == 0 {
			out, group[r] = append(out, nil), len(out)+1
		}
		out[group[r]-1] = append(out[group[r]-1], i)
	}
	return out
}

// stackPatterns is how many patterns the scratch arrays of Parse,
// Validate and Key hold on the stack; a larger query spills them.
const stackPatterns = 16

// numberVars numbers the variables of ps by first occurrence, in s, p, o
// order: it appends to at, per pattern, each position's variable number
// (-1 for a constant), and to names each number's variable.
func numberVars(ps []TriplePattern, at [][3]int32, names []string) ([][3]int32, []string) {
	for _, tp := range ps {
		a := [3]int32{-1, -1, -1}
		for k, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if n := slices.Index(names, pt.Var); pt.IsVar && n >= 0 {
				a[k] = int32(n)
			} else if pt.IsVar {
				a[k], names = int32(len(names)), append(names, pt.Var)
			}
		}
		at = append(at, a)
	}
	return at, names
}

// link appends to parent a union-find forest over the patterns of at,
// then its nvars variables, joining each pattern to its variables, and
// returns it with its number of trees: the connected components.
func link(at [][3]int32, nvars int, parent []int32) ([]int32, int) {
	for i := range len(at) + nvars {
		parent = append(parent, int32(i))
	}
	trees := len(parent)
	for i, a := range at {
		for _, n := range a {
			if n < 0 {
				continue
			}
			if r, s := find(parent, int32(i)), find(parent, int32(len(at))+n); r != s {
				parent[s] = r
				trees--
			}
		}
	}
	return parent, trees
}

// find returns the root of x's tree, halving the path to it.
func find(parent []int32, x int32) int32 {
	for ; parent[x] != x; x = parent[x] {
		parent[x] = parent[parent[x]]
	}
	return x
}
