// Package core implements the CliqueSquare logical optimizer: the
// logical algebra (Match, n-ary Join, Project; Section 4.1), plan
// generation from variable-graph sequences (CreateQueryPlans, Section
// 4.2), the recursive CliqueSquare algorithm (Algorithm 1) with its
// eight decomposition variants, plan-height analysis (Section 4.4) and
// the worst-case decomposition-count bounds of Figure 8.
package core

import (
	"fmt"
	"sort"
	"strings"

	"cliquesquare/internal/sparql"
)

// OpKind identifies a logical operator.
type OpKind uint8

const (
	// OpMatch scans the triples matching one triple pattern.
	OpMatch OpKind = iota
	// OpJoin is the n-ary star equality join J_A over its children.
	OpJoin
	// OpProject restricts its child to the distinguished variables.
	OpProject
)

// String returns the operator-kind name.
func (k OpKind) String() string {
	switch k {
	case OpMatch:
		return "match"
	case OpJoin:
		return "join"
	case OpProject:
		return "project"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is a node of a logical plan DAG. Plans are DAGs, not trees: simple
// (overlapping) covers make one operator the input of several joins.
type Op struct {
	Kind OpKind

	// Pattern is the index of the triple pattern matched (OpMatch only).
	Pattern int

	// JoinAttrs are the sorted join attributes A of J_A (OpJoin only):
	// the intersection of the children's attribute sets, per Def. 4.1's
	// operator signature. The decomposition clique's label variables
	// are always a subset of JoinAttrs.
	JoinAttrs []string

	// Residual lists attributes shared by two or more — but not all —
	// children. The paper places a selection σ on top of the join for
	// predicates not checkable on any single input (Section 4.2); we
	// fold that selection into the join: it also enforces equality on
	// Residual, which is equivalent and does not change plan height
	// (only joins count).
	Residual []string

	// Attrs is the sorted output attribute set (variables).
	Attrs []string

	// Children are the operator inputs, empty for OpMatch.
	Children []*Op

	// sig and height memoize Signature and Height. The first call writes
	// them; once computed, further calls only read. Warm them (the csq
	// engine does when it compiles a candidate) before sharing an Op
	// across goroutines: the lazy first computation is not synchronized.
	// Neither names a constant, so an operator shared by the plans of
	// several queries of one written shape memoizes the same values for
	// all of them.
	sig    string
	height int // computed height + 1; 0 = not yet computed
}

// Height returns the largest number of join operators on any path from
// this operator down to a leaf (Section 4.4).
func (op *Op) Height() int {
	if op.Kind == OpMatch {
		return 0
	}
	if op.height > 0 {
		return op.height - 1
	}
	h := 0
	for _, c := range op.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	if op.Kind == OpJoin {
		h++
	}
	op.height = h + 1
	return h
}

// Signature returns a canonical string identifying the operator subplan
// up to child order; two operators with equal signatures compute the
// same result the same way. Used to deduplicate plans (the uniqueness
// ratio of Figure 19).
func (op *Op) Signature() string {
	if op.sig != "" {
		return op.sig
	}
	switch op.Kind {
	case OpMatch:
		op.sig = fmt.Sprintf("M%d", op.Pattern)
	case OpJoin:
		kids := make([]string, len(op.Children))
		for i, c := range op.Children {
			kids[i] = c.Signature()
		}
		sort.Strings(kids)
		op.sig = "J[" + strings.Join(op.JoinAttrs, ",") + "](" + strings.Join(kids, ";") + ")"
	case OpProject:
		op.sig = "P[" + strings.Join(op.Attrs, ",") + "](" + op.Children[0].Signature() + ")"
	}
	return op.sig
}

// Plan is a logical query plan: a rooted operator DAG for a query.
type Plan struct {
	Query *sparql.Query
	Root  *Op
}

// Height is the plan height h(p): the maximum number of joins on a
// root-to-leaf path.
func (p *Plan) Height() int { return p.Root.Height() }

// Signature canonically identifies the plan (see Op.Signature).
func (p *Plan) Signature() string { return p.Root.Signature() }

// Joins returns the number of distinct join operators in the DAG.
func (p *Plan) Joins() int {
	seen := make(map[*Op]bool)
	n := 0
	var walk func(*Op)
	walk = func(op *Op) {
		if seen[op] {
			return
		}
		seen[op] = true
		if op.Kind == OpJoin {
			n++
		}
		for _, c := range op.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return n
}

// String renders the plan as an indented tree (shared subplans are
// repeated with a reference marker).
func (p *Plan) String() string {
	var b strings.Builder
	seen := make(map[*Op]int)
	var walk func(op *Op, depth int)
	walk = func(op *Op, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if id, dup := seen[op]; dup {
			fmt.Fprintf(&b, "@%d (shared)\n", id)
			return
		}
		id := len(seen)
		seen[op] = id
		switch op.Kind {
		case OpMatch:
			tp := p.Query.Patterns[op.Pattern]
			fmt.Fprintf(&b, "M t%d (%s) %s\n", op.Pattern+1, strings.Join(op.Attrs, ""), tp.String())
		case OpJoin:
			fmt.Fprintf(&b, "J_%s (%s)", strings.Join(op.JoinAttrs, ","), strings.Join(op.Attrs, ""))
			if len(op.Residual) > 0 {
				fmt.Fprintf(&b, " σ=%s", strings.Join(op.Residual, ","))
			}
			b.WriteByte('\n')
		case OpProject:
			fmt.Fprintf(&b, "π %s\n", strings.Join(op.Attrs, ","))
		}
		for _, c := range op.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}
