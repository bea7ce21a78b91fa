package core

import (
	"testing"

	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

func optimizeOne(t *testing.T, q *sparql.Query) *Plan {
	t.Helper()
	res, err := Optimize(q, Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unique) == 0 {
		t.Fatal("no plan")
	}
	return res.Unique[0]
}

func TestPushProjectionsNarrowsSchemas(t *testing.T) {
	// A 3-hop chain selecting only the endpoints: intermediate joins
	// must drop the inner variables as soon as they are no longer
	// needed.
	q := sparql.MustParse(`SELECT ?a ?e WHERE {
		?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d . ?d <p4> ?e }`)
	p := optimizeOne(t, q)
	trimmed := PushProjections(p)

	widthSum := func(p *Plan) int {
		total := 0
		seen := make(map[*Op]bool)
		var walk func(op *Op)
		walk = func(op *Op) {
			if seen[op] {
				return
			}
			seen[op] = true
			if op.Kind == OpJoin {
				total += len(op.Attrs)
			}
			for _, c := range op.Children {
				walk(c)
			}
		}
		walk(p.Root)
		return total
	}
	if wOrig, wTrim := widthSum(p), widthSum(trimmed); wTrim >= wOrig {
		t.Errorf("trimmed join widths %d not smaller than original %d", wTrim, wOrig)
	}
	if trimmed.Height() != p.Height() {
		t.Errorf("pushdown changed height: %d vs %d", trimmed.Height(), p.Height())
	}
	if trimmed.Joins() != p.Joins() {
		t.Errorf("pushdown changed join count: %d vs %d", trimmed.Joins(), p.Joins())
	}
}

func TestPushProjectionsKeepsNeededAttrs(t *testing.T) {
	q := sparql.MustParse(`SELECT ?a ?c WHERE {
		?a <p1> ?b . ?b <p2> ?c . ?b <p3> ?d . ?d <p4> ?e }`)
	p := PushProjections(optimizeOne(t, q))
	// Invariants over the whole DAG:
	//  - the root child still provides every SELECT variable,
	//  - every join's JoinAttrs appear in all its children's schemas,
	//  - every schema is a subset of the original variables.
	rootChild := p.Root.Children[0]
	for _, v := range q.Select {
		if !hasString(rootChild.Attrs, v) {
			t.Errorf("root child lost selected variable %q: %v", v, rootChild.Attrs)
		}
	}
	seen := make(map[*Op]bool)
	var walk func(op *Op)
	walk = func(op *Op) {
		if seen[op] {
			return
		}
		seen[op] = true
		if op.Kind == OpJoin {
			for _, a := range op.JoinAttrs {
				for _, c := range op.Children {
					if !hasString(c.Attrs, a) {
						t.Errorf("join attr %q missing from child schema %v", a, c.Attrs)
					}
				}
			}
		}
		for _, c := range op.Children {
			walk(c)
		}
	}
	walk(p.Root)
}

func TestPushProjectionsPreservesDAGSharing(t *testing.T) {
	q := sparql.MustParse(`SELECT ?x WHERE { ?u <p1> ?x . ?x <p2> ?y . ?y <p3> ?z . ?z <p4> ?w }`)
	res, err := Optimize(q, Options{Method: vargraph.SC})
	if err != nil {
		t.Fatal(err)
	}
	// Find a DAG plan (shared join) and verify sharing survives.
	for _, p := range res.Unique {
		if countSharedJoins(p) == 0 {
			continue
		}
		trimmed := PushProjections(p)
		if countSharedJoins(trimmed) == 0 {
			t.Error("projection pushdown destroyed DAG sharing")
		}
		return
	}
	t.Skip("no DAG plan found")
}

func countSharedJoins(p *Plan) int {
	parents := make(map[*Op]int)
	seen := make(map[*Op]bool)
	var walk func(op *Op)
	walk = func(op *Op) {
		for _, c := range op.Children {
			parents[c]++
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(p.Root)
	n := 0
	for op, k := range parents {
		if k > 1 && op.Kind == OpJoin {
			n++
		}
	}
	return n
}

func TestPushProjectionsIdempotent(t *testing.T) {
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <p1> ?b . ?b <p2> ?c . ?c <p3> ?d }`)
	p1 := PushProjections(optimizeOne(t, q))
	p2 := PushProjections(p1)
	if p1.Signature() != p2.Signature() {
		t.Errorf("not idempotent:\n%s\nvs\n%s", p1.Signature(), p2.Signature())
	}
}
