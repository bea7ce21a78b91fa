package sparql_test

import (
	"fmt"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/sparql"
)

func TestCanonicalizeAlphaEquivalence(t *testing.T) {
	base := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <type> <Person> }`)
	variants := []*sparql.Query{
		// Renamed variables.
		sparql.MustParse(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z . ?z <type> <Person> }`),
		// Reordered patterns.
		sparql.MustParse(`SELECT ?a ?c WHERE { ?c <type> <Person> . ?b <knows> ?c . ?a <knows> ?b }`),
		// Both at once.
		sparql.MustParse(`SELECT ?p ?r WHERE { ?r <type> <Person> . ?p <knows> ?q . ?q <knows> ?r }`),
	}
	want := sparql.Canonicalize(base)
	for i, v := range variants {
		if got := sparql.Canonicalize(v); got.Key != want.Key {
			t.Errorf("variant %d: key %s != base %s", i, got.Key, want.Key)
		}
	}
}

func TestCanonicalizeNameIgnored(t *testing.T) {
	a := sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b }`)
	b := sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b }`)
	b.Name = "Q99"
	if sparql.Canonicalize(a).Key != sparql.Canonicalize(b).Key {
		t.Error("query name changed the fingerprint")
	}
}

func TestCanonicalizeConstantsLifted(t *testing.T) {
	a := sparql.MustParse(`SELECT ?x WHERE { ?x <worksFor> <acme> . ?x <type> <Person> }`)
	b := sparql.MustParse(`SELECT ?x WHERE { ?x <worksFor> <globex> . ?x <type> <Person> }`)
	if sparql.Canonicalize(a).Key == sparql.Canonicalize(b).Key {
		t.Error("different constants must yield different keys")
	}
}

// TestCanonicalizeKeyPerUniversity holds the key apart for every
// constant: each of the six LUBM templates that name a university has a
// key of its own for each university it names.
func TestCanonicalizeKeyPerUniversity(t *testing.T) {
	const universities = 100
	keys := make(map[string]map[string]bool)
	for c := 0; c < universities; c++ {
		for _, q := range lubm.UniversityVariants(c) {
			if keys[q.Name] == nil {
				keys[q.Name] = make(map[string]bool)
			}
			keys[q.Name][sparql.Canonicalize(q).Key] = true
		}
	}
	if len(keys) != 6 {
		t.Fatalf("%d templates carry a university constant, the test assumes 6", len(keys))
	}
	for name, k := range keys {
		if len(k) != universities {
			t.Errorf("%s over %d universities: %d keys, want %d", name, universities, len(k), universities)
		}
	}
}

// rewritten returns q with its patterns in the order perm gives and
// every variable renamed.
func rewritten(q *sparql.Query, perm []int) *sparql.Query {
	rename := func(pt sparql.PatternTerm) sparql.PatternTerm {
		if pt.IsVar {
			pt.Var += "_r"
		}
		return pt
	}
	out := &sparql.Query{Name: q.Name}
	for _, i := range perm {
		tp := q.Patterns[i]
		out.Patterns = append(out.Patterns, sparql.TriplePattern{S: rename(tp.S), P: rename(tp.P), O: rename(tp.O)})
	}
	for _, v := range q.Select {
		out.Select = append(out.Select, v+"_r")
	}
	return out
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestCanonicalizeSymmetries holds the two structures a coloring of
// constants by kind alone confuses — variables only the SELECT order
// tells apart, and patterns only a shared constant tells apart — to one
// key under every pattern order and a renaming of their variables, and
// to a key of its own per constant.
func TestCanonicalizeSymmetries(t *testing.T) {
	for _, tmpl := range []string{
		`SELECT ?p ?s WHERE { ?p <worksFor> ?d . ?s <memberOf> ?d . ?d <partOf> <u%d> }`,
		`SELECT ?x WHERE { ?x <type> <A> . ?z <type> <Dept> . ?z <partOf> <u%d> . ?x <worksFor> ?z }`,
	} {
		seen := make(map[string]bool)
		for c := 0; c < 10; c++ {
			q := sparql.MustParse(fmt.Sprintf(tmpl, c))
			want := sparql.Canonicalize(q).Key
			for _, perm := range permutations(len(q.Patterns)) {
				if got := sparql.Canonicalize(rewritten(q, perm)).Key; got != want {
					t.Fatalf("pattern order %v changed the key of %s", perm, q)
				}
			}
			if seen[want] {
				t.Fatalf("constant u%d shares a key with another in %s", c, tmpl)
			}
			seen[want] = true
		}
	}
}

func TestCanonicalizeDistinguishes(t *testing.T) {
	qs := []*sparql.Query{
		sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . ?b <p> ?c }`),
		// Different join structure (s-s instead of o-s).
		sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . ?a <p> ?c }`),
		// Different select variable.
		sparql.MustParse(`SELECT ?b WHERE { ?a <p> ?b . ?b <p> ?c }`),
		// Different select order.
		sparql.MustParse(`SELECT ?a ?b WHERE { ?a <p> ?b . ?b <p> ?c }`),
		sparql.MustParse(`SELECT ?b ?a WHERE { ?a <p> ?b . ?b <p> ?c }`),
		// Repeated constant vs distinct constants.
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> "v" . ?x <q> "v" }`),
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> "v" . ?x <q> "w" }`),
		// Literal vs IRI constant.
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> "v" }`),
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> <v> }`),
		// Extra pattern.
		sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d }`),
	}
	seen := make(map[string]int)
	for i, q := range qs {
		k := sparql.Canonicalize(q).Key
		if j, dup := seen[k]; dup {
			t.Errorf("queries %d and %d share a key: %s and %s", j, i, qs[j], q)
		}
		seen[k] = i
	}
}

func TestCanonicalizeDeterministic(t *testing.T) {
	q := sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h }`)
	want := sparql.Canonicalize(q)
	for i := 0; i < 10; i++ {
		if got := sparql.Canonicalize(q); got.Key != want.Key {
			t.Fatalf("run %d: canonicalization not deterministic", i)
		}
	}
	// Canonicalize must not modify the query.
	if q.Patterns[0].S.Var != "a" || q.Select[0] != "a" {
		t.Error("Canonicalize mutated the query")
	}
}
