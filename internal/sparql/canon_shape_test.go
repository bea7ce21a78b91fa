package sparql_test

import (
	"fmt"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/sparql"
)

// TestCanonicalizeShapeIgnoresConstants is Shape's promise as a
// property: each of the six LUBM templates that name a university has
// one Shape whatever university it names, and a Key of its own for each.
// (When patterns were ordered by colors of the constant values, 100
// universities gave Q13 100 Shapes, Q14 82, Q11 49, Q4 22 and Q3 6.)
func TestCanonicalizeShapeIgnoresConstants(t *testing.T) {
	const universities = 100
	shapes := make(map[string]map[string]bool)
	keys := make(map[string]map[string]bool)
	for c := 0; c < universities; c++ {
		for _, q := range lubm.UniversityVariants(c) {
			if shapes[q.Name] == nil {
				shapes[q.Name], keys[q.Name] = make(map[string]bool), make(map[string]bool)
			}
			cn := sparql.Canonicalize(q)
			shapes[q.Name][cn.Shape] = true
			keys[q.Name][cn.Key] = true
		}
	}
	if len(shapes) != 6 {
		t.Fatalf("%d templates carry a university constant, the test assumes 6", len(shapes))
	}
	for name := range shapes {
		if s, k := len(shapes[name]), len(keys[name]); s != 1 || k != universities {
			t.Errorf("%s over %d universities: %d shapes and %d keys, want 1 and %d", name, universities, s, k, universities)
		}
	}
}

// TestCanonicalizeShapeSymmetries holds the two structures a coloring of
// constants by kind alone gets wrong: variables only the SELECT order
// tells apart, and patterns only a shared constant tells apart.
func TestCanonicalizeShapeSymmetries(t *testing.T) {
	for _, tmpl := range []string{
		`SELECT ?p ?s WHERE { ?p <worksFor> ?d . ?s <memberOf> ?d . ?d <partOf> <u%d> }`,
		`SELECT ?x WHERE { ?x <type> <A> . ?z <type> <Dept> . ?z <partOf> <u%d> . ?x <worksFor> ?z }`,
	} {
		want := sparql.Canonicalize(sparql.MustParse(fmt.Sprintf(tmpl, 0))).Shape
		for c := 1; c < 50; c++ {
			if got := sparql.Canonicalize(sparql.MustParse(fmt.Sprintf(tmpl, c))).Shape; got != want {
				t.Fatalf("constant u%d changed the shape of %s", c, tmpl)
			}
		}
	}
}
