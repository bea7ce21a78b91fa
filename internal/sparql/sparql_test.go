package sparql

import (
	"strings"
	"testing"

	"cliquesquare/internal/rdf"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse(`SELECT ?a ?b WHERE { ?a <http://x/p1> ?b . ?a <http://x/p2> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0] != "a" || q.Select[1] != "b" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("got %d patterns, want 2", len(q.Patterns))
	}
	tp := q.Patterns[0]
	if !tp.S.IsVar || tp.S.Var != "a" {
		t.Errorf("subject = %v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term != rdf.NewIRI("http://x/p1") {
		t.Errorf("predicate = %v", tp.P)
	}
}

func TestParsePrefixesAndKeywordA(t *testing.T) {
	q, err := Parse(`
PREFIX ub: <http://lubm.example/ub#>
SELECT ?x WHERE {
  ?x a ub:FullProfessor .
  ?x ub:worksFor <http://www.University0.edu> .
  ?x ub:name "Alice" .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Patterns[0].P.Term; got != rdf.NewIRI(RDFType) {
		t.Errorf("'a' expanded to %v", got)
	}
	if got := q.Patterns[0].O.Term; got != rdf.NewIRI("http://lubm.example/ub#FullProfessor") {
		t.Errorf("prefixed name expanded to %v", got)
	}
	if got := q.Patterns[2].O.Term; got != rdf.NewLiteral("Alice") {
		t.Errorf("literal parsed as %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	// wantMessage names what the error must say, where the case has a
	// message of its own.
	wantMessage := map[string]string{
		"select star":          "SELECT * is not supported",
		"select var then star": "SELECT * is not supported",
	}
	for _, tc := range []struct {
		name, src string
	}{
		{"empty", ``},
		{"no select", `WHERE { ?a <p> ?b }`},
		{"no vars", `SELECT WHERE { ?a <p> ?b }`},
		{"unclosed where", `SELECT ?a WHERE { ?a <p> ?b`},
		{"truncated pattern", `SELECT ?a WHERE { ?a <p> }`},
		{"select var missing", `SELECT ?z WHERE { ?a <p> ?b }`},
		{"undeclared prefix", `SELECT ?a WHERE { ?a ub:p ?b }`},
		{"cartesian product", `SELECT ?a WHERE { ?a <p> ?b . ?c <p> ?d }`},
		{"trailing input", `SELECT ?a WHERE { ?a <p> ?b } garbage`},
		{"bad word subject", `SELECT ?a WHERE { frob <p> ?a }`},
		{"unterminated iri", `SELECT ?a WHERE { ?a <p ?b }`},
		{"unterminated literal", `SELECT ?a WHERE { ?a <p> "x }`},
		{"prefix no iri", `PREFIX ub: nope SELECT ?a WHERE { ?a <p> ?b }`},
		{"select star", `SELECT * WHERE { ?a <p> ?b }`},
		{"select var then star", `SELECT ?a * WHERE { ?a <p> ?b }`},
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: no error for %q", tc.name, tc.src)
		} else if want := wantMessage[tc.name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want it to say %q", tc.name, err, want)
		}
	}
}

func TestVarsAndJoinVars(t *testing.T) {
	q := MustParse(`SELECT ?a WHERE { ?a <p1> ?b . ?b <p2> ?c . ?a <p3> ?c }`)
	wantVars := []string{"a", "b", "c"}
	if got := q.Vars(); !eqStrings(got, wantVars) {
		t.Errorf("Vars = %v, want %v", got, wantVars)
	}
	if got := q.JoinVars(); !eqStrings(got, wantVars) {
		t.Errorf("JoinVars = %v, want %v", got, wantVars)
	}
	q2 := MustParse(`SELECT ?a WHERE { ?a <p1> ?b . ?a <p2> "x" }`)
	if got := q2.JoinVars(); !eqStrings(got, []string{"a"}) {
		t.Errorf("JoinVars = %v, want [a]", got)
	}
}

func TestPatternVarsDeduplicate(t *testing.T) {
	tp := TriplePattern{S: Variable("x"), P: Variable("x"), O: Variable("y")}
	if got := tp.Vars(); !eqStrings(got, []string{"x", "y"}) {
		t.Errorf("Vars = %v, want [x y]", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	q := &Query{
		Select: []string{"a"},
		Patterns: []TriplePattern{
			{S: Variable("a"), P: Constant(rdf.NewIRI("p")), O: Variable("b")},
			{S: Variable("b"), P: Constant(rdf.NewIRI("p")), O: Variable("c")},
			{S: Variable("x"), P: Constant(rdf.NewIRI("p")), O: Variable("y")},
		},
	}
	cc := q.ConnectedComponents()
	if len(cc) != 2 {
		t.Fatalf("got %d components, want 2", len(cc))
	}
	if len(cc[0]) != 2 || len(cc[1]) != 1 {
		t.Errorf("components = %v", cc)
	}
	if err := q.Validate(); err == nil {
		t.Error("Validate accepted a cartesian product")
	}
}

func TestQueryString(t *testing.T) {
	q := MustParse(`SELECT ?a WHERE { ?a <http://x/p> "C1" }`)
	s := q.String()
	for _, want := range []string{"SELECT ?a", "?a <http://x/p>", `"C1"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// The rendering must reparse to an equivalent query.
	q2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse of %q: %v", s, err)
	}
	if q2.String() != s {
		t.Errorf("reparse not stable: %q vs %q", q2.String(), s)
	}
}

func TestPaperQ1Parses(t *testing.T) {
	// Query Q1 from Figure 1 of the paper.
	q, err := Parse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h .
		?g <p9> ?i . ?i <p10> ?j . ?j <p11> "C1" }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 11 {
		t.Errorf("Q1 has %d patterns, want 11", len(q.Patterns))
	}
	want := []string{"a", "d", "f", "g", "i", "j"}
	if got := q.JoinVars(); !eqStrings(got, want) {
		t.Errorf("Q1 join vars = %v, want %v", got, want)
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
