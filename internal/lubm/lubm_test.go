package lubm

import (
	"strings"
	"testing"

	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(2))
	b := Generate(DefaultConfig(2))
	if a.Len() != b.Len() {
		t.Errorf("same config produced %d vs %d triples", a.Len(), b.Len())
	}
}

func TestGenerateScales(t *testing.T) {
	small := Generate(DefaultConfig(1))
	big := Generate(DefaultConfig(4))
	if big.Len() < 3*small.Len() {
		t.Errorf("4 universities (%d triples) not ~4x of 1 (%d)", big.Len(), small.Len())
	}
}

func TestSchemaEntitiesPresent(t *testing.T) {
	g := Generate(DefaultConfig(2))
	for _, iri := range []string{
		UniversityIRI(0), UniversityIRI(1), DeptIRI(0, 0),
		ClassFullProfessor, ClassGraduate, PropAdvisor, PropTeacherOf,
		sparql.RDFType,
	} {
		if _, ok := g.Dict.Lookup(rdf.NewIRI(iri)); !ok {
			t.Errorf("expected IRI %s in the dataset", iri)
		}
	}
	// Q11/Q14's constant literal "University3" needs >= 4 universities.
	g4 := Generate(DefaultConfig(4))
	if _, ok := g4.Dict.Lookup(rdf.NewLiteral("University3")); !ok {
		t.Error(`literal "University3" absent with 4 universities`)
	}
}

func TestQueriesParseAndMatchFigure22(t *testing.T) {
	qs := Queries()
	if len(qs) != 14 {
		t.Fatalf("got %d queries, want 14", len(qs))
	}
	// Figure 22: #tps and #jv per query.
	wantTPs := []int{2, 2, 3, 4, 5, 5, 5, 5, 6, 6, 8, 9, 9, 10}
	wantJVs := []int{1, 1, 1, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 5}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s invalid: %v", q.Name, err)
		}
		if got := len(q.Patterns); got != wantTPs[i] {
			t.Errorf("%s has %d triple patterns, want %d", q.Name, got, wantTPs[i])
		}
		if got := len(q.JoinVars()); got != wantJVs[i] {
			t.Errorf("%s has %d join vars %v, want %d", q.Name, got, q.JoinVars(), wantJVs[i])
		}
	}
}

func TestQueryByName(t *testing.T) {
	q, err := Query("Q7")
	if err != nil || q.Name != "Q7" {
		t.Fatalf("Query(Q7) = %v, %v", q, err)
	}
	if _, err := Query("Q99"); err == nil {
		t.Error("Query(Q99) did not fail")
	}
}

func TestSelectiveClassification(t *testing.T) {
	// Eight selective, six non-selective, per Figure 21's grouping.
	if len(Selective) != 8 {
		t.Errorf("selective set has %d entries, want 8", len(Selective))
	}
	for _, name := range []string{"Q1", "Q5", "Q6", "Q7", "Q8", "Q12"} {
		if Selective[name] {
			t.Errorf("%s marked selective; Figure 21 lists it as non-selective", name)
		}
	}
}

func TestUniversityVariants(t *testing.T) {
	var names []string
	for _, q := range UniversityVariants(7) {
		names = append(names, q.Name)
		src := q.String()
		if strings.Contains(src, UniversityIRI(0)) || strings.Contains(src, `"University3"`) {
			t.Errorf("%s still names its template's university: %s", q.Name, src)
		}
		if !strings.Contains(src, UniversityIRI(7)) && !strings.Contains(src, `"University7"`) {
			t.Errorf("%s does not name university 7: %s", q.Name, src)
		}
	}
	if got := strings.Join(names, " "); got != "Q2 Q3 Q4 Q11 Q13 Q14" {
		t.Errorf("variants of %s, want Q2 Q3 Q4 Q11 Q13 Q14", got)
	}
	for i, q := range UniversityVariants(0) {
		if want := UniversityVariants(3)[i]; q.Name != want.Name {
			t.Errorf("universities 0 and 3 vary different templates: %s vs %s", q.Name, want.Name)
		}
	}
}
