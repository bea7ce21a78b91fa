package lubm

import (
	"fmt"
	"strings"

	"cliquesquare/internal/sparql"
)

// prologue declares the ub: prefix for the workload queries.
const prologue = "PREFIX ub: <" + NS + ">\n"

// querySources are the 14 Appendix-A queries, verbatim modulo prefix
// syntax. Queries marked (original) in the paper come from the LUBM
// benchmark with generic classes specialized (e.g. Student →
// GraduateStudent), exactly as the paper and H2RDF+ do.
var querySources = []struct {
	name string
	src  string
}{
	{"Q1", `SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . }`},
	{"Q2", `SELECT ?X WHERE { ?X a ub:AssistantProfessor . ?X ub:doctoralDegreeFrom <http://www.University0.edu> }`},
	{"Q3", `SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . ?D ub:subOrganizationOf <http://www.University0.edu> }`},
	{"Q4", `SELECT ?X ?Y WHERE { ?X a ub:Lecturer . ?Y a ub:Department . ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf <http://www.University0.edu> }`},
	{"Q5", `SELECT ?X ?Y ?Z WHERE { ?X a ub:UndergraduateStudent . ?Y a ub:FullProfessor . ?Z a ub:Course . ?X ub:takesCourse ?Z . ?Y ub:teacherOf ?Z }`},
	{"Q6", `SELECT ?X ?Y ?Z WHERE { ?X a ub:UndergraduateStudent . ?Y a ub:FullProfessor . ?Z a ub:Course . ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z }`},
	{"Q7", `SELECT ?X ?Y ?Z WHERE { ?X a ub:GraduateStudent . ?Z ub:subOrganizationOf ?Y . ?X ub:memberOf ?Z . ?Z a ub:Department . ?Y a ub:University . }`},
	{"Q8", `SELECT ?X ?Y ?Z WHERE { ?X a ub:GraduateStudent . ?X ub:undergraduateDegreeFrom ?Y . ?Z ub:subOrganizationOf ?Y . ?Z a ub:Department . ?Y a ub:University . }`},
	{"Q9", `SELECT ?X ?Y ?Z WHERE { ?X a ub:GraduateStudent . ?X ub:undergraduateDegreeFrom ?Y . ?Z ub:subOrganizationOf ?Y . ?X ub:memberOf ?Z . ?Z a ub:Department . ?Y a ub:University . }`},
	{"Q10", `SELECT ?X ?Y ?Z WHERE { ?X a ub:UndergraduateStudent . ?Y a ub:FullProfessor . ?Z a ub:Course . ?X ub:advisor ?Y . ?X ub:takesCourse ?Z . ?Y ub:teacherOf ?Z }`},
	{"Q11", `SELECT ?X ?Y ?E WHERE { ?X a ub:UndergraduateStudent . ?X ub:takesCourse ?Y . ?X ub:memberOf ?Z . ?X ub:advisor ?W . ?W a ub:FullProfessor . ?W ub:emailAddress ?E . ?Z ub:subOrganizationOf ?U . ?U ub:name "University3" }`},
	{"Q12", `SELECT ?X ?Y ?Z WHERE { ?X a ub:FullProfessor . ?X ub:teacherOf ?Y . ?Y a ub:GraduateCourse . ?X ub:worksFor ?Z . ?W ub:advisor ?X . ?W a ub:GraduateStudent . ?W ub:emailAddress ?E . ?Z a ub:Department . ?Z ub:subOrganizationOf ?U }`},
	{"Q13", `SELECT ?X ?Y ?Z WHERE { ?X a ub:FullProfessor . ?X ub:teacherOf ?Y . ?Y a ub:GraduateCourse . ?X ub:worksFor ?Z . ?W ub:advisor ?X . ?W a ub:GraduateStudent . ?W ub:emailAddress ?E . ?Z a ub:Department . ?Z ub:subOrganizationOf <http://www.University0.edu> }`},
	{"Q14", `SELECT ?X ?Y ?Z WHERE { ?X a ub:FullProfessor . ?X ub:teacherOf ?Y . ?Y a ub:GraduateCourse . ?X ub:worksFor ?Z . ?W ub:advisor ?X . ?W a ub:GraduateStudent . ?W ub:emailAddress ?E . ?Z a ub:Department . ?Z ub:subOrganizationOf ?U . ?U ub:name "University3" }`},
}

// Queries parses and returns the 14-query workload, named Q1..Q14.
func Queries() []*sparql.Query {
	out := make([]*sparql.Query, 0, len(querySources))
	for _, qs := range querySources {
		q, err := sparql.Parse(prologue + qs.src)
		if err != nil {
			panic(fmt.Sprintf("lubm: %s does not parse: %v", qs.name, err))
		}
		q.Name = qs.name
		out = append(out, q)
	}
	return out
}

// UniversityVariants returns the six workload queries that name one
// university — by IRI (University0) or by name literal ("University3")
// — each rewritten to name university c instead and keeping its query
// name: the constant-bearing mix in which every new c is a set of plans
// no cache has seen.
func UniversityVariants(c int) []*sparql.Query {
	byIRI, byName := "<"+UniversityIRI(0)+">", `"University3"`
	var out []*sparql.Query
	for _, qs := range querySources {
		if !strings.Contains(qs.src, byIRI) && !strings.Contains(qs.src, byName) {
			continue
		}
		src := strings.ReplaceAll(qs.src, byIRI, "<"+UniversityIRI(c)+">")
		src = strings.ReplaceAll(src, byName, fmt.Sprintf(`"University%d"`, c))
		q, err := sparql.Parse(prologue + src)
		if err != nil {
			panic(fmt.Sprintf("lubm: %s for university %d does not parse: %v", qs.name, c, err))
		}
		q.Name = qs.name
		out = append(out, q)
	}
	return out
}

// Query returns the named workload query (e.g. "Q7").
func Query(name string) (*sparql.Query, error) {
	src, err := Text(name)
	if err != nil {
		return nil, err
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	q.Name = name
	return q, nil
}

// Text returns the named workload query's SPARQL text, the ub: PREFIX
// declaration included.
func Text(name string) (string, error) {
	for _, qs := range querySources {
		if qs.name == name {
			return prologue + qs.src, nil
		}
	}
	return "", fmt.Errorf("lubm: no query named %q", name)
}

// Selective lists the queries the paper classifies as selective on
// LUBM10k (< 0.5M results); the rest are non-selective. Figure 21
// groups its x-axis this way.
var Selective = map[string]bool{
	"Q2": true, "Q3": true, "Q4": true, "Q9": true, "Q10": true,
	"Q11": true, "Q13": true, "Q14": true,
}
