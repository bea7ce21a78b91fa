package vargraph

import (
	"testing"

	"cliquesquare/internal/sparql"
)

// paperQ1 is query Q1 from Figure 1 of the paper: 11 triple patterns
// with join variables a, d, f, g, i, j.
func paperQ1() *sparql.Query {
	return sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h .
		?g <p9> ?i . ?i <p10> ?j . ?j <p11> "C1" }`)
}

// chain3 is the query of Figure 10: t1 -x- t2 -y- t3.
func chain3() *sparql.Query {
	return sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?w1 . ?x <p2> ?y . ?y <p3> ?w2 }`)
}

func nodeSets(cs []Clique) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = c.Nodes
	}
	return out
}

func eqIntSets(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestFromQuery(t *testing.T) {
	g := FromQuery(paperQ1())
	if g.Len() != 11 {
		t.Fatalf("initial graph has %d nodes, want 11", g.Len())
	}
	// t3 is "?d <p3> ?a": vars sorted = [a d].
	n := g.Nodes[2]
	if len(n.Vars) != 2 || n.Vars[0] != "a" || n.Vars[1] != "d" {
		t.Errorf("t3 vars = %v, want [a d]", n.Vars)
	}
	if len(n.Patterns) != 1 || n.Patterns[0] != 2 {
		t.Errorf("t3 patterns = %v", n.Patterns)
	}
}

func TestSharedVars(t *testing.T) {
	g := FromQuery(paperQ1())
	want := []string{"a", "d", "f", "g", "i", "j"}
	got := g.SharedVars()
	if len(got) != len(want) {
		t.Fatalf("SharedVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SharedVars = %v, want %v", got, want)
		}
	}
}

func TestMaximalCliquesQ1(t *testing.T) {
	g := FromQuery(paperQ1())
	got := MaximalCliques(g)
	// Section 3.2: cl_a={t1,t2,t3}, cl_d={t3,t4,t5,t6}, cl_f={t6,t7},
	// cl_g={t7,t8,t9}, cl_i={t9,t10}, cl_j={t10,t11}. (0-based here.)
	want := [][]int{
		{0, 1, 2}, {2, 3, 4, 5}, {5, 6}, {6, 7, 8}, {8, 9}, {9, 10},
	}
	if !eqIntSets(nodeSets(got), want) {
		t.Errorf("maximal cliques = %v, want %v", nodeSets(got), want)
	}
	// Each should carry exactly one variable label here.
	wantVars := []string{"a", "d", "f", "g", "i", "j"}
	for i, c := range got {
		if len(c.Vars) != 1 || c.Vars[0] != wantVars[i] {
			t.Errorf("clique %v vars = %v, want [%s]", c.Nodes, c.Vars, wantVars[i])
		}
	}
}

func TestMaximalCliquesMergeSameNodeSet(t *testing.T) {
	// Two patterns sharing both x and y: cl_x == cl_y as node sets, so
	// they must merge into one clique labelled {x, y}.
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y . ?y <p2> ?x }`)
	g := FromQuery(q)
	cs := MaximalCliques(g)
	if len(cs) != 1 {
		t.Fatalf("got %d maximal cliques, want 1 (merged)", len(cs))
	}
	if len(cs[0].Vars) != 2 || cs[0].Vars[0] != "x" || cs[0].Vars[1] != "y" {
		t.Errorf("merged clique vars = %v, want [x y]", cs[0].Vars)
	}
}

func TestPartialCliquesChain(t *testing.T) {
	g := FromQuery(chain3())
	got := PartialCliques(g)
	// Maximal cliques {t1,t2} and {t2,t3}; partials: {t1},{t2},{t3},
	// {t1,t2},{t2,t3} = 5 after dedup of {t2}.
	if len(got) != 5 {
		t.Fatalf("got %d partial cliques %v, want 5", len(got), nodeSets(got))
	}
	// The singleton {t2} must appear exactly once.
	count := 0
	for _, c := range got {
		if len(c.Nodes) == 1 && c.Nodes[0] == 1 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("singleton {t2} appears %d times, want 1", count)
	}
}

func TestPartialCliquesVarsAreSharedByAll(t *testing.T) {
	g := FromQuery(paperQ1())
	for _, c := range PartialCliques(g) {
		if len(c.Nodes) == 1 {
			if c.Vars != nil {
				t.Errorf("singleton clique %v has vars %v", c.Nodes, c.Vars)
			}
			continue
		}
		if len(c.Vars) == 0 {
			t.Errorf("multi-node clique %v has no shared vars", c.Nodes)
		}
		for _, v := range c.Vars {
			for _, nd := range c.Nodes {
				if !g.Nodes[nd].HasVar(v) {
					t.Errorf("clique %v labelled %q but node %d lacks it", c.Nodes, v, nd)
				}
			}
		}
	}
}

func TestReducePaperExample(t *testing.T) {
	// Decomposition d1 of Section 3.2 reduces G1 to the 6-node G2 of
	// Figure 2.
	g := FromQuery(paperQ1())
	pool := PartialCliques(g)
	find := func(nodes ...int) Clique {
		for _, c := range pool {
			if len(c.Nodes) != len(nodes) {
				continue
			}
			ok := true
			for i := range nodes {
				if c.Nodes[i] != nodes[i] {
					ok = false
					break
				}
			}
			if ok {
				return c
			}
		}
		t.Fatalf("clique %v not in pool", nodes)
		return Clique{}
	}
	d1 := Decomposition{
		find(0, 1, 2), find(2, 3, 4, 5), find(5, 6),
		find(6, 7, 8), find(8, 9), find(9, 10),
	}
	g2 := g.Reduce(d1)
	if g2.Len() != 6 {
		t.Fatalf("reduced graph has %d nodes, want 6", g2.Len())
	}
	// A1 = union of t1,t2,t3 patterns; members recorded.
	a1 := g2.Nodes[0]
	if len(a1.Patterns) != 3 || len(a1.Members) != 3 {
		t.Errorf("A1 = %+v", a1)
	}
	if len(a1.JoinVars) != 1 || a1.JoinVars[0] != "a" {
		t.Errorf("A1 join vars = %v, want [a]", a1.JoinVars)
	}
	// A1 and A2 share d (via t3), so d must be a shared var of G2.
	sv := g2.SharedVars()
	hasD := false
	for _, v := range sv {
		if v == "d" {
			hasD = true
		}
	}
	if !hasD {
		t.Errorf("G2 shared vars = %v, missing d", sv)
	}
}

func TestReduceSingletonPassThrough(t *testing.T) {
	g := FromQuery(chain3())
	pool := PartialCliques(g)
	// Cover {t1,t2} + {t3}: a simple cover of size 2 < 3.
	var d Decomposition
	for _, c := range pool {
		if len(c.Nodes) == 2 && c.Nodes[0] == 0 && c.Nodes[1] == 1 {
			d = append(d, c)
		}
		if len(c.Nodes) == 1 && c.Nodes[0] == 2 {
			d = append(d, c)
		}
	}
	if len(d) != 2 {
		t.Fatalf("built decomposition %v", d)
	}
	g2 := g.Reduce(d)
	if g2.Len() != 2 {
		t.Fatalf("reduced to %d nodes, want 2", g2.Len())
	}
	if g2.Nodes[1].JoinVars != nil {
		t.Errorf("singleton node acquired join vars %v", g2.Nodes[1].JoinVars)
	}
}

func TestDecompositionsRespectSizeLimit(t *testing.T) {
	for _, m := range AllMethods {
		g := FromQuery(paperQ1())
		ds, _ := Decompositions(g, m, 500)
		for _, d := range ds {
			if len(d) >= g.Len() {
				t.Errorf("%v: decomposition size %d >= nodes %d", m, len(d), g.Len())
			}
			covered := make(map[int]bool)
			for _, c := range d {
				for _, nd := range c.Nodes {
					covered[nd] = true
				}
			}
			if len(covered) != g.Len() {
				t.Errorf("%v: decomposition %v covers %d of %d nodes", m, d, len(covered), g.Len())
			}
		}
	}
}

func TestExactCoversAreDisjoint(t *testing.T) {
	g := FromQuery(paperQ1())
	for _, m := range []Method{XC, MXC} {
		ds, _ := Decompositions(g, m, 2000)
		if len(ds) == 0 {
			t.Fatalf("%v found no exact covers for Q1", m)
		}
		for _, d := range ds {
			seen := make(map[int]bool)
			for _, c := range d {
				for _, nd := range c.Nodes {
					if seen[nd] {
						t.Fatalf("%v: node %d in two cliques of %v", m, nd, d)
					}
					seen[nd] = true
				}
			}
		}
	}
}

func TestMaximalExactCoverFailsOnChain3(t *testing.T) {
	// Section 4.4: for the Figure 10 query the maximal cliques are
	// {t1,t2} and {t2,t3}; no exact cover exists, so XC+ and MXC+ find
	// no decomposition.
	g := FromQuery(chain3())
	for _, m := range []Method{XCPlus, MXCPlus} {
		ds, trunc := Decompositions(g, m, 0)
		if len(ds) != 0 || trunc {
			t.Errorf("%v on chain3: got %d decompositions, want 0", m, len(ds))
		}
	}
}

func TestMinimumCoversAreMinimum(t *testing.T) {
	g := FromQuery(paperQ1())
	msc, _ := Decompositions(g, MSC, 0)
	if len(msc) == 0 {
		t.Fatal("MSC found no covers")
	}
	k := len(msc[0])
	for _, d := range msc {
		if len(d) != k {
			t.Errorf("MSC cover sizes differ: %d vs %d", len(d), k)
		}
	}
	// Q1: max clique size 4 over 11 nodes, so k >= 3; no 3-cover
	// exists (4+3+3 = 10 < 11), hence k == 4.
	if k != 4 {
		t.Errorf("MSC minimum cover size = %d, want 4", k)
	}
	// The paper's example cover {t1,t2},{t3..t6},{t7,t8,t9},{t10,t11}
	// must be among them.
	found := false
	for _, d := range msc {
		if len(d) == 4 &&
			keyOf(d[0]) == "0,1" && keyOf(d[1]) == "2,3,4,5" &&
			keyOf(d[2]) == "6,7,8" && keyOf(d[3]) == "9,10" {
			found = true
		}
	}
	if !found {
		t.Error("paper's G3 decomposition not found among MSC covers")
	}
}

func keyOf(c Clique) string { return c.Key() }

func TestSimpleCoverSupersetAllowed(t *testing.T) {
	// SC must include non-minimum covers (e.g. supersets of covers
	// within the size cap), unlike MSC. A 4-node chain has exactly one
	// minimum cover ({t1,t2},{t3,t4}) but several simple covers.
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?a . ?a <p2> ?b . ?b <p3> ?c . ?c <p4> ?y }`)
	g := FromQuery(q)
	sc, _ := Decompositions(g, SC, 0)
	msc, _ := Decompositions(g, MSC, 0)
	if len(msc) != 1 {
		t.Errorf("MSC found %d covers for chain4, want 1", len(msc))
	}
	if len(sc) <= len(msc) {
		t.Errorf("SC found %d covers, MSC %d; SC should be strictly larger", len(sc), len(msc))
	}
}

func TestBudgetTruncates(t *testing.T) {
	g := FromQuery(paperQ1())
	ds, trunc := Decompositions(g, SC, 10)
	if len(ds) != 10 || !trunc {
		t.Errorf("got %d covers, truncated=%v; want 10, true", len(ds), trunc)
	}
}

func TestSingleNodeGraphNoDecompositions(t *testing.T) {
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y }`)
	g := FromQuery(q)
	ds, _ := Decompositions(g, SC, 0)
	if len(ds) != 0 {
		t.Errorf("1-node graph decomposed: %v", ds)
	}
}

func TestTwoNodeGraph(t *testing.T) {
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?y . ?x <p2> ?z }`)
	g := FromQuery(q)
	for _, m := range AllMethods {
		ds, _ := Decompositions(g, m, 0)
		if len(ds) != 1 {
			t.Errorf("%v: %d decompositions for 2-node graph, want 1", m, len(ds))
			continue
		}
		if len(ds[0]) != 1 || len(ds[0][0].Nodes) != 2 {
			t.Errorf("%v: decomposition = %v", m, ds[0])
		}
	}
}

func TestMethodStringRoundTrip(t *testing.T) {
	for _, m := range AllMethods {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("ParseMethod accepted bogus name")
	}
}

func TestGraphString(t *testing.T) {
	g := FromQuery(chain3())
	s := g.String()
	if s == "" {
		t.Error("empty graph rendering")
	}
}
