package core

import (
	"slices"
	"strings"
	"testing"

	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// paperQ1 is query Q1 from Figure 1: 11 patterns, join vars a,d,f,g,i,j.
func paperQ1() *sparql.Query {
	return sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h .
		?g <p9> ?i . ?i <p10> ?j . ?j <p11> "C1" }`)
}

// chain3 is Figure 10: t1 -x- t2 -y- t3.
func chain3() *sparql.Query {
	return sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?u . ?x <p2> ?y . ?y <p3> ?v }`)
}

// chain4 is Figure 11 (query QX): t1 -x- t2 -y- t3 -z- t4.
func chain4() *sparql.Query {
	return sparql.MustParse(`SELECT ?x WHERE { ?u <p1> ?x . ?x <p2> ?y . ?y <p3> ?z . ?z <p4> ?w }`)
}

// star14 is Figure 14: t1 -w- t2, t2 -x- t3, t2 -y- t4. The centre
// pattern t2 carries three distinct join variables, so it uses a
// variable in the predicate position.
func star14() *sparql.Query {
	return sparql.MustParse(`SELECT ?w WHERE { ?u <p1> ?w . ?w ?x ?y . ?x <p3> ?c . ?y <p4> ?d }`)
}

func optimize(t *testing.T, q *sparql.Query, m vargraph.Method) *Result {
	t.Helper()
	res, err := Optimize(q, Options{Method: m, MaxPlans: 200000})
	if err != nil {
		t.Fatalf("Optimize(%v): %v", m, err)
	}
	return res
}

func TestMSCOnQ1FindsHeight3(t *testing.T) {
	res := optimize(t, paperQ1(), vargraph.MSC)
	if len(res.Plans) == 0 {
		t.Fatal("MSC found no plans for Q1")
	}
	if h := res.MinHeight(); h != 3 {
		t.Errorf("MSC min height for Q1 = %d, want 3 (Figure 4)", h)
	}
	// Figure 4's first level joins {t1,t2} on a, {t3..t6} on d,
	// {t7,t8,t9} on g, {t10,t11} on j; verify such a plan exists.
	found := false
	for _, p := range res.Unique {
		sig := p.Signature()
		if strings.Contains(sig, "J[a](M0;M1)") &&
			strings.Contains(sig, "J[d](M2;M3;M4;M5)") &&
			strings.Contains(sig, "J[g](M6;M7;M8)") &&
			strings.Contains(sig, "J[j](M10;M9)") { // children sort as strings
			found = true
			break
		}
	}
	if !found {
		t.Error("plan of Figure 4 not found among MSC plans")
	}
}

func TestOptimalHeightQ1(t *testing.T) {
	h, err := OptimalHeight(paperQ1())
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Errorf("OptimalHeight(Q1) = %d, want 3", h)
	}
}

func TestPlanStructure(t *testing.T) {
	res := optimize(t, chain3(), vargraph.MSC)
	if len(res.Unique) == 0 {
		t.Fatal("no plans")
	}
	p := res.Unique[0]
	if p.Root.Kind != OpProject {
		t.Errorf("root is %v, want project", p.Root.Kind)
	}
	if got := p.Root.Attrs; len(got) != 1 || got[0] != "x" {
		t.Errorf("projection attrs = %v, want [x]", got)
	}
	if p.Joins() == 0 {
		t.Error("plan has no joins")
	}
	if s := p.String(); !strings.Contains(s, "M t1") {
		t.Errorf("rendering lacks match op:\n%s", s)
	}
}

func TestJoinAttrsAreChildIntersection(t *testing.T) {
	msc := optimize(t, paperQ1(), vargraph.MSC)
	for _, p := range msc.Unique {
		checkJoins(t, p.Root)
	}
	// SC on an 11-node query explodes; a capped sample suffices here.
	sc, err := Optimize(paperQ1(), Options{Method: vargraph.SC, MaxPlans: 500, MaxCoversPerStep: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sc.Unique {
		checkJoins(t, p.Root)
	}
}

func checkJoins(t *testing.T, op *Op) {
	t.Helper()
	if op.Kind == OpJoin {
		// Every join attribute must occur in every child.
		for _, a := range op.JoinAttrs {
			for _, c := range op.Children {
				if !hasAttr(c, a) {
					t.Errorf("join attr %q missing from child with attrs %v", a, c.Attrs)
				}
			}
		}
		if len(op.Children) < 2 {
			t.Errorf("join with %d children", len(op.Children))
		}
	}
	for _, c := range op.Children {
		checkJoins(t, c)
	}
}

func hasAttr(op *Op, a string) bool {
	for _, x := range op.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

func TestXCPlusFailsOnChain3(t *testing.T) {
	// Section 4.4: MXC+ and XC+ find no plan for the Figure 10 query.
	for _, m := range []vargraph.Method{vargraph.XCPlus, vargraph.MXCPlus} {
		res := optimize(t, chain3(), m)
		if len(res.Plans) != 0 {
			t.Errorf("%v produced %d plans for chain3, want 0", m, len(res.Plans))
		}
	}
}

func TestSCPlusSinglePlanOnChain3(t *testing.T) {
	// Section 4.4: SC+ can produce only one plan for the Figure 10
	// query: join {t1,t2} and {t2,t3}, then join the two results.
	res := optimize(t, chain3(), vargraph.SCPlus)
	if len(res.Unique) != 1 {
		t.Fatalf("SC+ produced %d unique plans for chain3, want 1", len(res.Unique))
	}
	if h := res.Unique[0].Height(); h != 2 {
		t.Errorf("SC+ plan height = %d, want 2", h)
	}
	// SC additionally finds the plan joining t1⋈t2 with the
	// pass-through t3 at the next level (also height 2).
	resSC := optimize(t, chain3(), vargraph.SC)
	if len(resSC.Unique) <= 1 {
		t.Errorf("SC produced %d unique plans, want > 1", len(resSC.Unique))
	}
	for _, p := range resSC.Unique {
		if p.Height() != 2 {
			t.Errorf("SC plan height = %d, want 2", p.Height())
		}
	}
}

func TestMSCNotHOCompleteOnChain4(t *testing.T) {
	// Figures 11-13: MSC produces exactly one plan for QX; SC also
	// finds other height-2 plans (e.g. with an overlapping middle
	// join), so MSC is HO-partial but not HO-complete.
	msc := optimize(t, chain4(), vargraph.MSC)
	if len(msc.Unique) != 1 {
		t.Fatalf("MSC produced %d unique plans for QX, want 1", len(msc.Unique))
	}
	if h := msc.Unique[0].Height(); h != 2 {
		t.Errorf("MSC plan height = %d, want 2", h)
	}
	sc := optimize(t, chain4(), vargraph.SC)
	extra := 0
	for _, p := range sc.Unique {
		if p.Height() == 2 && p.Signature() != msc.Unique[0].Signature() {
			extra++
		}
	}
	if extra == 0 {
		t.Error("SC found no height-2 plan beyond MSC's single plan")
	}
}

func TestXCIsHOLossyOnStar14(t *testing.T) {
	// Figure 14: exact-cover variants cannot reach the optimal height
	// (2); their best plans need an extra level.
	hStar, err := OptimalHeight(star14())
	if err != nil {
		t.Fatal(err)
	}
	if hStar != 2 {
		t.Fatalf("optimal height for Figure 14 query = %d, want 2", hStar)
	}
	for _, m := range []vargraph.Method{vargraph.XC, vargraph.MXC} {
		res := optimize(t, star14(), m)
		if len(res.Plans) == 0 {
			t.Fatalf("%v found no plans", m)
		}
		if h := res.MinHeight(); h <= hStar {
			t.Errorf("%v min height = %d; should exceed optimal %d", m, h, hStar)
		}
	}
	// The simple-cover variants do reach the optimum here.
	for _, m := range []vargraph.Method{vargraph.MSCPlus, vargraph.MSC, vargraph.SC} {
		res := optimize(t, star14(), m)
		if h := res.MinHeight(); h != hStar {
			t.Errorf("%v min height = %d, want %d", m, h, hStar)
		}
	}
}

// sigSet returns the unique plan signatures produced by method m.
func sigSet(t *testing.T, q *sparql.Query, m vargraph.Method) map[string]bool {
	out := make(map[string]bool)
	for _, p := range optimize(t, q, m).Unique {
		out[p.Signature()] = true
	}
	return out
}

func TestPlanSpaceInclusions(t *testing.T) {
	// Theorem 4.1 / Figure 7: the plan-space inclusion lattice. Each
	// pair (A, B) asserts P_A ⊆ P_B.
	pairs := [][2]vargraph.Method{
		{vargraph.MXCPlus, vargraph.XCPlus},
		{vargraph.MXCPlus, vargraph.MSCPlus},
		{vargraph.MXCPlus, vargraph.MXC},
		{vargraph.XCPlus, vargraph.SCPlus},
		{vargraph.XCPlus, vargraph.XC},
		{vargraph.MSCPlus, vargraph.SCPlus},
		{vargraph.MSCPlus, vargraph.MSC},
		{vargraph.MXC, vargraph.XC},
		{vargraph.MXC, vargraph.MSC},
		{vargraph.SCPlus, vargraph.SC},
		{vargraph.XC, vargraph.SC},
		{vargraph.MSC, vargraph.SC},
	}
	queries := map[string]*sparql.Query{
		"chain3": chain3(),
		"chain4": chain4(),
		"star14": star14(),
		"star3":  sparql.MustParse(`SELECT ?x WHERE { ?x <p1> ?a . ?x <p2> ?b . ?x <p3> ?c }`),
	}
	for name, q := range queries {
		sigs := make(map[vargraph.Method]map[string]bool)
		for _, m := range vargraph.AllMethods {
			sigs[m] = sigSet(t, q, m)
		}
		for _, pr := range pairs {
			sub, super := sigs[pr[0]], sigs[pr[1]]
			for s := range sub {
				if !super[s] {
					t.Errorf("%s: plan in P_%v missing from P_%v: %s", name, pr[0], pr[1], s)
				}
			}
		}
	}
}

func TestOptimizeRejectsInvalidQuery(t *testing.T) {
	q := &sparql.Query{Select: []string{"a"}, Patterns: []sparql.TriplePattern{
		{S: sparql.Variable("a"), P: sparql.Variable("p"), O: sparql.Variable("b")},
		{S: sparql.Variable("x"), P: sparql.Variable("q"), O: sparql.Variable("y")},
	}}
	if _, err := Optimize(q, Options{Method: vargraph.MSC}); err == nil {
		t.Error("Optimize accepted a cartesian-product query")
	}
}

func TestOptimizeSinglePattern(t *testing.T) {
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y }`)
	res := optimize(t, q, vargraph.MSC)
	if len(res.Plans) != 1 {
		t.Fatalf("got %d plans, want 1", len(res.Plans))
	}
	if h := res.Plans[0].Height(); h != 0 {
		t.Errorf("height = %d, want 0", h)
	}
	if res.Plans[0].Joins() != 0 {
		t.Error("single-pattern plan has joins")
	}
}

// TestMaxPlansBudget: a run cut by its counts stops at exactly the cap,
// and it is the same cut every time — the budget is a count, not a
// clock, so it keeps the same unique plans in the same order.
func TestMaxPlansBudget(t *testing.T) {
	var prev []string
	for run := 0; run < 2; run++ {
		res, err := Optimize(paperQ1(), Options{Method: vargraph.SC, MaxPlans: 50, MaxCoversPerStep: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Plans) != 50 || !res.Truncated {
			t.Errorf("plans=%d truncated=%v, want 50, true", len(res.Plans), res.Truncated)
		}
		var sigs []string
		for _, p := range res.Unique {
			sigs = append(sigs, p.Signature())
		}
		if prev != nil && !slices.Equal(sigs, prev) {
			t.Errorf("run %d: %d unique plans differ from run 0's %d", run, len(sigs), len(prev))
		}
		prev = sigs
	}
}

func TestUniquenessAndOptimalityRatios(t *testing.T) {
	res := optimize(t, chain4(), vargraph.MSC)
	if r := res.UniquenessRatio(); r != 1.0 {
		t.Errorf("MSC uniqueness ratio on chain4 = %v, want 1.0", r)
	}
	if r := res.OptimalityRatio(2); r != 1.0 {
		t.Errorf("MSC optimality ratio = %v, want 1.0", r)
	}
	empty := &Result{}
	if empty.UniquenessRatio() != 0 || empty.OptimalityRatio(1) != 0 || empty.MinHeight() != -1 {
		t.Error("empty result ratios/height wrong")
	}
}

func TestBestPlanSelection(t *testing.T) {
	res := optimize(t, chain3(), vargraph.SC)
	// Rank by join count: the 2-join plan must win over any 3-join one.
	best := res.Best(func(p *Plan) float64 { return float64(p.Joins()) })
	if best == nil {
		t.Fatal("no best plan")
	}
	for _, p := range res.Unique {
		if p.Joins() < best.Joins() {
			t.Errorf("best has %d joins but %d exists", best.Joins(), p.Joins())
		}
	}
	if (&Result{}).Best(func(*Plan) float64 { return 0 }) != nil {
		t.Error("Best on empty result should be nil")
	}
}

func TestCreateQueryPlansErrors(t *testing.T) {
	q := chain3()
	if _, err := CreateQueryPlans(q, nil); err == nil {
		t.Error("accepted empty states")
	}
	g := vargraph.FromQuery(q)
	if _, err := CreateQueryPlans(q, []*vargraph.Graph{g}); err == nil {
		t.Error("accepted final graph with >1 node")
	}
}

func TestReductionsCounter(t *testing.T) {
	res := optimize(t, chain4(), vargraph.MSC)
	if res.Reductions == 0 {
		t.Error("no clique reductions counted")
	}
}
