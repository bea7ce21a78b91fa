package physical

import (
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// TestMapJoinInputsArriveSorted: every stored file is sorted on its
// placed cell, and a map join's scans read the replica placed on the
// join's first attribute, so its inputs arrive in key order and the
// merge never sorts one. The 14 LUBM queries run at 2 universities in
// every MSC plan and at 20 in the plan the cost model picks, under both
// partitionings and both placements, on two lanes; no arena may have
// sorted a join input. A scan of a variable property reads one file per
// property, so a join over it does sort — the control that shows the
// counter counts.
func TestMapJoinInputsArriveSorted(t *testing.T) {
	if testing.Short() {
		t.Skip("every MSC plan of the LUBM queries over 20 universities")
	}
	control := sparql.MustParse(`PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#>
SELECT ?x ?p ?y ?n WHERE { ?x ?p ?y . ?x ub:name ?n }`)
	control.Name = "variable-property"
	for _, univ := range []int{2, 20} {
		g := lubm.Generate(lubm.DefaultConfig(univ))
		for _, mode := range []partition.Mode{partition.ThreeReplica, partition.SubjectOnly} {
			var colo CoLocator
			if mode == partition.SubjectOnly {
				colo = SubjectOnlyCoLocator()
			}
			for _, placement := range []string{"modulo", "ring"} {
				policy, _ := partition.PolicyByName(placement)
				x := newExecMode(g, 7, mode, policy)
				x.ctx = NewExecContext(2, mapreduce.DefaultConstants())
				for _, q := range lubm.Queries() {
					if n := sortedInputs(t, x, g, q, colo, univ > 2); n != 0 {
						t.Errorf("univ %d, %v, %s placement, %s: the merge sorted %d join inputs", univ, mode, placement, q.Name, n)
					}
				}
				if sortedInputs(t, x, g, control, colo, false) == 0 {
					t.Errorf("univ %d, %v, %s placement: the variable-property join sorted no input", univ, mode, placement)
				}
			}
		}
	}
}

// sortedInputs runs every MSC plan of q on x — or, with chosen, the one
// the cost model picks over g — and returns how many join inputs its
// arenas sorted meanwhile.
func sortedInputs(t *testing.T, x *testExec, g *rdf.Graph, q *sparql.Query, colo CoLocator, chosen bool) (n int) {
	t.Helper()
	res, err := core.Optimize(q, core.Options{Method: vargraph.MSC})
	if err != nil {
		t.Fatal(err)
	}
	plans := res.Unique
	if chosen {
		best, _, _ := cost.NewModel(mapreduce.DefaultConstants(), cost.NewStats(g, q)).ChooseIndexed(plans)
		plans = []*core.Plan{best}
	}
	before := 0
	for _, a := range x.ctx.arenas {
		before += a.sorts
	}
	for _, p := range plans {
		pp, err := CompileWith(p, colo)
		if err != nil {
			continue // a reduce join the shuffle cannot carry
		}
		if _, err := x.Execute(pp); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range x.ctx.arenas {
		n += a.sorts
	}
	return n - before
}
