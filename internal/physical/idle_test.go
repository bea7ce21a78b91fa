package physical

import (
	"runtime"
	"testing"
	"weak"

	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TestIdleContextHoldsNoEpoch runs a plan on a context, then commits a
// batch that supersedes the epoch the plan read. Once the plan is
// dropped, the idle context keeps neither that epoch alive (release
// drops the view; the lanes' file lists hold ids, not files) nor the
// plan's operators (the morsel table is cleared to its capacity).
func TestIdleContextHoldsNoEpoch(t *testing.T) {
	g := testGraph()
	x := newExec(g, 3)
	q := sparql.MustParse(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z . ?z <livesIn> ?c }`)
	r, pp := runBest(t, x, q)
	if len(r.Jobs) == 0 || len(r.Rows) == 0 {
		t.Fatalf("the plan ran %d jobs for %d rows, the test needs both", len(r.Jobs), len(r.Rows))
	}
	view, root := weak.Make(x.part.Current()), weak.Make(pp.Infos[0])
	x.part.ApplyBatch([]rdf.Triple{g.AddSPO("eve", "knows", "alice")}, nil, g.Dict)
	pp = nil
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	if view.Value() != nil {
		t.Error("the superseded view is still reachable from the idle context")
	}
	if root.Value() != nil {
		t.Error("the plan the idle context ran last is still reachable from it")
	}
	runtime.KeepAlive(x)
}
