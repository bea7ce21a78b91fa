package physical

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TestFileNamesKeyOnWhatNamesFiles runs the LUBM queries that name a
// university — a cold pass each for 20 universities, on one pooled
// context — and holds the lanes' file-name memo to what names a file: a
// scan's property, the class of an rdf:type pattern read at the
// property, and the replica. The memo is as long after 20 passes as
// after the first, so no pass after it resolves a name.
func TestFileNamesKeyOnWhatNamesFiles(t *testing.T) {
	x := newExec(lubm.Generate(lubm.DefaultConfig(20)), 7)
	memo := func() (n int) {
		for _, a := range x.ctx.arenas {
			n += len(a.fileNames)
		}
		return n
	}
	var first int
	for u := 0; u < 20; u++ {
		for _, q := range lubm.Queries() {
			src := q.String()
			if !strings.Contains(src, lubm.UniversityIRI(0)) && !strings.Contains(src, `"University3"`) {
				continue
			}
			src = strings.ReplaceAll(src, "<"+lubm.UniversityIRI(0)+">", "<"+lubm.UniversityIRI(u)+">")
			src = strings.ReplaceAll(src, `"University3"`, fmt.Sprintf(`"University%d"`, u))
			pp, err := Compile(mscPlan(t, sparql.MustParse(src)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.Execute(pp); err != nil {
				t.Fatalf("%s, university %d: %v", q.Name, u, err)
			}
		}
		if u == 0 {
			first = memo()
		} else if n := memo(); n != first {
			t.Fatalf("after %d universities the file-name memo holds %d lists, after the first %d", u+1, n, first)
		}
	}
	if first == 0 {
		t.Fatal("the queries resolved no file names")
	}
}

// TestIdleContextHoldsNoEpoch runs a plan on a context, then commits a
// batch that supersedes the epoch the plan read. Once the plan is
// dropped, the idle context keeps neither that epoch alive (the lanes'
// file-name memo recognises the view it was filled on without holding
// it) nor the plan's operators (the morsel table is cleared to its
// capacity).
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
