package cliquesquare

import (
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
)

// queryAll sends every query through the facade's Query.
func queryAll(t *testing.T, eng *Engine, qs []*Query) {
	t.Helper()
	for _, q := range qs {
		if _, err := eng.Query(q.String()); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
}

// deleteSome commits one batch deleting every step-th triple of g, n of
// them, through eng (which was built over g), and removes them from g,
// which the engine does not keep in step.
func deleteSome(t *testing.T, eng *Engine, g *Graph, n, step int) {
	t.Helper()
	b := new(Batch)
	var dels []rdf.Triple
	for i, tr := range g.Triples() {
		if i%step == 0 && b.Len() < n {
			b.Delete(g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O))
			dels = append(dels, tr)
		}
	}
	if res, err := eng.ApplyBatch(b); err != nil || res.Deleted != n {
		t.Fatalf("delete batch: %d deleted, err %v; want %d", res.Deleted, err, n)
	}
	g.RemoveBatch(dels)
}

// TestEnumerationsPerShape pins what an optimizer run is paid for: a
// written query shape, once. Any number of constants, of plan-cache
// misses and of commits later, the engine has enumerated as many times
// as it has seen shapes, and the spaces it keeps for that are small.
func TestEnumerationsPerShape(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))
	eng, err := NewEngine(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const passes = 5
	for c := 0; c < passes; c++ {
		queryAll(t, eng, lubm.UniversityVariants(c))
	}
	us := eng.UpdateStats()
	if misses := eng.CacheStats().Misses; us.Enumerations != 6 || us.Spaces != 6 || misses != 6*passes {
		t.Errorf("%d passes over the six templates: %d enumerations, %d spaces, %d plan-cache misses; want 6, 6 and %d",
			passes, us.Enumerations, us.Spaces, misses, 6*passes)
	}

	// The workload's other eight shapes, then commits under all 14.
	queryAll(t, eng, lubm.Queries())
	for round := 0; round < 3; round++ {
		deleteSome(t, eng, g, 50, 11+round)
		queryAll(t, eng, lubm.Queries())
	}
	us = eng.UpdateStats()
	if us.Enumerations != 14 || us.Spaces != 14 || us.Revalidations == 0 {
		t.Errorf("the LUBM workload and three commits later: %+v; want 14 enumerations, 14 spaces, and revalidations", us)
	}
	if us.SpaceBytes > 256<<10 {
		t.Errorf("the 14 LUBM plan spaces weigh %d B, want at most 256 KB", us.SpaceBytes)
	}
	// Explain shows the plan Query runs, chosen from the same space: it
	// runs no optimizer of its own.
	for _, q := range lubm.Queries() {
		if _, err := eng.Explain(q.String()); err != nil {
			t.Fatalf("explain %s: %v", q.Name, err)
		}
	}
	if n := eng.UpdateStats().Enumerations; n != 14 {
		t.Errorf("explaining the 14 LUBM queries took the enumerations to %d, want 14", n)
	}

	q14, err := NewEngine(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q14.Close()
	queryAll(t, q14, lubm.Queries()[13:])
	if us := q14.UpdateStats(); us.Spaces != 1 || us.SpaceBytes > 128<<10 {
		t.Errorf("Q14's space of 935 candidates: %d resident, %d B; want 1 of at most 128 KB", us.Spaces, us.SpaceBytes)
	}
}
