package cliquesquare

import (
	"testing"

	"cliquesquare/internal/lubm"
)

// scratchRetentionCeiling bounds what a context's buffer pool keeps
// after many different executions, relative to the most any single one
// of them leaves on a fresh engine (measured 1.00 at one lane and
// 0.99–1.10 at two, LUBM at 20 universities; 2.1 at 200 universities
// and two lanes when every scratch position kept its own largest-ever
// array).
const scratchRetentionCeiling = 1.25

// TestScratchHoldsOneExecution pins what a warm execution context keeps:
// its buffer pool holds what the hungriest single execution reached, not
// the sum over scratch positions of each one's largest-ever array. After
// three passes of the 14 LUBM queries the engine's one pooled context
// holds at most scratchRetentionCeiling times the most any one query
// leaves when it alone runs on a fresh engine: bit-deterministic at one
// lane, the same bound at two, whose lanes share the pool.
func TestScratchHoldsOneExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("30 engines over a 20-university dataset")
	}
	g := lubm.Generate(lubm.DefaultConfig(20))
	qs := lubm.Queries()
	for _, lanes := range []int{1, 2} {
		scratch := func(passes int, qs ...*Query) uint64 {
			eng, err := NewEngine(g, Options{Parallelism: lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < passes; i++ {
				queryAll(t, eng, qs)
			}
			us := eng.UpdateStats()
			if us.Contexts != 1 {
				t.Fatalf("%d lanes: %d pooled contexts after sequential queries, want 1", lanes, us.Contexts)
			}
			return us.ScratchBytes
		}
		var hungriest uint64
		var name string
		for _, q := range qs {
			if b := scratch(1, q); b > hungriest {
				hungriest, name = b, q.Name
			}
		}
		warm := scratch(3, qs...)
		ratio := float64(warm) / float64(hungriest)
		if ratio > scratchRetentionCeiling {
			t.Errorf("%d lanes: three passes leave %d B of scratch, %.2f times the %d B of %s alone (ceiling %.2f)",
				lanes, warm, ratio, hungriest, name, scratchRetentionCeiling)
		} else {
			t.Logf("%d lanes: three passes leave %d B of scratch, %.3f times the %d B of %s alone", lanes, warm, ratio, hungriest, name)
		}
	}
}
