package cliquesquare

import (
	"testing"

	"cliquesquare/internal/lubm"
)

// scratchRetentionCeiling bounds what a context's buffer pool keeps
// after many different executions, relative to the most any single one
// of them leaves on a fresh engine (measured 1.00 at one lane and
// 1.12–1.15 at two, LUBM at 20 universities — 0.97–1.10 before each
// tuple was held once, when Q1 alone needed 0.89–0.93 MB instead of
// 0.55 MB; 2.1 at 200 universities and two lanes when every scratch
// position kept its own largest-ever array).
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

// scratchPeaks are the buffer pool readings (UpdateStats().ScratchBytes)
// each LUBM query leaves on a fresh one-lane engine over 20
// universities, where they are bit-deterministic: before, when a routed
// tuple had a record in its bucket and a copy in its destination's
// array, the final merge sorted row numbers beside their order and a
// map-only root join wrote an arena block that a projection copied into
// the node output; and now, with each tuple held once.
var scratchPeaks = []struct {
	query       string
	before, now uint64
}{
	{"Q1", 826512, 525432},
	{"Q2", 24576, 24576},
	{"Q3", 111120, 78984},
	{"Q4", 30672, 24576},
	{"Q5", 714264, 441240},
	{"Q6", 150552, 99672},
	{"Q7", 129120, 95328},
	{"Q8", 216432, 172464},
	{"Q9", 111144, 82776},
	{"Q10", 272448, 189936},
	{"Q11", 192144, 173616},
	{"Q12", 232584, 148488},
	{"Q13", 149088, 99288},
	{"Q14", 170496, 124704},
}

// TestScratchPeakPerQuery pins what one execution of each LUBM query
// leaves in its context's buffer pool: no query may need more than it
// did before, and the two hungriest — Q1, map-only with a large answer,
// and Q5, whose shuffle carried the most — at most 1.1 times their
// current readings.
func TestScratchPeakPerQuery(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(20))
	qs := lubm.Queries()
	if len(qs) != len(scratchPeaks) {
		t.Fatalf("%d LUBM queries, %d pinned readings", len(qs), len(scratchPeaks))
	}
	for i, q := range qs {
		pin := scratchPeaks[i]
		if q.Name != pin.query {
			t.Fatalf("query %d is %s, pinned reading is %s's", i, q.Name, pin.query)
		}
		eng, err := NewEngine(g, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		queryAll(t, eng, []*Query{q})
		got := eng.UpdateStats().ScratchBytes
		eng.Close()
		t.Logf("%s: %d B of scratch (before %d, pinned %d)", q.Name, got, pin.before, pin.now)
		if got > pin.before {
			t.Errorf("%s: %d B of scratch, more than the %d B before", q.Name, got, pin.before)
		}
		if ceiling := pin.now + pin.now/10; (q.Name == "Q1" || q.Name == "Q5") && got > ceiling {
			t.Errorf("%s: %d B of scratch, ceiling %d (1.1 times %d)", q.Name, got, ceiling, pin.now)
		}
	}
}
