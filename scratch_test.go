package cliquesquare

import (
	"testing"

	"cliquesquare/internal/lubm"
)

// scratchRetentionCeiling bounds what a context's scratch keeps after
// many different executions, relative to the most any single one of
// them leaves on a fresh engine (measured 1.000 at one lane and at two,
// LUBM at 20 universities: Q1's own temporaries and outputs, every unit
// bounded to a key range of at most M rows of its largest input run and
// its answer packed as a part every M rows beside its raw rows, its
// packed parts beside the answer; 1.000 when its map join was one unit
// per node and its raw answer part sat beside its scans; 1.32 at one
// lane when the answer was merged as it was read, so Q5's shuffle set
// the outputs; 1.000 with Q5 the hungriest; 1.03 and 1.05 when map joins
// built hash tables and Q11's were the largest temporary; 0.90 and
// 0.70–0.89 with a first-fit pool whose layout followed the schedule,
// 1.00 and 1.12–1.15 when arena scratch lived the whole execution and
// freed pieces did not merge, 0.97–1.10 before each tuple was held once;
// 2.1 at 200 universities and two lanes when every scratch position kept
// its own largest-ever array).
const scratchRetentionCeiling = 1.25

// TestScratchHoldsOneExecution pins what a warm execution context keeps:
// its scratch holds what the hungriest executions needed, not the sum
// over scratch positions of each one's largest-ever array. After three
// passes of the 14 LUBM queries the engine's one pooled context holds at
// most scratchRetentionCeiling times the most any one query leaves when
// it alone runs on a fresh engine, at one lane and at two.
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
// each LUBM query leaves after three executions on a fresh one-lane
// engine over 20 universities, where they are bit-deterministic: before,
// when a lane's arena scratch lived until the end of the execution,
// freed pieces went to power-of-two classes without merging, the pool
// kept only what it carved and the final merge kept an order of the
// surviving rows — so a repeat could grow the pool, and Q5, Q10 and Q11
// read more after the second execution than after the first (441,240,
// 189,936 and 173,616 B) — and now, with the shuffle holding its tuples'
// cells and one header per run, no record, and the answer packed as
// each unit of the last job ends, in arrays at the allocator's size
// class (Q1 and Q5 read 289,808 and 302,224 B while a shuffled tuple had
// a 24-byte record and the last job's raw rows waited for the merge).
// Since every unit is bounded — a morsel reads at most M rows of one
// input, and a unit of the last job packs a part every M rows — Q1 reads
// 122,880 B (147,456 when its map join was one morsel per node). A part
// is packed in its lane's arena beside its raw rows, so Q3 and Q8 read
// 20,480 and 46,336 B, above their readings here (18,432 and 40,832),
// which are kept: only Q1's and Q5's gate.
var scratchPeaks = []struct {
	query       string
	before, now uint64
}{
	{"Q1", 525432, 122880},
	{"Q2", 24576, 432},
	{"Q3", 78984, 18432},
	{"Q4", 24576, 5120},
	{"Q5", 533184, 94208},
	{"Q6", 99672, 22528},
	{"Q7", 95328, 19712},
	{"Q8", 172464, 40832},
	{"Q9", 82776, 21760},
	{"Q10", 225384, 45056},
	{"Q11", 202176, 45056},
	{"Q12", 148488, 28672},
	{"Q13", 99288, 17664},
	{"Q14", 124704, 31360},
}

// repeatScratch runs q n times on a fresh engine of the given lanes
// over g and returns the scratch reading after each execution.
func repeatScratch(t *testing.T, g *Graph, q *Query, lanes, n int) []uint64 {
	t.Helper()
	eng, err := NewEngine(g, Options{Parallelism: lanes})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	reads := make([]uint64, n)
	for i := range reads {
		queryAll(t, eng, []*Query{q})
		reads[i] = eng.UpdateStats().ScratchBytes
	}
	return reads
}

// TestScratchPeakPerQuery pins what three executions of each LUBM query
// leave in their context's buffer pool: no query may need more than it
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
		got := repeatScratch(t, g, q, 1, 3)[2]
		t.Logf("%s: %d B of scratch (before %d, pinned %d)", q.Name, got, pin.before, pin.now)
		if got > pin.before {
			t.Errorf("%s: %d B of scratch, more than the %d B before", q.Name, got, pin.before)
		}
		if ceiling := pin.now + pin.now/10; (q.Name == "Q1" || q.Name == "Q5") && got > ceiling {
			t.Errorf("%s: %d B of scratch, ceiling %d (1.1 times %d)", q.Name, got, ceiling, pin.now)
		}
	}
}

// TestScratchRepeatNeverGrows runs each LUBM query three times on a
// fresh engine over 20 universities, at one, two and four lanes: what
// the first execution needed, its scratch keeps, so the second and
// third grow nothing and ScratchBytes reads the same after each.
func TestScratchRepeatNeverGrows(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(20))
	for _, lanes := range []int{1, 2, 4} {
		for _, q := range lubm.Queries() {
			reads := repeatScratch(t, g, q, lanes, 3)
			if reads[1] != reads[0] || reads[2] != reads[0] {
				t.Errorf("%d lanes, %s: the scratch reads %v B after the 1st, 2nd and 3rd execution: a repeat grew it", lanes, q.Name, reads)
			}
		}
	}
}

// TestScratchIndependentOfSchedule pins that what a context keeps is a
// function of plan, data and lane count alone: at one, two and four
// lanes, ten fresh engines over 20 universities each run the 14 LUBM
// queries three times, and all thirty ScratchBytes readings — after each
// pass of each engine — are one number, whichever lane ran which morsel.
func TestScratchIndependentOfSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("30 engines over a 20-university dataset")
	}
	g := lubm.Generate(lubm.DefaultConfig(20))
	qs := lubm.Queries()
	for _, lanes := range []int{1, 2, 4} {
		seen := map[uint64]int{}
		for e := 0; e < 10; e++ {
			eng, err := NewEngine(g, Options{Parallelism: lanes})
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 3; pass++ {
				queryAll(t, eng, qs)
				seen[eng.UpdateStats().ScratchBytes]++
			}
			eng.Close()
		}
		if len(seen) != 1 {
			t.Errorf("%d lanes: 30 readings of the scratch, %d distinct: %v", lanes, len(seen), seen)
		} else {
			t.Logf("%d lanes: every reading %v", lanes, seen)
		}
	}
}
