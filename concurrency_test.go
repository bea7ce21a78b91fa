package cliquesquare

// Determinism of the execution runtime: many lanes and one lane must
// produce identical results and identical simulated statistics over
// the LUBM workload (run under -race in CI).

import (
	"reflect"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/systems/csq"
)

// runWorkload executes every LUBM query and returns per-query rows and
// job stats.
func runWorkload(t *testing.T, eng *csq.Engine) (map[string][][]uint32, map[string]interface{}) {
	t.Helper()
	rows := make(map[string][][]uint32)
	stats := make(map[string]interface{})
	for _, q := range lubm.Queries() {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		r, err := eng.ExecutePlan(p.Physical)
		if err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
		var rs [][]uint32
		for _, row := range r.Rows {
			vals := make([]uint32, len(row))
			for i, v := range row {
				vals[i] = uint32(v)
			}
			rs = append(rs, vals)
		}
		rows[q.Name] = rs
		stats[q.Name] = r.Jobs
	}
	return rows, stats
}

// TestParallelSequentialDeterminism asserts that running on several
// lanes is observationally identical to the one-lane pin: same result
// rows, same job count, byte-identical JobStats (including the
// floating-point simulated times) for every LUBM query.
func TestParallelSequentialDeterminism(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))

	// Force a multi-worker pool explicitly (0 would mean GOMAXPROCS,
	// which is one lane on a single-CPU machine).
	par := csq.DefaultConfig()
	par.Parallelism = 4
	parEng := csq.New(g, par)

	seq := csq.DefaultConfig()
	seq.Parallelism = 1
	seqEng := csq.New(g, seq)

	prows, pstats := runWorkload(t, parEng)
	srows, sstats := runWorkload(t, seqEng)

	for _, q := range lubm.Queries() {
		if !reflect.DeepEqual(prows[q.Name], srows[q.Name]) {
			t.Errorf("%s: result rows differ between the 4-lane and one-lane runs", q.Name)
		}
		if !reflect.DeepEqual(pstats[q.Name], sstats[q.Name]) {
			t.Errorf("%s: job stats differ:\n4 lanes  %+v\none lane %+v",
				q.Name, pstats[q.Name], sstats[q.Name])
		}
	}
}

// TestFacadeParallelismKnob checks the facade-level knob end to end:
// any parallelism degree yields the same decoded answer.
func TestFacadeParallelismKnob(t *testing.T) {
	g := NewGraph()
	g.AddSPO("alice", "knows", "bob")
	g.AddSPO("bob", "knows", "carol")
	g.AddSPO("carol", "knows", "dave")
	const src = `SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`
	var want [][]string
	for i, par := range []int{-1, 1, 2, 0} {
		eng, err := NewEngine(g, Options{Nodes: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("parallelism %d: got %d rows, want 2", par, len(res.Rows))
		}
		if i == 0 {
			want = res.Rows
			continue
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("parallelism %d: rows differ from the one-lane baseline", par)
		}
	}
}
