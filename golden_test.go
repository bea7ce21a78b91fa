package cliquesquare

// Golden pin of the simulated runtime's observable behaviour: per-query
// JobStats (including the floating-point simulated times) and a hash of
// the sorted result rows over the LUBM workload, for both the
// MSC-chosen flat plans and the best binary linear plans (whose extra
// join levels exercise the intermediate re-shuffle path). The file was
// captured from the seed string-keyed runtime; any rewrite of the
// shuffle data path must reproduce it — byte for byte but for the
// simulated times, which pinDrift holds to pinTolerance.
//
// Regenerate (only when the simulation model itself changes, never to
// paper over a runtime refactor) with:
//
//	go test -run TestRuntimeGolden -update-golden .

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"cliquesquare/internal/binplan"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/systems/csq"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/lubm_runtime_golden.json from the current runtime")

const goldenPath = "testdata/lubm_runtime_golden.json"

type goldenQuery struct {
	Rows    int                  `json:"rows"`
	RowHash string               `json:"row_hash"`
	Jobs    []mapreduce.JobStats `json:"jobs"`
}

type goldenWorkload struct {
	Flat   map[string]goldenQuery `json:"flat"`
	Linear map[string]goldenQuery `json:"linear"`
}

// hashRows digests result rows (already deduplicated and sorted by the
// executor) as length-prefixed little-endian cells.
func hashRows(rows []mapreduce.Row) string {
	h := sha256.New()
	var buf [4]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(row)))
		h.Write(buf[:])
		for _, v := range row {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func captureWorkload(t *testing.T) goldenWorkload {
	t.Helper()
	g := lubm.Generate(lubm.DefaultConfig(2))
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	got := goldenWorkload{
		Flat:   make(map[string]goldenQuery),
		Linear: make(map[string]goldenQuery),
	}
	record := func(m map[string]goldenQuery, name string, pp *physical.Plan) {
		r, err := eng.ExecutePlan(pp)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		m[name] = goldenQuery{Rows: len(r.Rows), RowHash: hashRows(r.Rows), Jobs: r.Jobs}
	}
	for _, q := range lubm.Queries() {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("%s: plan: %v", q.Name, err)
		}
		record(got.Flat, q.Name, p.Physical)

		if len(q.Patterns) < 2 {
			continue
		}
		model := cost.NewModel(cfg.Constants, cost.NewStats(g, q))
		linear, err := binplan.BestLinear(q, model)
		if err != nil {
			t.Fatalf("%s: linear plan: %v", q.Name, err)
		}
		linearPP, err := physical.Compile(linear)
		if err != nil {
			t.Fatalf("%s: compile linear: %v", q.Name, err)
		}
		record(got.Linear, q.Name, linearPP)
	}
	return got
}

// pinTolerance bounds how far, relative, a simulated time may sit from
// its seed pin. The seed priced every metering call (constant × count)
// and summed the products in call order; the runtime now sums integer
// counts and prices each node's sums once, so a time with checks in it
// (c_check = 0.1 is not exactly representable) can differ from its pin
// in the last bits — by 1.9e-16 at most on this workload. One check
// more or less on any pinned job moves its time by 0.1 µs in at least
// 5e6 µs of job start-up, ≥ 2e-8 relative, far outside the bound
// (TestPinToleranceCatchesOneCheck).
const pinTolerance = 1e-12

// pinDrift compares executions with their seed pins and keeps count of
// the simulated times that moved at all, and of the largest relative
// move.
type pinDrift struct {
	figures, moved int
	worst          float64
}

// check holds got to the pinned jobs: names, MapOnly and the integer
// counters exactly, MapTime, ShuffleTime, ReduceTime and Time within
// pinTolerance. It reports the first disagreement.
func (d *pinDrift) check(got, want []mapreduce.JobStats) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d jobs, pinned %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		gt := [4]float64{g.MapTime, g.ShuffleTime, g.ReduceTime, g.Time}
		wt := [4]float64{w.MapTime, w.ShuffleTime, w.ReduceTime, w.Time}
		g.MapTime, g.ShuffleTime, g.ReduceTime, g.Time = w.MapTime, w.ShuffleTime, w.ReduceTime, w.Time
		if g != w {
			return fmt.Errorf("job %d: %+v, pinned %+v", i+1, got[i], w)
		}
		for k := range wt {
			d.figures++
			if gt[k] == wt[k] {
				continue
			}
			d.moved++
			rel := math.Abs(gt[k]-wt[k]) / math.Abs(wt[k])
			d.worst = max(d.worst, rel)
			if rel > pinTolerance {
				return fmt.Errorf("job %d: %+v, pinned %+v (a time %.3g off, relative)", i+1, got[i], w, rel)
			}
		}
	}
	return nil
}

// readGolden loads the seed pins.
func readGolden(t *testing.T) goldenWorkload {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want goldenWorkload
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRuntimeGolden asserts the runtime reproduces the pinned seed
// behaviour: identical result rows (count and content hash) and
// JobStats matching the pins (pinDrift) for every LUBM query under
// flat and linear plans.
func TestRuntimeGolden(t *testing.T) {
	got := captureWorkload(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	var d pinDrift
	compareWorkloads(t, &d, got, readGolden(t))
	t.Logf("%d of %d pinned simulated times moved, by at most %.2g relative", d.moved, d.figures, d.worst)
}

func compareWorkloads(t *testing.T, d *pinDrift, got, want goldenWorkload) {
	t.Helper()
	for _, variant := range []struct {
		name      string
		got, want map[string]goldenQuery
	}{{"flat", got.Flat, want.Flat}, {"linear", got.Linear, want.Linear}} {
		if len(variant.got) != len(variant.want) {
			t.Errorf("%s: %d queries captured, golden has %d", variant.name, len(variant.got), len(variant.want))
		}
		for name, w := range variant.want {
			g, ok := variant.got[name]
			if !ok {
				t.Errorf("%s/%s: missing from capture", variant.name, name)
				continue
			}
			if g.Rows != w.Rows || g.RowHash != w.RowHash {
				t.Errorf("%s/%s: rows %d hash %s, golden rows %d hash %s",
					variant.name, name, g.Rows, g.RowHash, w.Rows, w.RowHash)
			}
			if err := d.check(g.Jobs, w.Jobs); err != nil {
				t.Errorf("%s/%s: %v", variant.name, name, err)
			}
		}
	}
}

// TestPinToleranceCatchesOneCheck shows pinTolerance loosens nothing a
// metering change could move: one check more on the busiest node of any
// phase of any pinned job — every job's map or reduce time, and the
// job's time with it — fails the comparison.
func TestPinToleranceCatchesOneCheck(t *testing.T) {
	check := csq.DefaultConfig().Constants.Check
	golden := readGolden(t)
	mutations := 0
	for _, pins := range []map[string]goldenQuery{golden.Flat, golden.Linear} {
		for name, pin := range pins {
			for i, job := range pin.Jobs {
				for _, reduce := range []bool{false, true} {
					if reduce && job.MapOnly {
						continue
					}
					mutated := slices.Clone(pin.Jobs)
					if reduce {
						mutated[i].ReduceTime += check
					} else {
						mutated[i].MapTime += check
					}
					mutated[i].Time += check
					if (&pinDrift{}).check(mutated, pin.Jobs) == nil {
						t.Errorf("%s job %d: one check more (%+v) passes as the pin %+v", name, i+1, mutated[i], job)
					}
					mutations++
				}
			}
		}
	}
	if mutations < 100 {
		t.Fatalf("only %d mutations: the golden file lost its jobs", mutations)
	}
}

// TestPreparedCachedGolden pins the serving path against the same
// golden file: for every LUBM query, a *cached* prepared plan —
// obtained from a second PrepareCached call, so it went through the
// fingerprint cache — is executed twice, and each execution must
// reproduce the golden rows and JobStats. This is the guarantee that
// plan caching changes only where the plan comes from, never what it
// computes.
func TestPreparedCachedGolden(t *testing.T) {
	want := readGolden(t)
	var d pinDrift
	g := lubm.Generate(lubm.DefaultConfig(2))
	eng := csq.New(g, csq.DefaultConfig())
	for _, q := range lubm.Queries() {
		if _, hit, err := eng.PrepareCached(q); err != nil || hit {
			t.Fatalf("%s: cold prepare: hit=%v err=%v", q.Name, hit, err)
		}
		p, hit, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: cached prepare: %v", q.Name, err)
		}
		if !hit {
			t.Fatalf("%s: second PrepareCached missed the cache", q.Name)
		}
		w, ok := want.Flat[q.Name]
		if !ok {
			t.Fatalf("%s: missing from golden", q.Name)
		}
		for run := 0; run < 2; run++ {
			r, err := eng.ExecutePrepared(p)
			if err != nil {
				t.Fatalf("%s: execute %d: %v", q.Name, run, err)
			}
			if len(r.Rows) != w.Rows || hashRows(r.Rows) != w.RowHash {
				t.Errorf("%s run %d: rows %d hash %s, golden rows %d hash %s",
					q.Name, run, len(r.Rows), hashRows(r.Rows), w.Rows, w.RowHash)
			}
			if err := d.check(r.Jobs, w.Jobs); err != nil {
				t.Errorf("%s run %d: %v", q.Name, run, err)
			}
		}
	}
	if st := eng.CacheStats(); st.Misses != uint64(len(lubm.Queries())) {
		t.Errorf("planned %d times for %d queries", st.Misses, len(lubm.Queries()))
	}
}
