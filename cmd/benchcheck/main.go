// Command benchcheck compares two benchmark result files in `go test
// -json` form (the BENCH_*.json CI artifacts) and fails when the new
// run regresses against the baseline: allocs/op must not exceed the
// baseline at all (allocation counts are deterministic, so any increase
// is a real regression), while ns/op gets a configurable relative slack
// (CI runners are noisy). Repeated measurements of one benchmark
// (-count N) are reduced to their median, a benchstat-style central
// value robust to one-off outliers.
//
// Usage:
//
//	benchcheck -baseline BENCH_pr2.json -new BENCH_pr6.json [-ns-slack 0.30]
//	benchcheck -scaling BENCH_pr8.json [-min-speedup 1.2]
//	benchcheck -serving BENCH_pr9.json [-min-serving-speedup 1.0]
//	benchcheck -reshard BENCH_pr10.json [-max-stall-ms 1000] [-max-moved-factor 2]
//
// Benchmarks present only in the baseline are ignored (old benchmarks
// may be retired); benchmarks present only in the new file pass (no
// baseline to regress against). The comparison table is printed either
// way.
//
// The second form gates a scaling report (the csq-bench -exp=scaling
// JSON) instead of go test -json output: the best parallel point on the
// LUBM workload curve must reach the minimum speedup over the
// sequential baseline. On machines with fewer than four cores the gate
// skips (exit 0) — a near-serial machine cannot demonstrate parallel
// speedup, only CI-class runners enforce it.
//
// The third form gates a serving report produced with -rescache: the
// result cache must have taken real hits and cached QPS must reach the
// minimum multiple of the uncached baseline measured in the same run.
//
// The fourth form gates an elastic-reshard report (csq-bench
// -exp=reshard): readers must have been served through both resizes
// with answers intact, no single reader request may stall beyond the
// bound, and each resize's moved-data fraction must stay within the
// allowed multiple of the consistent-hashing ideal |ΔN|/max(N).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// sample is the per-benchmark series of repeated measurements.
type sample struct {
	nsOp     []float64
	allocsOp []float64
}

// event is the subset of a `go test -json` line benchcheck reads.
type event struct {
	Action string
	Output string
}

// parseFile extracts benchmark result lines from a go test -json file,
// keyed on the benchmark name with any trailing -GOMAXPROCS suffix
// stripped (so runs from machines with different core counts compare).
// The JSON events are first re-joined into the plain text stream: the
// test runner emits a benchmark's name and its measurements as separate
// output events (the name is printed without a newline, the numbers
// follow), so a result line only exists after concatenation. Plain
// (non-JSON) `go test -bench` output is accepted as-is.
func parseFile(path string) (map[string]*sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			// Not a -json file: treat the raw line as test output.
			text.Write(sc.Bytes())
			text.WriteByte('\n')
			continue
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]*sample{}
	for _, line := range strings.Split(text.String(), "\n") {
		if !strings.Contains(line, " ns/op") {
			continue
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := out[name]
		if s == nil {
			s = &sample{}
			out[name] = s
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsOp = append(s.nsOp, v)
			case "allocs/op":
				s.allocsOp = append(s.allocsOp, v)
			}
		}
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func pct(new, old float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// scalingFile is the subset of the csq-bench scaling JSON the gate
// reads.
type scalingFile struct {
	Cores  int `json:"cores"`
	Curves []struct {
		Name         string `json:"name"`
		SequentialNS int64  `json:"sequential_ns"`
		Points       []struct {
			Workers int     `json:"workers"`
			Speedup float64 `json:"speedup"`
		} `json:"points"`
	} `json:"curves"`
}

// checkScaling gates one scaling report: the workload curve's best
// parallel speedup must reach minSpeedup. Below four cores it skips —
// the machine cannot exhibit the parallelism under test.
func checkScaling(path string, minSpeedup float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r scalingFile
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	if r.Cores < 4 {
		fmt.Printf("skip  scaling gate: %d cores recorded, need >= 4 to demonstrate speedup\n", r.Cores)
		return
	}
	failed := false
	checked := false
	for _, c := range r.Curves {
		best := 0.0
		bestW := 0
		for _, p := range c.Points {
			if p.Speedup > best {
				best, bestW = p.Speedup, p.Workers
			}
		}
		gated := c.Name == "workload"
		verdict := "info"
		if gated {
			checked = true
			verdict = "ok"
			if best < minSpeedup {
				verdict = "FAIL"
				failed = true
			}
		}
		fmt.Printf("%s  %s: best speedup %.2fx at %d workers (gate %.2fx)\n",
			verdict, c.Name, best, bestW, minSpeedup)
	}
	if !checked {
		fmt.Fprintf(os.Stderr, "benchcheck: %s has no workload curve to gate\n", path)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchcheck: parallel runtime below %.2fx sequential\n", minSpeedup)
		os.Exit(1)
	}
}

// servingReport is the subset of the csq-bench serving JSON the gate
// reads. The rescache block is a pointer so a report produced without
// -rescache fails loudly instead of gating zeros.
type servingReport struct {
	Rescache *struct {
		UncachedQPS float64 `json:"uncached_qps"`
		CachedQPS   float64 `json:"cached_qps"`
		Speedup     float64 `json:"speedup"`
		Hits        uint64  `json:"hits"`
		Misses      uint64  `json:"misses"`
		HitRate     float64 `json:"hit_rate"`
	} `json:"rescache"`
}

// checkServing gates one serving report: the result cache comparison
// must be present, the cache must have served real hits, and cached QPS
// must reach minSpeedup times the uncached QPS from the same run.
func checkServing(path string, minSpeedup float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r servingReport
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	if r.Rescache == nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s has no rescache block (run csq-bench -exp=serving -rescache=...)\n", path)
		os.Exit(2)
	}
	rc := r.Rescache
	failed := false
	check := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %s\n", verdict, fmt.Sprintf(format, args...))
	}
	check(rc.Misses > 0 && rc.Hits > 0, "result cache exercised (%d hits, %d misses, %.1f%% hit rate)",
		rc.Hits, rc.Misses, 100*rc.HitRate)
	check(rc.UncachedQPS > 0 && rc.CachedQPS > 0, "both passes measured (%.0f uncached, %.0f cached QPS)",
		rc.UncachedQPS, rc.CachedQPS)
	check(rc.Speedup >= minSpeedup, "cached serving %.2fx uncached (gate %.2fx)", rc.Speedup, minSpeedup)
	if failed {
		fmt.Fprintf(os.Stderr, "benchcheck: cached serving below %.2fx uncached\n", minSpeedup)
		os.Exit(1)
	}
}

// reshardReport is the subset of the csq-bench reshard JSON the gate
// reads.
type reshardReport struct {
	Requests  int     `json:"requests"`
	QPS       float64 `json:"qps"`
	P95Ms     float64 `json:"p95_ms"`
	MaxMs     float64 `json:"max_ms"`
	AnswersOK bool    `json:"answers_ok"`
	Resizes   []struct {
		From          int     `json:"from"`
		To            int     `json:"to"`
		MovedRows     int     `json:"moved_rows"`
		TotalRows     int     `json:"total_rows"`
		MovedFraction float64 `json:"moved_fraction"`
		IdealFraction float64 `json:"ideal_fraction"`
		WallMs        float64 `json:"wall_ms"`
	} `json:"resizes"`
}

// checkReshard gates one elastic-reshard report: readers served through
// a grow and a shrink without a stall beyond maxStallMs, with every
// answer intact, and each resize moving no more than maxMovedFactor
// times the ideal fraction of the data.
func checkReshard(path string, maxStallMs, maxMovedFactor float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var r reshardReport
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	failed := false
	check := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %s\n", verdict, fmt.Sprintf(format, args...))
	}
	check(r.Requests > 0 && r.QPS > 0, "readers served through the resizes (%d requests, %.0f QPS)", r.Requests, r.QPS)
	check(r.AnswersOK, "every mid-reshard answer matched the pre-reshard answer")
	check(r.MaxMs > 0 && r.MaxMs <= maxStallMs, "worst reader request %.1f ms within %.0f ms stall bound (p95 %.3f ms)",
		r.MaxMs, maxStallMs, r.P95Ms)
	check(len(r.Resizes) >= 2, "grow and shrink both measured (%d resizes)", len(r.Resizes))
	for _, rs := range r.Resizes {
		check(rs.MovedRows > 0 && rs.MovedFraction <= maxMovedFactor*rs.IdealFraction,
			"resize %d -> %d moved %.2f of rows, within %.1fx the %.2f ideal (%.1f ms)",
			rs.From, rs.To, rs.MovedFraction, maxMovedFactor, rs.IdealFraction, rs.WallMs)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchcheck: %s violates reshard invariants\n", path)
		os.Exit(1)
	}
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline results (go test -json), e.g. the committed BENCH_pr2.json")
	newPath := flag.String("new", "", "new results (go test -json) to check against the baseline")
	nsSlack := flag.Float64("ns-slack", 0.30, "allowed relative ns/op regression before failing (0.30 = 30%)")
	scalingPath := flag.String("scaling", "", "scaling report JSON to gate (csq-bench -exp=scaling -out); replaces -baseline/-new")
	minSpeedup := flag.Float64("min-speedup", 1.2, "with -scaling: required parallel speedup over sequential on the workload curve")
	servingPath := flag.String("serving", "", "serving report JSON to gate (csq-bench -exp=serving -rescache -out); replaces -baseline/-new")
	minServingSpeedup := flag.Float64("min-serving-speedup", 1.0, "with -serving: required cached-over-uncached QPS multiple")
	reshardPath := flag.String("reshard", "", "elastic reshard report JSON to gate (csq-bench -exp=reshard -out); replaces -baseline/-new")
	maxStallMs := flag.Float64("max-stall-ms", 1000, "with -reshard: worst allowed single reader request during a resize")
	maxMovedFactor := flag.Float64("max-moved-factor", 2, "with -reshard: allowed multiple of the ideal moved-data fraction")
	flag.Parse()
	if *scalingPath != "" {
		checkScaling(*scalingPath, *minSpeedup)
		return
	}
	if *servingPath != "" {
		checkServing(*servingPath, *minServingSpeedup)
		return
	}
	if *reshardPath != "" {
		checkReshard(*reshardPath, *maxStallMs, *maxMovedFactor)
		return
	}
	if *baselinePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -baseline and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	cur, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *newPath, err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s holds no benchmark results\n", *newPath)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tns/op old\tns/op new\tΔ\tallocs/op old\tallocs/op new\tΔ\tverdict")
	failed := false
	for _, name := range names {
		nc := cur[name]
		ob, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "%s\t-\t%.0f\t-\t-\t%.0f\t-\tnew\n",
				name, median(nc.nsOp), median(nc.allocsOp))
			continue
		}
		oldNs, newNs := median(ob.nsOp), median(nc.nsOp)
		oldAllocs, newAllocs := median(ob.allocsOp), median(nc.allocsOp)
		verdict := "ok"
		if newAllocs > oldAllocs {
			verdict = "FAIL allocs/op regressed"
			failed = true
		}
		if oldNs > 0 && newNs > oldNs*(1+*nsSlack) {
			verdict = fmt.Sprintf("FAIL ns/op beyond %+.0f%% slack", 100**nsSlack)
			failed = true
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%s\t%.0f\t%.0f\t%s\t%s\n",
			name, oldNs, newNs, pct(newNs, oldNs),
			oldAllocs, newAllocs, pct(newAllocs, oldAllocs), verdict)
	}
	w.Flush()
	if failed {
		fmt.Fprintln(os.Stderr, "benchcheck: performance regression against baseline")
		os.Exit(1)
	}
}
