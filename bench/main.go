// Command bench is the repository benchmark: it runs one LUBM workload
// against a durable CliqueSquare engine and prints its metrics, after
// checking every answer. See README.md.
//
//	bench -workload exec_scale -seed 1 -seconds 20 -trace 0
//	bench -workload churn_durable -seed 1 -seconds 20 -trace 1
//	bench -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricSpec  `json:"end_to_end"`
	PerLayer   []metricSpec  `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the query window BENCHMARK.json asks for.
const runSeconds = 20

// describe renders BENCHMARK.json from the tables in this package.
func describe() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpec,
		PerLayer:   perLayerSpec,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadWhy{w.name, w.why})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	return append(data, '\n'), err
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the request order, the cold mix's constants and the checks' samples")
	seconds := flag.Float64("seconds", runSeconds, "length of the query window")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	scale := flag.String("scale", "default", "data scale: "+strings.Join(scaleNames, ", "))
	dir := flag.String("dir", "bench/.bench_build", "scratch directory (write-ahead logs, span dumps)")
	aa := flag.Int("aa", 0, "A/A self-check: run every workload 2xN times and compare the two sets")
	desc := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()

	if *desc {
		data, err := describe()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	sc := slices.Index(scaleNames, *scale)
	if sc < 0 {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if *aa > 0 {
		ok, err := selfCheck(*aa, *seconds, *scale, *dir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	res, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: sc, dir: *dir, log: os.Stdout})
	if err != nil {
		fatal(err)
	}
	for _, n := range res.Notes {
		fmt.Println("FAILED:", n)
	}
	env, _ := json.Marshal(map[string]any{"env": res.Info})
	fmt.Println(string(env))
	specs := endToEndSpec
	if *trace != 0 {
		specs = perLayerSpec
	}
	for _, m := range specs {
		fmt.Printf("%-38s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if res.Demoted != nil {
		for _, m := range demotedSpec {
			fmt.Printf("%-38s %16.6g %s (no bound)\n", m.Name, res.Demoted[m.Name].Value, m.Unit)
		}
		side, _ := json.Marshal(map[string]any{"demoted": res.Demoted})
		fmt.Println(string(side))
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
