package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// selfCheck is the A/A test: for every workload it runs this binary
// 2×n times, alternating between a set A and a set B over the same seeds
// 1..n, and compares the sets the way the driver compares a change with
// its parent. An end-to-end metric passes when each set's quartile spread
// is within its bound (set-up time excepted) and B's median is not worse
// than A's by more than the bound. The demoted timings are printed beside
// them against the 10% they would have had to hold; they do not decide
// the outcome.
func selfCheck(n int, seconds float64, scale, dir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB vs A\tspread A\tspread B\tbound\tverdict")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				seed := 1 + i
				metrics, err := child(self, w.name, seed, seconds, scale, dir)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				for name, v := range metrics {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		for _, m := range append(endToEndSpec[:len(endToEndSpec):len(endToEndSpec)], demotedSpec...) {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			bound, demoted := m.Bound, m.Bound == 0
			if demoted {
				bound = demotedBound
			}
			outside := worse > bound || (m.Name != "setup_s" && (sa > bound || sb > bound))
			verdict := "ok"
			switch {
			case demoted && outside:
				verdict = "demoted, outside"
			case demoted:
				verdict = "demoted, inside"
			case outside:
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				w.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*bound, verdict)
		}
		tw.Flush()
	}
	return ok, nil
}

// demotedBound is the bound ISSUE.md gave the timings of demotedSpec.
const demotedBound = 0.10

// child runs one workload in a subprocess and returns its metric
// values, end-to-end and demoted; a run with a failed operation is an
// error.
func child(self, workload string, seed int, seconds float64, scale, dir string) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scale, "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("no result printed")
	}
	var res struct {
		Correct bool                   `json:"correct"`
		Failed  int                    `json:"failed"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	var side struct {
		Demoted map[string]metricValue `json:"demoted"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &side); err != nil {
		return nil, fmt.Errorf("the line before the result is not the demoted timings: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d operations failed", res.Failed)
	}
	metrics := make(map[string]float64)
	for name, v := range res.Metrics {
		metrics[name] = v.Value
	}
	for name, v := range side.Demoted {
		metrics[name] = v.Value
	}
	return metrics, nil
}
