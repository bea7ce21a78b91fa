package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFile holds BENCHMARK.json to the tables in this package.
func TestBenchmarkFile(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and checks what a run promises: every declared metric once, with its
// unit (the demoted timings beside the end-to-end ones on an untraced
// run); no failed operation; well-formed spans; no scratch left behind.
func TestSmoke(t *testing.T) {
	dir := filepath.Join(".bench_build", "test")
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, declared := w.name+"/untraced", endToEndSpec
			if trace {
				name, declared = w.name+"/traced", perLayerSpec
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(config{w: w, seed: 5, seconds: 1, trace: trace, scale: scaleSmoke, dir: dir, log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%d of %d operations failed: %s", res.Failed, res.Attempted, strings.Join(res.Notes, "; "))
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					v, ok := res.Metrics[m.Name]
					switch {
					case !metricName.MatchString(m.Name):
						t.Errorf("metric name %q is not well formed", m.Name)
					case !ok:
						t.Errorf("metric %s was not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, declared %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s is %v", m.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want a positive value", m.Name, v.Value)
					}
				}
				for _, m := range demotedSpec {
					if v := res.Demoted[m.Name]; !trace && (v.Unit != m.Unit || !(v.Value > 0)) {
						t.Errorf("demoted timing %s is %v %q on an untraced run, want a positive value in %s", m.Name, v.Value, v.Unit, m.Unit)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(left) > 0 {
					t.Errorf("scratch left behind: %v", left)
				}
				if trace {
					checkSpans(t, filepath.Join(dir, "spans-"+w.name+".json"))
				}
			})
		}
	}
}

func checkSpans(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	requests := 0
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < -1 || s.Parent >= len(spans) {
			t.Errorf("span %d (%s) has no parent %d", i, s.Name, s.Parent)
		} else if s.Parent >= 0 && spans[s.Parent].Req != s.Req {
			t.Errorf("span %d (%s) and its parent belong to different requests", i, s.Name)
		}
		if s.Name == "request" {
			requests++
		}
	}
	if requests == 0 {
		t.Error("no request span recorded")
	}
}
