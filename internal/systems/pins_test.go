package systems_test

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/systems"
	"cliquesquare/internal/systems/h2rdfsim"
	"cliquesquare/internal/systems/shapesim"
)

var updateBaselinePins = flag.Bool("update-baseline-pins", false, "rewrite testdata/baseline_pins.json from the current baselines")

const baselinePinsPath = "testdata/baseline_pins.json"

// baselineRun is one baseline configuration's RunResults, one per LUBM
// query in lubm.Queries order.
type baselineRun struct {
	Config  string
	Results []systems.RunResult
}

// TestBaselinePins holds the SHAPE and H2RDF+ simulators to their pinned
// RunResults — rows, jobs, map-only jobs, simulated time and work — on
// the 14 LUBM queries at three universities, exactly: SHAPE-2f, H2RDF+
// with its defaults, and H2RDF+ forced into its distributed regime
// (CentralThreshold 1), which runs a MapReduce job per join. Every
// figure is an integer count priced by the cost constants, so a change
// in how the runtime carries a job's rows moves none of them.
func TestBaselinePins(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(3))
	distributed := h2rdfsim.DefaultConfig()
	distributed.CentralThreshold = 1
	configs := []struct {
		name string
		sys  systems.System
	}{
		{"SHAPE-2f", shapesim.New(g, shapesim.DefaultConfig())},
		{"H2RDF+", h2rdfsim.New(g, h2rdfsim.DefaultConfig())},
		{"H2RDF+ CentralThreshold 1", h2rdfsim.New(g, distributed)},
	}
	var got []baselineRun
	for _, c := range configs {
		run := baselineRun{Config: c.name}
		for _, q := range lubm.Queries() {
			r, err := c.sys.Run(q)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, q.Name, err)
			}
			run.Results = append(run.Results, *r)
		}
		got = append(got, run)
	}
	if *updateBaselinePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", baselinePinsPath)
		return
	}
	data, err := os.ReadFile(baselinePinsPath)
	if err != nil {
		t.Fatalf("read pins (run with -update-baseline-pins to create): %v", err)
	}
	var want []baselineRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d configurations, %d pinned", len(got), len(want))
	}
	for i := range want {
		if got[i].Config != want[i].Config || len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("configuration %d: %s with %d results, pinned %s with %d", i, got[i].Config, len(got[i].Results), want[i].Config, len(want[i].Results))
		}
		for k, w := range want[i].Results {
			if r := got[i].Results[k]; !reflect.DeepEqual(r, w) {
				t.Errorf("%s: %+v, pinned %+v", want[i].Config, r, w)
			}
		}
	}
}
