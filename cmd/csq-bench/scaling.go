package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cliquesquare/internal/binplan"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/experiments"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/systems/csq"
)

// scalingPoint is one worker count's measurement on one curve.
type scalingPoint struct {
	Workers int `json:"workers"`
	// NS is the best-of-reps wall time for one pass over the curve's
	// plan set, in nanoseconds.
	NS int64 `json:"ns"`
	// Speedup is the one-lane baseline's time divided by this point's
	// (>1 means the extra lanes pay for themselves).
	Speedup float64 `json:"speedup"`
}

type scalingCurve struct {
	Name string `json:"name"`
	// SequentialNS is the workers = 1 point's time, the baseline the
	// speedups are relative to.
	SequentialNS int64          `json:"sequential_ns"`
	Points       []scalingPoint `json:"points"`
}

// scalingReport is the BENCH JSON the -scaling gate of cmd/benchcheck
// consumes.
type scalingReport struct {
	Experiment   string         `json:"experiment"`
	Cores        int            `json:"cores"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Universities int            `json:"universities"`
	Nodes        int            `json:"nodes"`
	Curves       []scalingCurve `json:"curves"`
}

// timePlans measures one pass over plans on eng: warm once, then take
// the fastest of reps passes (the usual minimum-of-repetitions
// estimator for wall-clock microbenchmarks).
func timePlans(eng *csq.Engine, plans []*physical.Plan, reps int) (int64, error) {
	best := int64(0)
	for r := 0; r <= reps; r++ {
		start := time.Now()
		for _, pp := range plans {
			if _, err := eng.ExecuteStats(pp); err != nil {
				return 0, err
			}
		}
		d := time.Since(start).Nanoseconds()
		if r == 0 {
			continue // warm-up pass: arenas, pools and caches fill
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// scaling sweeps the morsel runtime's worker count 1..GOMAXPROCS over
// the LUBM workload and the shuffle-heaviest linear plan, printing
// speedup-vs-one-lane curves and optionally writing them as JSON
// (the input of `benchcheck -scaling`). The simulated results are
// identical at every width — the sweep measures only real wall time.
func scaling(cc experiments.ClusterConfig, outPath string) error {
	g := lubm.Generate(lubm.DefaultConfig(cc.Universities))
	maxw := runtime.GOMAXPROCS(0)
	rep := scalingReport{
		Experiment:   "scaling",
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   maxw,
		Universities: cc.Universities,
		Nodes:        cc.Nodes,
	}

	baseCfg := func() csq.Config {
		cfg := csq.DefaultConfig()
		cfg.Nodes = cc.Nodes
		return cfg
	}

	// Plan both curves once; every configuration executes the same
	// compiled plans.
	planEng := csq.New(g, baseCfg())
	var workload []*physical.Plan
	var shuffleHeavy *physical.Plan
	for _, q := range lubm.Queries() {
		_, pp, _, err := planEng.Plan(q)
		if err != nil {
			return fmt.Errorf("plan %s: %w", q.Name, err)
		}
		workload = append(workload, pp)
		if len(q.Patterns) < 2 {
			continue
		}
		model := cost.NewModel(baseCfg().Constants, cost.NewStats(g, q))
		linear, err := binplan.BestLinear(q, model)
		if err != nil {
			return fmt.Errorf("linear %s: %w", q.Name, err)
		}
		lpp, err := physical.Compile(linear)
		if err != nil {
			return fmt.Errorf("compile linear %s: %w", q.Name, err)
		}
		if shuffleHeavy == nil || len(lpp.Levels) > len(shuffleHeavy.Levels) {
			shuffleHeavy = lpp
		}
	}

	const reps = 3
	curves := []struct {
		name  string
		plans []*physical.Plan
	}{
		{"workload", workload},
		{"shuffle-heavy", []*physical.Plan{shuffleHeavy}},
	}
	fmt.Printf("== Scaling: morsel runtime speedup vs one lane (LUBM %d universities, %d nodes, GOMAXPROCS %d) ==\n",
		cc.Universities, cc.Nodes, maxw)
	w := tw()
	fmt.Fprintln(w, "curve\tworkers\tms/pass\tspeedup")
	for _, c := range curves {
		curve := scalingCurve{Name: c.name}
		for workers := 1; workers <= maxw; workers++ {
			cfg := baseCfg()
			cfg.Parallelism = workers
			eng := csq.New(g, cfg)
			ns, err := timePlans(eng, c.plans, reps)
			if err != nil {
				return err
			}
			if err := eng.Close(); err != nil {
				return err
			}
			if workers == 1 {
				curve.SequentialNS = ns
			}
			sp := float64(curve.SequentialNS) / float64(ns)
			curve.Points = append(curve.Points, scalingPoint{Workers: workers, NS: ns, Speedup: sp})
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\n", c.name, workers, float64(ns)/1e6, sp)
		}
		rep.Curves = append(rep.Curves, curve)
	}
	fmt.Fprintln(w)
	if err := w.Flush(); err != nil {
		return err
	}

	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
