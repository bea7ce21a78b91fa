// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6): the optimizer-variant comparison on
// synthetic queries (Figures 16-19), the flat-vs-binary plan execution
// comparison (Figure 20), the full-system comparison against SHAPE and
// H2RDF+ (Figure 21), the workload characteristics table (Figure 22)
// and the worst-case decomposition bounds (Figure 8). Each experiment
// returns row structs; cmd/csq-bench prints them in the paper's layout
// and bench_test.go wraps them as Go benchmarks.
package experiments

import (
	"fmt"
	"time"

	"cliquesquare/internal/core"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/vargraph"
)

// PlanSpaceConfig bounds the Figures 16-19 measurement. The paper caps
// each optimizer run at 100 s on its hardware; the defaults here cap
// plans and covers per step, counts rather than a clock, so the full
// 8-variant × 120-query sweep stays laptop-friendly and Figures 16, 17
// and 19 are the same on every machine (capped variants report their
// budget ceiling, preserving the "explodes vs stays small" contrast).
type PlanSpaceConfig struct {
	Seed          int64
	PerShape      int
	MaxPlans      int
	CoversPerStep int
}

// DefaultPlanSpaceConfig mirrors the paper's 120-query workload.
func DefaultPlanSpaceConfig() PlanSpaceConfig {
	return PlanSpaceConfig{
		Seed:          2015,
		PerShape:      30,
		MaxPlans:      5000,
		CoversPerStep: 2000,
	}
}

// PlanSpaceCell aggregates one variant × shape cell of Figures 16-19.
type PlanSpaceCell struct {
	Method vargraph.Method
	Shape  qgen.Shape
	// AvgPlans is the average number of generated plans (Figure 16);
	// failing variants average below 1.
	AvgPlans float64
	// OptimalityRatio averages |HO plans| / |plans| (Figure 17).
	OptimalityRatio float64
	// AvgTimeMS averages optimization wall time in ms (Figure 18).
	AvgTimeMS float64
	// UniquenessRatio averages |unique| / |plans| (Figure 19).
	UniquenessRatio float64
	// Truncated counts queries whose exploration a count budget cut.
	Truncated int
}

// PlanSpaces runs the Figures 16-19 sweep: every variant over the
// synthetic workload, reporting per-shape averages.
func PlanSpaces(cfg PlanSpaceConfig) []PlanSpaceCell {
	workload := qgen.Workload(cfg.Seed, cfg.PerShape)
	// Optimal heights once per query (via a whole MSC run, which is
	// HO-partial).
	hStar := make(map[string]int)
	for _, sh := range qgen.Shapes {
		for _, q := range workload[sh] {
			h, err := core.OptimalHeight(q)
			if err != nil {
				panic(fmt.Sprintf("experiments: optimal height for %s: %v", q.Name, err))
			}
			hStar[key(sh, q.Name)] = h
		}
	}
	var out []PlanSpaceCell
	for _, m := range vargraph.AllMethods {
		for _, sh := range qgen.Shapes {
			cell := PlanSpaceCell{Method: m, Shape: sh}
			n, nWithPlans := 0, 0
			for _, q := range workload[sh] {
				res, err := core.Optimize(q, core.Options{
					Method:           m,
					MaxPlans:         cfg.MaxPlans,
					MaxCoversPerStep: cfg.CoversPerStep,
				})
				if err != nil {
					panic(fmt.Sprintf("experiments: %v on %s: %v", m, q.Name, err))
				}
				n++
				cell.AvgPlans += float64(len(res.Plans))
				// The paper counts the optimality ratio as 0 when no
				// plan is found, but computes the uniqueness ratio only
				// over queries with at least one plan.
				cell.OptimalityRatio += res.OptimalityRatio(hStar[key(sh, q.Name)])
				cell.AvgTimeMS += float64(res.Elapsed) / float64(time.Millisecond)
				if len(res.Plans) > 0 {
					nWithPlans++
					cell.UniquenessRatio += res.UniquenessRatio()
				}
				if res.Truncated {
					cell.Truncated++
				}
			}
			cell.AvgPlans /= float64(n)
			cell.OptimalityRatio /= float64(n)
			cell.AvgTimeMS /= float64(n)
			if nWithPlans > 0 {
				cell.UniquenessRatio /= float64(nWithPlans)
			}
			out = append(out, cell)
		}
	}
	return out
}

func key(sh qgen.Shape, name string) string { return sh.String() + "/" + name }
