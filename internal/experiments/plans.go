package experiments

import (
	"fmt"

	"cliquesquare/internal/binplan"
	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/systems/csq"
)

// ClusterConfig fixes the simulated cluster for the execution
// experiments (Figures 20-22).
type ClusterConfig struct {
	Universities int
	Nodes        int
	Constants    mapreduce.Constants
}

// DefaultClusterConfig is 7 nodes (the paper's cluster size) over a
// 100-university LUBM instance (~120k triples). The per-job init cost
// is scaled down to 0.2 simulated seconds so that, as on the paper's
// 1-billion-triple testbed, per-tuple data costs and job-start costs
// are of comparable magnitude — the regime in which plan shape drives
// response time.
func DefaultClusterConfig() ClusterConfig {
	c := mapreduce.DefaultConstants()
	c.JobInit = 2e5
	return ClusterConfig{Universities: 100, Nodes: 7, Constants: c}
}

// PlanRow is one Figure 20 x-axis entry: a workload query with the
// simulated execution times of the MSC-chosen plan, the best binary
// bushy plan and the best binary linear plan, annotated with triple
// pattern and job counts like "Q3(3|M11)".
type PlanRow struct {
	Query   string
	TPs     int
	Labels  [3]string // job labels: MSC, bushy, linear
	TimeSec [3]float64
	Rows    int
}

// Annotation renders the paper's x-axis notation, e.g. "Q3(3|M11)".
func (r *PlanRow) Annotation() string {
	return fmt.Sprintf("%s(%d|%s%s%s)", r.Query, r.TPs, r.Labels[0], r.Labels[1], r.Labels[2])
}

// PlanComparison regenerates Figure 20: for each of the 14 workload
// queries, execute the cost-selected CliqueSquare-MSC plan, the best
// binary bushy plan and the best binary linear plan on the same
// partitioned store, and report simulated times.
func PlanComparison(cc ClusterConfig) ([]PlanRow, error) {
	g := lubm.Generate(lubm.DefaultConfig(cc.Universities))
	eng := newCSQ(g, cc)
	var out []PlanRow
	for _, q := range lubm.Queries() {
		row := PlanRow{Query: q.Name, TPs: len(q.Patterns)}
		model := cost.NewModel(cc.Constants, cost.NewStats(g, q))

		msc, err := eng.Prepare(q)
		if err != nil {
			return nil, fmt.Errorf("%s: msc: %w", q.Name, err)
		}
		bushy, err := binplan.BestBushy(q, model)
		if err != nil {
			return nil, fmt.Errorf("%s: bushy: %w", q.Name, err)
		}
		linear, err := binplan.BestLinear(q, model)
		if err != nil {
			return nil, fmt.Errorf("%s: linear: %w", q.Name, err)
		}
		for i, p := range []*core.Plan{nil, bushy, linear} {
			pp := msc.Physical
			if p != nil {
				if pp, err = physical.Compile(p); err != nil {
					return nil, fmt.Errorf("%s: compile: %w", q.Name, err)
				}
			}
			res, err := eng.ExecuteStats(pp)
			if err != nil {
				return nil, fmt.Errorf("%s: execute: %w", q.Name, err)
			}
			row.Labels[i] = pp.JobLabel()
			row.TimeSec[i] = res.Time / 1e6
			if i == 0 {
				row.Rows = res.N
			} else if res.N != row.Rows {
				return nil, fmt.Errorf("%s: plan %d returned %d rows, MSC returned %d",
					q.Name, i, res.N, row.Rows)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func newCSQ(g *rdf.Graph, cc ClusterConfig) *csq.Engine {
	cfg := csq.DefaultConfig()
	cfg.Nodes = cc.Nodes
	cfg.Constants = cc.Constants
	return csq.New(g, cfg)
}
