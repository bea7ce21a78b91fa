// Package h2rdfsim simulates H2RDF+ (Papailiou et al., IEEE BigData
// 2013), the second baseline of Section 6.4: a globally sorted triple
// index (HBase tables in the original; here an index.Store, whose
// property runs also fill the cost.Catalog it plans with), adaptive
// centralized execution for very selective queries (0 MapReduce jobs),
// and otherwise greedy LEFT-DEEP plans executing one join per MapReduce
// job (systems.Join) — the maximal-height, job-heavy behaviour the
// paper contrasts with CliqueSquare's flat plans.
package h2rdfsim

import (
	"fmt"
	"math"

	"cliquesquare/internal/cost"
	"cliquesquare/internal/index"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems"
)

// Config parameterizes the simulator.
type Config struct {
	Nodes     int
	Constants mapreduce.Constants
	// CentralThreshold: when every estimated intermediate result of
	// the left-deep plan stays below it, the query runs centrally on
	// one node with index lookups and no MapReduce job.
	CentralThreshold float64
}

// DefaultConfig is a 7-node cluster with a 2000-tuple centralized
// threshold.
func DefaultConfig() Config {
	return Config{Nodes: 7, Constants: mapreduce.DefaultConstants(), CentralThreshold: 2000}
}

// Engine is a loaded H2RDF+ instance: its dictionary, its index and
// the statistics it plans with, read from the index.
type Engine struct {
	cfg  Config
	dict *rdf.Dict
	idx  *index.Store
	cat  *cost.Catalog
}

// New indexes g globally (three permutations).
func New(g *rdf.Graph, cfg Config) *Engine {
	idx := index.Build(g.Triples())
	return &Engine{cfg: cfg, dict: g.Dict, idx: idx, cat: cost.NewCatalog(idx, 0)}
}

// Name implements systems.System.
func (e *Engine) Name() string { return "H2RDF+" }

// planOrder returns a greedy left-deep pattern order: start from the
// most selective pattern, then repeatedly append the most selective
// pattern connected to the prefix.
func planOrder(q *sparql.Query, s *cost.Stats) []int {
	n := len(q.Patterns)
	used := make([]bool, n)
	order := make([]int, 0, n)
	varsSeen := make(map[string]bool)
	pick := func(candidates []int) int {
		best, bestCard := -1, math.Inf(1)
		for _, i := range candidates {
			if c := s.PatternCard(i); c < bestCard {
				best, bestCard = i, c
			}
		}
		return best
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	first := pick(all)
	order = append(order, first)
	used[first] = true
	for _, v := range q.Patterns[first].Vars() {
		varsSeen[v] = true
	}
	for len(order) < n {
		var conn []int
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			for _, v := range q.Patterns[i].Vars() {
				if varsSeen[v] {
					conn = append(conn, i)
					break
				}
			}
		}
		nxt := pick(conn)
		if nxt < 0 {
			break // disconnected query; caller validates
		}
		order = append(order, nxt)
		used[nxt] = true
		for _, v := range q.Patterns[nxt].Vars() {
			varsSeen[v] = true
		}
	}
	return order
}

// Stats returns the statistics of q's patterns that Run plans with:
// a snapshot of the engine's catalog, filled from its index.
func (e *Engine) Stats(q *sparql.Query) *cost.Stats { return e.cat.Snapshot(e.dict, q) }

// Run implements systems.System.
func (e *Engine) Run(q *sparql.Query) (*systems.RunResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	stats := e.Stats(q)
	order := planOrder(q, stats)
	rr := &systems.RunResult{System: e.Name(), Query: q.Name}
	c := e.cfg.Constants

	// Adaptive choice: centralized when all estimated intermediates are
	// small.
	central := true
	for k := 1; k <= len(order); k++ {
		if stats.JoinCard(order[:k]) > e.cfg.CentralThreshold ||
			stats.PatternCard(order[k-1]) > e.cfg.CentralThreshold {
			central = false
			break
		}
	}
	if central || len(order) == 1 {
		pats := make([]sparql.TriplePattern, len(order))
		for i, pi := range order {
			pats[i] = q.Patterns[pi]
		}
		res := index.EvalBGP(e.idx, e.dict, pats)
		rr.Time = float64(res.Touched)*c.Read + float64(res.Rows.N)*c.Join
		rr.Work = rr.Time
		rr.Rows = systems.Bindings{Vars: res.Vars, Nodes: []mapreduce.Block{res.Rows}}.Distinct(q.Select)
		return rr, nil
	}

	// Left-deep execution: one MapReduce job per join. The accumulated
	// relation and the next pattern's matches, scanned from the global
	// index, are dealt round-robin over the nodes for the map phase.
	cl := mapreduce.NewCluster(e.cfg.Nodes, c)
	acc := e.scan(q, order[0])
	for k := 1; k < len(order); k++ {
		left, right := e.deal(acc), e.deal(e.scan(q, order[k]))
		acc = systems.Join(cl, fmt.Sprintf("%s-h2rdf-join%d", q.Name, k), left, right, func(node int, m *mapreduce.Meter) {
			m.Read(left.Nodes[node].N + right.Nodes[node].N)
		})
	}
	rr.Jobs = len(cl.Jobs)
	rr.Time = cl.ResponseTime()
	rr.Work = cl.TotalWork()
	rr.Rows = acc.Distinct(q.Select)
	return rr, nil
}

// scan returns the matches of q's pattern i in the global index.
func (e *Engine) scan(q *sparql.Query, i int) systems.Bindings {
	res := index.EvalBGP(e.idx, e.dict, q.Patterns[i:i+1])
	return systems.Bindings{Vars: res.Vars, Nodes: []mapreduce.Block{res.Rows}}
}

// deal spreads r's rows, taken in node order, round-robin over the
// nodes: the i-th row to node i mod n.
func (e *Engine) deal(r systems.Bindings) systems.Bindings {
	out := systems.Bindings{Vars: r.Vars, Nodes: make([]mapreduce.Block, e.cfg.Nodes)}
	i := 0
	for _, b := range r.Nodes {
		for k := 0; k < b.N; k++ {
			out.Nodes[i%e.cfg.Nodes].Append(b.Row(k))
			i++
		}
	}
	return out
}
