// Package h2rdfsim simulates H2RDF+ (Papailiou et al., IEEE BigData
// 2013), the second baseline of Section 6.4: globally sorted
// six-permutation indexes (HBase tables in the original), adaptive
// centralized execution for very selective queries (0 MapReduce jobs),
// and otherwise greedy LEFT-DEEP plans executing one join per MapReduce
// job — the maximal-height, job-heavy behaviour the paper contrasts
// with CliqueSquare's flat plans.
package h2rdfsim

import (
	"fmt"
	"math"
	"sort"

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

// Engine is a loaded H2RDF+ instance.
type Engine struct {
	cfg   Config
	graph *rdf.Graph
	idx   *index.Store
}

// New indexes g globally (six permutations).
func New(g *rdf.Graph, cfg Config) *Engine {
	return &Engine{cfg: cfg, graph: g, idx: index.Build(g.Triples())}
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

// Run implements systems.System.
func (e *Engine) Run(q *sparql.Query) (*systems.RunResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	stats := cost.NewStats(e.graph, q)
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
		res := index.EvalBGP(e.idx, e.graph.Dict, pats)
		rr.Time = float64(res.Touched)*c.Read + float64(len(res.Rows))*c.Join
		rr.Work = rr.Time
		rr.Rows = systems.CountDistinct(systems.Project(res.Vars, res.Rows, q.Select))
		return rr, nil
	}

	// Left-deep execution: one MapReduce job per join. The accumulated
	// relation is range-partitioned over the nodes for the map phase;
	// the next pattern is scanned from the global index (each node
	// scans its share of the index region). A job runs on one lane, so
	// its sink takes the rows in canonical (node, group) order.
	cl := mapreduce.NewCluster(e.cfg.Nodes, c)
	accVars, accRows := e.scanPattern(q.Patterns[order[0]])
	for k := 1; k < len(order); k++ {
		tp := q.Patterns[order[k]]
		rightVars, rightRows := e.scanPattern(tp)
		shared := systems.Intersect(accVars, rightVars)
		if len(shared) == 0 {
			return nil, fmt.Errorf("h2rdfsim: %s: disconnected join order", q.Name)
		}
		accCols := systems.Cols(accVars, shared)
		rCols := systems.Cols(rightVars, shared)
		mergedVars, rightExtra := systems.MergeVars(accVars, rightVars)
		acc := accRows
		job := mapreduce.ClassicJob(fmt.Sprintf("%s-h2rdf-join%d", q.Name, k),
			func(node int, m *mapreduce.Meter, emit *mapreduce.Emitter, _ *mapreduce.Block) {
				left := systems.Relation(acc, node, e.cfg.Nodes)
				right := systems.Relation(rightRows, node, e.cfg.Nodes)
				m.Read(left.N + right.N)
				emit.EmitAll(0, 0, left, accCols)
				emit.EmitAll(0, 1, right, rCols)
			},
			systems.JoinReduce(len(mergedVars), rightExtra))
		accVars, accRows = mergedVars, nil
		job.Sink = func(_, _ int, rows mapreduce.Block) { accRows = systems.AppendRows(accRows, rows) }
		cl.RunWith(job, mapreduce.RunOptions{})
	}
	rr.Jobs = len(cl.Jobs)
	rr.Time = cl.ResponseTime()
	rr.Work = cl.TotalWork()
	rr.Rows = systems.CountDistinct(systems.Project(accVars, accRows, q.Select))
	return rr, nil
}

// scanPattern materializes one pattern's bindings from the global
// index (constants bound, variables extracted).
func (e *Engine) scanPattern(tp sparql.TriplePattern) ([]string, [][]rdf.TermID) {
	var s, p, o rdf.TermID
	resolveConst := func(pt sparql.PatternTerm) (rdf.TermID, bool) {
		if pt.IsVar {
			return 0, true
		}
		id, found := e.graph.Dict.Lookup(pt.Term)
		return id, found
	}
	var ok1, ok2, ok3 bool
	s, ok1 = resolveConst(tp.S)
	p, ok2 = resolveConst(tp.P)
	o, ok3 = resolveConst(tp.O)
	vars := tp.Vars()
	sort.Strings(vars)
	if !ok1 || !ok2 || !ok3 {
		return vars, nil
	}
	matches, _ := e.idx.Lookup(s, p, o)
	varPos := make([]rdf.Pos, len(vars))
	for i, v := range vars {
		for _, pos := range []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos} {
			if pt := tp.At(pos); pt.IsVar && pt.Var == v {
				varPos[i] = pos
				break
			}
		}
	}
	var rows [][]rdf.TermID
	for _, t := range matches {
		if !repeatOK(tp, t) {
			continue
		}
		row := make([]rdf.TermID, len(vars))
		for i, pos := range varPos {
			row[i] = t.At(pos)
		}
		rows = append(rows, row)
	}
	return vars, rows
}

func repeatOK(tp sparql.TriplePattern, t rdf.Triple) bool {
	seen := map[string]rdf.TermID{}
	for _, pos := range []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos} {
		pt := tp.At(pos)
		if !pt.IsVar {
			continue
		}
		if v, ok := seen[pt.Var]; ok && v != t.At(pos) {
			return false
		}
		seen[pt.Var] = t.At(pos)
	}
	return true
}
