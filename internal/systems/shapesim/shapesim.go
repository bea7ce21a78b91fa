// Package shapesim simulates SHAPE (Lee & Liu, PVLDB 2013) with 2-hop
// forward semantic hash partitioning, the stronger of the two baselines
// in Section 6.4. Triples are hash-partitioned by subject and each node
// additionally replicates the triples reachable within two forward
// (subject→object) hops of its core subjects; each node evaluates
// queries locally with RDF-3X-style indexes (an index.Store per node,
// read by index.EvalBGP). Queries whose patterns all sit within the hop
// radius of one anchor are PWOC — evaluated purely locally with no
// MapReduce job (SHAPE's strength on selective queries). Other queries
// are split into PWOC subqueries, each node's matches a block of the
// subquery's systems.Bindings, joined with one MapReduce job per binary
// join (systems.Join), following a single heuristic plan with no cost
// model (SHAPE's weakness the paper exploits).
package shapesim

import (
	"fmt"
	"slices"
	"sort"

	"cliquesquare/internal/index"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems"
)

// Config parameterizes the simulator.
type Config struct {
	Nodes     int
	Constants mapreduce.Constants
	// Hops is the forward replication radius (2 for the paper's "2f").
	Hops int
}

// DefaultConfig is a 7-node cluster with 2-hop forward partitioning.
func DefaultConfig() Config {
	return Config{Nodes: 7, Constants: mapreduce.DefaultConstants(), Hops: 2}
}

// Engine is a loaded SHAPE instance.
type Engine struct {
	cfg   Config
	dict  *rdf.Dict
	local []*index.Store // per-node replicated store
}

// New partitions and replicates g per the 2-hop-forward scheme.
func New(g *rdf.Graph, cfg Config) *Engine {
	n := cfg.Nodes
	e := &Engine{cfg: cfg, dict: g.Dict, local: make([]*index.Store, n)}
	perNode := make([][]rdf.Triple, n)
	// Core partition: by subject hash.
	bySubject := make(map[rdf.TermID][]rdf.Triple)
	for _, t := range g.Triples() {
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	for node := 0; node < n; node++ {
		have := make(map[rdf.Triple]bool)
		var frontier []rdf.TermID
		for s := range bySubject {
			if partition.NodeFor(s, n) == node {
				frontier = append(frontier, s)
			}
		}
		for hop := 0; hop < cfg.Hops; hop++ {
			nextSet := make(map[rdf.TermID]bool)
			for _, s := range frontier {
				for _, t := range bySubject[s] {
					if !have[t] {
						have[t] = true
						perNode[node] = append(perNode[node], t)
						nextSet[t.O] = true
					}
				}
			}
			frontier = frontier[:0]
			for o := range nextSet {
				frontier = append(frontier, o)
			}
		}
		e.local[node] = index.Build(perNode[node])
	}
	return e
}

// Name implements systems.System.
func (e *Engine) Name() string { return "SHAPE-2f" }

// ReplicatedTriples reports the total triples stored across nodes
// (replication inflates it beyond the dataset size).
func (e *Engine) ReplicatedTriples() int {
	t := 0
	for _, st := range e.local {
		t += st.Len()
	}
	return t
}

// subjKey identifies a pattern's subject in the query's forward graph.
func subjKey(pt sparql.PatternTerm) string {
	if pt.IsVar {
		return "v:" + pt.Var
	}
	return "c:" + pt.Term.String()
}

// coverage returns the indexes (into patterns) whose subjects lie
// within hops-1 forward steps of anchor r, walking only the given
// patterns' subject→object edges.
func coverage(patterns []sparql.TriplePattern, anchor string, hops int) []int {
	dist := map[string]int{anchor: 0}
	frontier := []string{anchor}
	for d := 1; d < hops; d++ {
		var next []string
		for _, u := range frontier {
			for _, tp := range patterns {
				if subjKey(tp.S) != u {
					continue
				}
				ok := subjKey(tp.O)
				if _, seen := dist[ok]; !seen {
					dist[ok] = d
					next = append(next, ok)
				}
			}
		}
		frontier = next
	}
	var out []int
	for i, tp := range patterns {
		if _, ok := dist[subjKey(tp.S)]; ok {
			out = append(out, i)
		}
	}
	return out
}

// Decompose splits q's patterns into PWOC subqueries: greedily pick the
// anchor covering the most remaining patterns. Returns the subqueries
// (pattern index groups) and their anchors. One group means the whole
// query is PWOC.
func (e *Engine) Decompose(q *sparql.Query) (groups [][]int, anchors []string) {
	remaining := make([]int, len(q.Patterns))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		pats := make([]sparql.TriplePattern, len(remaining))
		for i, pi := range remaining {
			pats[i] = q.Patterns[pi]
		}
		// Candidate anchors: every subject key, deterministically.
		cands := make(map[string]bool)
		for _, tp := range pats {
			cands[subjKey(tp.S)] = true
		}
		sorted := make([]string, 0, len(cands))
		for c := range cands {
			sorted = append(sorted, c)
		}
		sort.Strings(sorted)
		bestAnchor, bestCov := "", []int(nil)
		for _, a := range sorted {
			cov := coverage(pats, a, e.cfg.Hops)
			if len(cov) > len(bestCov) {
				bestAnchor, bestCov = a, cov
			}
		}
		group := make([]int, len(bestCov))
		covered := make(map[int]bool)
		for i, ci := range bestCov {
			group[i] = remaining[ci]
			covered[ci] = true
		}
		groups = append(groups, group)
		anchors = append(anchors, bestAnchor)
		var rest []int
		for i, pi := range remaining {
			if !covered[i] {
				rest = append(rest, pi)
			}
		}
		remaining = rest
	}
	return groups, anchors
}

// subResult is one subquery's distributed evaluation: each node's rows
// (anchored at that node's core subjects) plus per-node index work.
type subResult struct {
	systems.Bindings
	touched []int
}

// evalSubquery evaluates the patterns on every node's local store,
// keeping only matches anchored at the node's core subjects so results
// are globally disjoint.
func (e *Engine) evalSubquery(q *sparql.Query, group []int, anchor string) *subResult {
	pats := make([]sparql.TriplePattern, len(group))
	for i, pi := range group {
		pats[i] = q.Patterns[pi]
	}
	n := e.cfg.Nodes
	out := &subResult{Bindings: systems.Bindings{Nodes: make([]mapreduce.Block, n)}, touched: make([]int, n)}
	anchorVar := ""
	anchorConst := rdf.NoTerm
	if len(anchor) > 2 && anchor[0] == 'v' {
		anchorVar = anchor[2:]
	} else {
		// Constant anchor: resolve its ID; absent → empty everywhere.
		for _, tp := range pats {
			if !tp.S.IsVar && subjKey(tp.S) == anchor {
				if id, ok := e.dict.Lookup(tp.S.Term); ok {
					anchorConst = id
				}
			}
		}
	}
	for node := 0; node < n; node++ {
		res := index.EvalBGP(e.local[node], e.dict, pats)
		out.Vars, out.touched[node] = res.Vars, res.Touched
		switch col := slices.Index(res.Vars, anchorVar); {
		case anchorVar != "":
			for i := 0; i < res.Rows.N; i++ {
				if row := res.Rows.Row(i); partition.NodeFor(row[col], n) == node {
					out.Nodes[node].Append(row)
				}
			}
		case anchorConst == rdf.NoTerm || partition.NodeFor(anchorConst, n) == node:
			out.Nodes[node] = res.Rows
		}
	}
	return out
}

// Run implements systems.System.
func (e *Engine) Run(q *sparql.Query) (*systems.RunResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	groups, anchors := e.Decompose(q)
	subs := make([]*subResult, len(groups))
	for i := range groups {
		subs[i] = e.evalSubquery(q, groups[i], anchors[i])
	}
	rr := &systems.RunResult{System: e.Name(), Query: q.Name}
	c := e.cfg.Constants

	if len(groups) == 1 {
		// PWOC: purely local evaluation, no MapReduce job at all.
		for node, rows := range subs[0].Nodes {
			t := float64(subs[0].touched[node])*c.Read + float64(rows.N)*c.Join
			rr.Time = max(rr.Time, t)
			rr.Work += t
		}
		rr.Rows = subs[0].Distinct(q.Select)
		return rr, nil
	}

	// Non-PWOC: join the subqueries sequentially, one MapReduce job per
	// binary join (SHAPE's fixed heuristic plan). The first job's map
	// reads the first subquery's index entries, a later one the
	// relation the job before wrote.
	order, err := connectedOrder(subs)
	if err != nil {
		return nil, fmt.Errorf("shapesim: %s: %w", q.Name, err)
	}
	cl := mapreduce.NewCluster(e.cfg.Nodes, c)
	acc := subs[order[0]].Bindings
	for k := 1; k < len(order); k++ {
		s, prev := subs[order[k]], acc
		acc = systems.Join(cl, fmt.Sprintf("%s-shape-join%d", q.Name, k), prev, s.Bindings, func(node int, m *mapreduce.Meter) {
			if k == 1 {
				m.Read(subs[order[0]].touched[node])
			} else {
				m.Read(prev.Nodes[node].N)
				m.Write(prev.Nodes[node].N)
			}
			m.Read(s.touched[node])
		})
	}
	rr.Jobs = len(cl.Jobs)
	rr.Time = cl.ResponseTime()
	rr.Work = cl.TotalWork()
	rr.Rows = acc.Distinct(q.Select)
	return rr, nil
}

// connectedOrder orders subqueries so each shares a variable with the
// union of its predecessors.
func connectedOrder(subs []*subResult) ([]int, error) {
	n := len(subs)
	order := []int{0}
	used := map[int]bool{0: true}
	seen := map[string]bool{}
	for _, v := range subs[0].Vars {
		seen[v] = true
	}
	for len(order) < n {
		found := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			for _, v := range subs[i].Vars {
				if seen[v] {
					found = i
					break
				}
			}
			if found >= 0 {
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("subqueries do not connect")
		}
		used[found] = true
		order = append(order, found)
		for _, v := range subs[found].Vars {
			seen[v] = true
		}
	}
	return order, nil
}
