// Package systems defines the common harness for the full-system
// comparison of Section 6.4: CSQ (the CliqueSquare prototype), a SHAPE
// simulator (semantic hash partitioning, Lee & Liu PVLDB 2013) and an
// H2RDF+ simulator (HBase indexes with left-deep plans, Papailiou et
// al. IEEE BigData 2013). All three run over the same simulated
// cluster-cost regime, so their response times are comparable.
//
// The two baselines carry variable bindings as the engine does, in
// flat mapreduce.Blocks: a Bindings is a relation's variables and one
// block per node. Join is their one binary-join job, and
// Bindings.Distinct counts a relation's distinct answers.
package systems

import (
	"fmt"
	"slices"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/sparql"
)

// RunResult reports one system's execution of one query.
type RunResult struct {
	System string
	Query  string
	// Rows is the number of distinct result tuples.
	Rows int
	// Time is the simulated response time in microseconds.
	Time float64
	// Work is the simulated total work across nodes in microseconds.
	Work float64
	// Jobs is the number of MapReduce jobs executed.
	Jobs int
	// MapOnlyJobs of those were map-only.
	MapOnlyJobs int
}

// JobLabel renders the job count in the paper's figure notation: "M"
// when all jobs are map-only, "0" for fully local execution, otherwise
// the number of jobs.
func (r *RunResult) JobLabel() string {
	if r.Jobs == 0 {
		return "0"
	}
	if r.Jobs == r.MapOnlyJobs {
		return "M"
	}
	return fmt.Sprintf("%d", r.Jobs)
}

// System evaluates BGP queries over a dataset fixed at construction.
type System interface {
	Name() string
	Run(q *sparql.Query) (*RunResult, error)
}

// Bindings is a relation of variable bindings spread over the nodes of
// a cluster: the variables naming its columns and each node's rows.
// The two baselines join such relations, one binary join per MapReduce
// job.
type Bindings struct {
	Vars  []string
	Nodes []mapreduce.Block
}

// Join runs one MapReduce job on cl that joins a with b on the
// variables they share. Node i's map charges its meter with read, then
// emits a's and b's rows of node i keyed on the shared variables; each
// reducer pairs the rows of each of its groups, a's tagged 0 and b's 1,
// charging the pairs as joined and written. The result is over a's
// variables and b's others, each node's rows those its reducers wrote.
// A job runs on one lane, so its sink takes each node's rows in
// canonical (group) order.
func Join(cl *mapreduce.Cluster, name string, a, b Bindings, read func(node int, m *mapreduce.Meter)) Bindings {
	var shared []string
	for _, v := range b.Vars {
		if slices.Contains(a.Vars, v) {
			shared = append(shared, v)
		}
	}
	slices.Sort(shared)
	aCols, bCols := cols(a.Vars, shared), cols(b.Vars, shared)
	out := Bindings{Vars: slices.Clip(a.Vars), Nodes: make([]mapreduce.Block, len(a.Nodes))}
	var extra []int // the columns of b that the result adds
	for j, v := range b.Vars {
		if !slices.Contains(a.Vars, v) {
			out.Vars, extra = append(out.Vars, v), append(extra, j)
		}
	}
	job := mapreduce.ClassicJob(name,
		func(node int, m *mapreduce.Meter, emit *mapreduce.Emitter, _ *mapreduce.Block) {
			read(node, m)
			emit.EmitAll(0, 0, a.Nodes[node], aCols)
			emit.EmitAll(0, 1, b.Nodes[node], bCols)
		},
		func(_ int, m *mapreduce.Meter, g mapreduce.Group, dst *mapreduce.Block) {
			var left, right []mapreduce.Row
			g.Records(func(tag int, row mapreduce.Row) {
				if tag == 0 {
					left = append(left, row)
				} else {
					right = append(right, row)
				}
			})
			pairs := len(left) * len(right)
			m.Join(len(left) + len(right) + pairs)
			m.Write(pairs)
			for _, l := range left {
				for _, r := range right {
					nr := dst.Extend(1, len(out.Vars))
					copy(nr, l)
					for k, c := range extra {
						nr[len(l)+k] = r[c]
					}
				}
			}
		})
	job.Sink = func(node, _ int, rows mapreduce.Block) { out.Nodes[node].AppendBlock(rows) }
	cl.RunWith(job, mapreduce.RunOptions{})
	return out
}

// Distinct returns the number of distinct rows of r projected on sel:
// it projects every node's rows into one block, sorts it and counts the
// rows that differ from the one before.
func (r Bindings) Distinct(sel []string) int {
	cs := cols(r.Vars, sel)
	var p mapreduce.Block
	for _, b := range r.Nodes {
		for i := 0; i < b.N; i++ {
			row, nr := b.Row(i), p.Extend(1, len(cs))
			for k, c := range cs {
				nr[k] = row[c]
			}
		}
	}
	if p.Width == 0 {
		return min(p.N, 1)
	}
	w := p.Width
	mapreduce.SortRows(p.Cells, p.N, w, func(i int) uint32 { return uint32(p.Cells[i*w]) },
		func(i, j int) int { return slices.Compare(p.Row(i), p.Row(j)) }, nil)
	n := 1
	for i := 1; i < p.N; i++ {
		if !slices.Equal(p.Row(i-1), p.Row(i)) {
			n++
		}
	}
	return n
}

// cols returns the column of each wanted variable in vars, or -1 for a
// variable vars lacks, so that reading it fails instead of reading
// another column.
func cols(vars, want []string) []int {
	out := make([]int, len(want))
	for i, w := range want {
		out[i] = slices.Index(vars, w)
	}
	return out
}
