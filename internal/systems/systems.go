// Package systems defines the common harness for the full-system
// comparison of Section 6.4: CSQ (the CliqueSquare prototype), a SHAPE
// simulator (semantic hash partitioning, Lee & Liu PVLDB 2013) and an
// H2RDF+ simulator (HBase indexes with left-deep plans, Papailiou et
// al. IEEE BigData 2013). All three run over the same simulated
// cluster-cost regime, so their response times are comparable.
package systems

import (
	"fmt"
	"slices"
	"sort"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
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

// The two baselines join relations of variable bindings — a variable
// list naming the columns, and rows of term ids — one binary join per
// MapReduce job. What follows is what both do with them.

// Intersect returns the variables a and b share, sorted.
func Intersect(a, b []string) []string {
	in := make(map[string]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []string
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Cols returns the column of each wanted variable in vars, or -1 for a
// variable vars lacks, so that reading it fails instead of reading
// another column.
func Cols(vars, want []string) []int {
	out := make([]int, len(want))
	for i, w := range want {
		out[i] = -1
		for j, v := range vars {
			if v == w {
				out[i] = j
			}
		}
	}
	return out
}

// MergeVars appends b's variables not already in a; rightExtra are the
// b-columns to copy.
func MergeVars(a, b []string) (merged []string, rightExtra []int) {
	merged = append(merged, a...)
	in := make(map[string]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	for j, v := range b {
		if !in[v] {
			merged = append(merged, v)
			rightExtra = append(rightExtra, j)
		}
	}
	return merged, rightExtra
}

// JoinReduce is the reducer of a binary join whose map side tagged the
// left relation's rows 0 and the right's 1 under the join key: per
// group, every left row extended by the rightExtra columns of every
// right row, width columns in all.
func JoinReduce(width int, rightExtra []int) func(node int, m *mapreduce.Meter, g mapreduce.Group, out *mapreduce.Block) {
	return func(node int, m *mapreduce.Meter, g mapreduce.Group, out *mapreduce.Block) {
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
		nr := make(mapreduce.Row, 0, width)
		for _, l := range left {
			for _, r := range right {
				nr = append(nr[:0], l...)
				for _, rc := range rightExtra {
					nr = append(nr, r[rc])
				}
				out.Append(nr)
			}
		}
	}
}

// Relation returns rows as one flat block, for Emitter.EmitAll: every
// step-th row from the first (step 1: all of them).
func Relation(rows [][]rdf.TermID, first, step int) mapreduce.Block {
	b := mapreduce.NewBlock(nil)
	for i := first; i < len(rows); i += step {
		b.Append(rows[i])
	}
	return b
}

// AppendRows appends rows, which a job's sink is handed only for the
// call, to dst as copies.
func AppendRows(dst [][]rdf.TermID, rows mapreduce.Block) [][]rdf.TermID {
	cells, w := slices.Clone(rows.Cells), rows.Width
	for i := 0; i < rows.N; i++ {
		dst = append(dst, cells[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// Project keeps, of every row over vars, the columns of the selected
// variables, in selection order.
func Project(vars []string, rows [][]rdf.TermID, sel []string) [][]rdf.TermID {
	cs := Cols(vars, sel)
	out := make([][]rdf.TermID, 0, len(rows))
	for _, r := range rows {
		nr := make([]rdf.TermID, len(cs))
		for i, c := range cs {
			nr[i] = r[c]
		}
		out = append(out, nr)
	}
	return out
}

// CountDistinct counts the distinct rows.
func CountDistinct(rows [][]rdf.TermID) int {
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		vals := make([]uint32, len(r))
		for i, v := range r {
			vals[i] = uint32(v)
		}
		seen[mapreduce.EncodeKey(0, vals)] = true
	}
	return len(seen)
}
