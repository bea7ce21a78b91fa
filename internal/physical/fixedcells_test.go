package physical

import (
	"fmt"
	"slices"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/refeval"
	"cliquesquare/internal/sparql"
)

// TestScanReadsFixedCells covers scans over the positions a partition
// file's name fixes — the property, and a class file's object — as
// constants, variables and repeated variables, through every replica a
// scan can read: each pattern's rows equal the reference evaluator's,
// and what it meters (Reads, Checks) is pinned to the integers the
// three-cell layout metered, so a file that stores fewer cells reads
// and checks exactly as many rows.
func TestScanReadsFixedCells(t *testing.T) {
	g := testGraph()
	g.AddSPO("knows", "label", "Knows") // a property that is also a subject
	g.AddSPO("livesIn", "label", "LivesIn")
	g.AddSPO("eve", "knows", "eve")              // ?x ?p ?x in an (s, o) file
	g.AddSPO("Person", sparql.RDFType, "Person") // ... and in a class file
	typ := "<" + sparql.RDFType + ">"
	patterns := []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?s ?p WHERE { ?s ?p <Person> }`,
		`SELECT ?p ?o WHERE { <alice> ?p ?o }`,
		`SELECT ?x WHERE { ?x ` + typ + ` <Person> }`,
		`SELECT ?x ?c WHERE { ?x ` + typ + ` ?c }`,
		`SELECT ?x ?p WHERE { ?x ?p ?x }`,
	}
	// pins[mode/replica/pattern] = {Reads, Checks}, as metered by the
	// three-cell layout.
	pins := map[string][2]int64{
		"three-replica/s/0":  {26, 0},
		"three-replica/p/0":  {26, 0},
		"three-replica/o/0":  {26, 0},
		"three-replica/s/1":  {26, 26},
		"three-replica/p/1":  {26, 26},
		"three-replica/o/1":  {26, 26},
		"three-replica/s/2":  {26, 26},
		"three-replica/p/2":  {26, 26},
		"three-replica/o/2":  {26, 26},
		"three-replica/s/3":  {8, 8},
		"three-replica/p/3":  {6, 6},
		"three-replica/o/3":  {8, 8},
		"three-replica/s/4":  {8, 8},
		"three-replica/p/4":  {8, 8},
		"three-replica/o/4":  {8, 8},
		"three-replica/s/5":  {26, 26},
		"three-replica/p/5":  {26, 26},
		"three-replica/o/5":  {26, 26},
		"three-replica/join": {28, 13},
		"subject-only/s/0":   {26, 0},
		"subject-only/s/1":   {26, 26},
		"subject-only/s/2":   {26, 26},
		"subject-only/s/3":   {8, 8},
		"subject-only/s/4":   {8, 8},
		"subject-only/s/5":   {26, 26},
		"subject-only/join":  {28, 13},
	}
	for _, mode := range []partition.Mode{partition.ThreeReplica, partition.SubjectOnly} {
		x := newExecMode(g, 3, mode, nil)
		positions := []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos}
		if mode == partition.SubjectOnly {
			positions = positions[:1]
		}
		for i, src := range patterns {
			q := sparql.MustParse(src)
			for _, pos := range positions {
				label := fmt.Sprintf("%v/%v/%d", mode, pos, i)
				rows, m := scanThrough(t, x, q, pos)
				if want := refRows(g, q); !slices.Equal(rows, want) {
					t.Errorf("%s %s: rows %v, want %v", label, src, rows, want)
				}
				if got, want := [2]int64{m.Reads, m.Checks}, pins[label]; got != want {
					t.Errorf("%s %s: Reads, Checks = %v, pinned %v", label, src, got, want)
				}
			}
		}
		// Two patterns joined on ?p, a property in one and a subject in
		// the other: the first reads the property replica, class files
		// included.
		q := sparql.MustParse(`SELECT ?x ?p ?l WHERE { ?x ?p ?y . ?p <label> ?l }`)
		q.Name = "fixed-join"
		var colo CoLocator // nil: every join co-locates under ThreeReplica
		if mode == partition.SubjectOnly {
			colo = SubjectOnlyCoLocator()
		}
		pp, err := CompileWith(mscPlan(t, q), colo)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%v/join", mode)
		var got [2]int64
		for k, c := range []mapreduce.Constants{{Read: 1}, {Check: 1}} {
			x.ctx = NewExecContext(1, c)
			r, err := x.Execute(pp)
			if err != nil {
				t.Fatal(err)
			}
			if rows := resultRows(r.Rows); !slices.Equal(rows, refRows(g, q)) {
				t.Errorf("%s: rows %v, want %v", label, rows, refRows(g, q))
			}
			got[k] = int64(r.Work)
		}
		if got != pins[label] {
			t.Errorf("%s: Reads, Checks = %v, pinned %v", label, got, pins[label])
		}
	}
}

// TestScanClassFilesSharingANode: a class file's rows are the rows of
// its class in an object file that holds other classes' rows too, so a
// scan of the property replica reads exactly each class's members, with
// and without a constant subject — twelve classes over two nodes share
// an object file by pigeonhole — and is charged its own rows.
func TestScanClassFilesSharingANode(t *testing.T) {
	g := rdf.NewGraph()
	for c := 0; c < 12; c++ {
		for m := 0; m <= c%3; m++ {
			g.AddSPO(fmt.Sprintf("m%d", (c+m)%7), sparql.RDFType, fmt.Sprintf("C%d", c))
		}
	}
	g.AddSPO("m1", "knows", "m2")
	x := newExec(g, 2)
	for _, src := range []string{
		`SELECT ?x ?c WHERE { ?x <` + sparql.RDFType + `> ?c }`,
		`SELECT ?p ?o WHERE { <m1> ?p ?o }`,
		`SELECT ?s ?p WHERE { ?s ?p <C4> }`,
	} {
		q := sparql.MustParse(src)
		rows, m := scanThrough(t, x, q, rdf.PPos)
		if want := refRows(g, q); !slices.Equal(rows, want) {
			t.Errorf("%s: rows %v, want %v", src, rows, want)
		}
		want := int64(g.Len()) // a variable property reads every file
		if !q.Patterns[0].P.IsVar {
			want-- // the class files: every triple but the one knows
		}
		if m.Reads != want {
			t.Errorf("%s: read %d rows, want %d", src, m.Reads, want)
		}
	}
}

// scanThrough reads q's one pattern on every node from the files of the
// replica at pos (the subject replica under subject-only partitioning),
// returning its rows in q's SELECT order, sorted, and what it metered.
func scanThrough(t *testing.T, x *testExec, q *sparql.Query, pos rdf.Pos) ([]string, mapreduce.Meter) {
	t.Helper()
	pp, err := Compile(mscPlan(t, q))
	if err != nil {
		t.Fatal(err)
	}
	if pp.Root.Kind != core.OpMatch {
		t.Fatalf("%v: root is %v, not a scan", q, pp.Root.Kind)
	}
	c := x.ctx
	c.plan, c.view, c.dict = pp, x.part.Current(), x.dict
	c.prepare()
	defer c.release()
	a := c.arenas[0]
	sp := *pp.rootScan // the plan's scan, reading the replica at pos
	sp.pos = pos
	files := c.files(a, &sp)
	var m mapreduce.Meter
	var rows []string
	for node := 0; node < c.view.Nodes(); node++ {
		a.resetBlocks()
		dst := a.nextBlock(len(q.Select))
		c.scanFiles(dst, &sp, node, &m, files, rdf.NoTerm, rdf.NoTerm)
		for i := 0; i < dst.N; i++ {
			rows = append(rows, fmt.Sprint([]rdf.TermID(dst.Row(i))))
		}
	}
	slices.Sort(rows)
	return rows, m
}

// refRows is the reference evaluator's answer to q, one string a row,
// sorted.
func refRows(g *rdf.Graph, q *sparql.Query) []string {
	return resultRows(refeval.Eval(g, q))
}

// resultRows renders rows one string each, sorted.
func resultRows[R ~[]rdf.TermID](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]rdf.TermID(r))
	}
	slices.Sort(out)
	return out
}
