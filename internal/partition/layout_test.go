package partition

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TestFilesStoreUnfixedCells is the layout oracle of Section 5.1's files:
// the store holds the cells of the subject and object replicas only, a
// stored file keeps the positions its name does not fix, its placed cell
// first — (s, o) or (o, s) — in ascending order, and the property
// replica is placed, not stored: every property file and rdf:type class
// file, read through View.Open, is exactly its property's (or class's)
// triples, on its placement node only. It checks, in both modes, after a
// load, after a batch that deletes a whole class and inserts a new
// property and a new class, and after a ring resize 5→8→3: every stored
// file's placement and order, the store's cell count, every
// property-replica file, the triples EachTriple rebuilds, and Contains
// on every stored and 50 absent triples.
func TestFilesStoreUnfixedCells(t *testing.T) {
	graphs := map[string]func() *rdf.Graph{
		"sample": sampleGraph,
		"lubm1":  func() *rdf.Graph { return lubm.Generate(lubm.DefaultConfig(1)) },
	}
	for _, gname := range []string{"sample", "lubm1"} {
		for _, mode := range []Mode{ThreeReplica, SubjectOnly} {
			g := graphs[gname]()
			store := dstore.NewStore(5)
			p := LoadWithPolicy(store, g, mode, RingPolicy)
			label := fmt.Sprintf("%s/%v", gname, mode)
			checkLayout(t, label+"/load", p.Current(), g, mode)

			typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
			dels := smallestClass(g, typeID)
			g.RemoveBatch(dels)
			s0, s1 := g.Triples()[0].S, g.Triples()[1].S
			ins := []rdf.Triple{
				{S: s0, P: g.Dict.EncodeIRI("newProperty"), O: s1},
				{S: s1, P: typeID, O: g.Dict.EncodeIRI("NewClass")},
			}
			for _, tr := range ins {
				g.Add(tr)
			}
			checkLayout(t, label+"/batch", p.ApplyBatch(ins, dels, g.Dict), g, mode)

			for _, n := range []int{8, 3} {
				if _, err := p.Resize(n); err != nil {
					t.Fatal(err)
				}
				checkLayout(t, fmt.Sprintf("%s/resize%d", label, n), p.Current(), g, mode)
			}
		}
	}
}

// smallestClass returns the rdf:type triples of the class with the
// fewest members (the smallest class ID on a tie).
func smallestClass(g *rdf.Graph, typeID rdf.TermID) []rdf.Triple {
	members := map[rdf.TermID][]rdf.Triple{}
	for _, tr := range g.Triples() {
		if tr.P == typeID {
			members[tr.O] = append(members[tr.O], tr)
		}
	}
	var best rdf.TermID
	for c, m := range members {
		if b := members[best]; best == rdf.NoTerm || len(m) < len(b) || len(m) == len(b) && c < best {
			best = c
		}
	}
	return members[best]
}

// checkLayout holds view v, in the given mode, to the layout rule and to
// graph g's triples.
func checkLayout(t *testing.T, label string, v *View, g *rdf.Graph, mode Mode) {
	t.Helper()
	typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
	cells := 0
	for i := 0; i < v.Nodes(); i++ {
		nd := v.Snap().Node(i)
		for _, name := range nd.Names() {
			f, _ := nd.Get(name)
			if name[0] != 's' && (name[0] != 'o' || mode != ThreeReplica) {
				t.Fatalf("%s: the store holds %s, outside the replicas it keeps", label, name)
			}
			keys := f.Keys()
			for r, k := range keys {
				if placed, _ := dstore.Cells(k); v.place.NodeFor(placed) != i {
					t.Fatalf("%s: %s on node %d: row %d %v is placed on node %d", label, name, i, r, f.Row(r), v.place.NodeFor(placed))
				}
				if r > 0 && keys[r-1] >= k {
					t.Fatalf("%s: %s on node %d: row %d %v is not before row %d %v", label, name, i, r-1, f.Row(r-1), r, f.Row(r))
				}
			}
			cells += 2 * len(keys)
		}
	}
	// Two cells in the subject replica; under ThreeReplica two more in
	// the object replica, and none in the property replica.
	want := map[rdf.Triple]int{}
	byFile := map[FileID]map[rdf.Triple]int{} // property-replica file -> its triples
	props := map[rdf.TermID]bool{}
	wantCells := 0
	for _, tr := range g.Triples() {
		want[tr]++
		wantCells += 2
		if mode == ThreeReplica {
			wantCells += 2
		}
		id := FileID{Pos: rdf.PPos, Prop: tr.P}
		if tr.P == typeID {
			id.Class = tr.O
		}
		if byFile[id] == nil {
			byFile[id] = map[rdf.Triple]int{}
		}
		byFile[id][tr]++
		props[tr.P] = true
	}
	if cells != wantCells {
		t.Errorf("%s: store holds %d cells, want %d", label, cells, wantCells)
	}
	// Every property-replica file, read through the resolver on every
	// node: held by its placement node alone (by none under
	// SubjectOnly), and its rows are its triples. The unsplit rdf:type
	// file is held by no node.
	byFile[FileID{Pos: rdf.PPos, Prop: typeID}] = nil
	for id, triples := range byFile {
		for i := 0; i < v.Nodes(); i++ {
			f, ok := v.Open(i, id)
			if held := mode == ThreeReplica && len(triples) > 0 && i == v.place.NodeFor(id.Prop); ok != held {
				t.Fatalf("%s: node %d holds %v: %v, want %v", label, i, id, ok, held)
			}
			if !ok {
				continue
			}
			rows := readFile(f, rdf.NoTerm, rdf.NoTerm)
			if got := tally(rows); !reflect.DeepEqual(got, triples) || f.NumRows() != len(rows) {
				t.Errorf("%s: %v reads %d distinct triples in %d rows, reports %d rows, want its %d", label, id, len(got), len(rows), f.NumRows(), len(triples))
			}
			if id.Class == rdf.NoTerm {
				// A property file is the subject files, node by node.
				var want []rdf.Triple
				v.EachTriple(id.Prop, func(tr rdf.Triple) { want = append(want, tr) })
				if !reflect.DeepEqual(rows, want) {
					t.Errorf("%s: %v reads its rows out of the subject replica's order", label, id)
				}
			}
		}
	}
	// Every file of the three replicas, on every node.
	ids := slices.SortedFunc(maps.Keys(byFile), FileID.compare)
	for _, p := range slices.Sorted(maps.Keys(props)) {
		ids = append(ids, FileID{Pos: rdf.SPos, Prop: p}, FileID{Pos: rdf.OPos, Prop: p})
	}
	for _, id := range ids {
		for i := 0; i < v.Nodes(); i++ {
			if f, ok := v.Open(i, id); ok {
				checkConstantRuns(t, label, f, i)
			}
		}
	}

	got := map[rdf.Triple]int{}
	v.EachTriple(rdf.NoTerm, func(tr rdf.Triple) { got[tr]++ })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: EachTriple yields %d distinct triples, the graph has %d, or their counts differ", label, len(got), len(want))
	}
	for tr := range want {
		if !v.Contains(tr) {
			t.Fatalf("%s: Contains(%v) = false for a stored triple", label, tr)
		}
	}
	// Absent triples recombine stored terms: a stored subject and
	// property with another triple's object, or an object as subject.
	ts, n := g.Triples(), len(g.Triples())
	absent := 0
	for k := 1; absent < 50 && k < n; k++ {
		for i := 0; absent < 50 && i < n; i += k {
			tr := rdf.Triple{S: ts[i].S, P: ts[i].P, O: ts[(i+k)%n].O}
			if k%2 == 0 {
				tr.S = ts[(i+k)%n].O
			}
			if want[tr] > 0 {
				continue
			}
			absent++
			if v.Contains(tr) {
				t.Fatalf("%s: Contains(%v) = true for an absent triple", label, tr)
			}
		}
	}
	if absent < 50 {
		t.Fatalf("%s: found only %d absent triples to probe", label, absent)
	}
}

// readFile rebuilds the triples of a partition file read through the
// resolver, in order, as a scan reads them: the rows of each part's run
// that it keeps and whose subject is s and whose object is o (NoTerm:
// any), over the cells the file's ID fixes.
func readFile(f File, s, o rdf.TermID) []rdf.Triple {
	prop := f.ID().Prop
	var out []rdf.Triple
	for i := 0; i < f.Parts(); i++ {
		r := f.Part(i, s, o)
		for k := r.Lo; k < r.Hi; k++ {
			tr := rdf.Triple{S: r.F.Row(k)[0], P: prop, O: r.F.Row(k)[1]}
			if r.Obj {
				tr.S, tr.O = tr.O, tr.S
			}
			if r.Keeps(r.F.Row(k)[1]) && (s == rdf.NoTerm || tr.S == s) && (o == rdf.NoTerm || tr.O == o) {
				out = append(out, tr)
			}
		}
	}
	return out
}

// checkConstantRuns holds the runs of file f on node, which the view
// resolved, to its rows: for a constant subject, object or both, taken
// from a few of its rows and from none, what the runs Part returns keep
// of those constants is exactly the file's rows of them. A class file is
// read for its own class only.
func checkConstantRuns(t *testing.T, label string, f File, node int) {
	t.Helper()
	all := readFile(f, rdf.NoTerm, rdf.NoTerm)
	for k := 0; k < len(all); k += max(1, len(all)/4) {
		tr := all[k]
		for _, c := range [][2]rdf.TermID{{tr.S, rdf.NoTerm}, {rdf.NoTerm, tr.O}, {tr.S, tr.O}, {tr.O, rdf.NoTerm}, {rdf.NoTerm, tr.S}} {
			if class := f.ID().Class; class != rdf.NoTerm && c[1] != rdf.NoTerm && c[1] != class {
				continue // the ID decides a class file's object
			}
			var want []rdf.Triple
			for _, x := range all {
				if (c[0] == rdf.NoTerm || x.S == c[0]) && (c[1] == rdf.NoTerm || x.O == c[1]) {
					want = append(want, x)
				}
			}
			got := readFile(f, c[0], c[1])
			if !reflect.DeepEqual(tally(got), tally(want)) {
				t.Fatalf("%s: %v on node %d, subject %d object %d: the runs hold %d rows, the file %d", label, f.ID(), node, c[0], c[1], len(got), len(want))
			}
		}
	}
}

// tally counts each triple of ts.
func tally(ts []rdf.Triple) map[rdf.Triple]int {
	out := map[rdf.Triple]int{}
	for _, tr := range ts {
		out[tr]++
	}
	return out
}

// TestResolverOnPinnedViews reads the property replica through the
// resolver on pinned views while batches and a ring resize 5→8→3
// commit: every view's property and class files, on their placement
// nodes, hold exactly the triples its subject replica holds, each file
// as many rows as it reports. Run under -race in CI.
func TestResolverOnPinnedViews(t *testing.T) {
	all := sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`).Patterns[0]
	churnWhileReading(t, func(v *View, d *rdf.Dict) string {
		want := map[rdf.Triple]int{}
		v.EachTriple(rdf.NoTerm, func(tr rdf.Triple) { want[tr]++ })
		got := map[rdf.Triple]int{}
		for _, id := range patternFiles(v, all, rdf.PPos, d) {
			for i := 0; i < v.Nodes(); i++ {
				f, ok := v.Open(i, id)
				if !ok {
					continue
				}
				rows := readFile(f, rdf.NoTerm, rdf.NoTerm)
				for _, tr := range rows {
					got[tr]++
				}
				if len(rows) != f.NumRows() {
					return fmt.Sprintf("%v on node %d reads %d rows, reports %d", id, i, len(rows), f.NumRows())
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("the property replica reads %d distinct triples, the subject replica %d", len(got), len(want))
		}
		return ""
	})
}

// TestScanRunsOnPinnedViews reads the runs a scan's constants select on
// pinned views while batches and a ring resize 5→8→3 commit: on every
// node, for every file of each replica and a constant subject, object or
// both taken from three of its rows, the runs hold exactly the file's
// rows of those constants — read from the file itself, or from the other
// replica on the constant's node. Run under -race in CI.
func TestScanRunsOnPinnedViews(t *testing.T) {
	all := sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`).Patterns[0]
	churnWhileReading(t, func(v *View, d *rdf.Dict) string {
		for _, pos := range []rdf.Pos{rdf.SPos, rdf.OPos, rdf.PPos} {
			for _, id := range patternFiles(v, all, pos, d) {
				for i := 0; i < v.Nodes(); i++ {
					f, ok := v.Open(i, id)
					if !ok {
						continue
					}
					rows := readFile(f, rdf.NoTerm, rdf.NoTerm)
					for k := 0; k < len(rows); k += max(1, len(rows)/3) {
						tr := rows[k]
						for _, c := range [][2]rdf.TermID{{tr.S, rdf.NoTerm}, {rdf.NoTerm, tr.O}, {tr.S, tr.O}} {
							if id.Class != rdf.NoTerm {
								c[1] = rdf.NoTerm // the ID decides a class file's object
							}
							want := map[rdf.Triple]int{}
							for _, x := range rows {
								if (c[0] == rdf.NoTerm || x.S == c[0]) && (c[1] == rdf.NoTerm || x.O == c[1]) {
									want[x]++
								}
							}
							if got := tally(readFile(f, c[0], c[1])); !reflect.DeepEqual(got, want) {
								return fmt.Sprintf("%v on node %d, subject %d object %d: the runs hold %d distinct rows, the file %d", id, i, c[0], c[1], len(got), len(want))
							}
						}
					}
				}
			}
		}
		return ""
	})
}

// churnWhileReading has four readers call read on the current view —
// each a pinned epoch, which read reports a failure of as a message —
// while twelve batches and a ring resize 5→8→3 commit over biggerGraph,
// each commit waiting for one more view to be read through, then checks
// the final layout.
func churnWhileReading(t *testing.T, read func(v *View, d *rdf.Dict) string) {
	t.Helper()
	g := biggerGraph()
	p := LoadWithPolicy(dstore.NewStore(5), g, ThreeReplica, RingPolicy)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64 // views read through: each commit waits for one more
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := p.Current()
				if msg := read(v, g.Dict); msg != "" {
					t.Errorf("epoch %d: %s", v.Version(), msg)
					return
				}
				reads.Add(1)
			}
		}()
	}
	typeID := g.Dict.EncodeIRI(sparql.RDFType)
	for round := 0; round < 12; round++ {
		for reads.Load() <= int64(round) && !t.Failed() {
			runtime.Gosched()
		}
		if round == 4 || round == 8 {
			if _, err := p.Resize(map[int]int{4: 8, 8: 3}[round]); err != nil {
				t.Fatal(err)
			}
		}
		// Move one member between classes and one subject to a new
		// property: the class files and the property files both change.
		ts := g.Triples()
		old := ts[(round*7)%len(ts)]
		s := g.Dict.EncodeIRI(fmt.Sprintf("r%d", round))
		ins := []rdf.Triple{
			{S: s, P: typeID, O: g.Dict.EncodeIRI(fmt.Sprintf("Class%d", round%4))},
			{S: s, P: g.Dict.EncodeIRI(fmt.Sprintf("rel%d", round%3)), O: old.S},
		}
		dels := []rdf.Triple{old}
		g.RemoveBatch(dels)
		for _, tr := range ins {
			g.Add(tr)
		}
		p.ApplyBatch(ins, dels, g.Dict)
	}
	close(stop)
	wg.Wait()
	checkLayout(t, "after the churn", p.Current(), g, ThreeReplica)
}

// TestOpenAllocatesNothing: resolving a file of each replica and finding
// the run of each of its parts — whole, for a constant subject, for a
// constant object — allocates nothing, so a scan through the resolver
// costs no allocation per file.
func TestOpenAllocatesNothing(t *testing.T) {
	g := sampleGraph()
	p := LoadWithPolicy(dstore.NewStore(3), g, ThreeReplica, nil)
	v := p.Current()
	knows, _ := g.Dict.Lookup(rdf.NewIRI("knows"))
	typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
	class0, _ := g.Dict.Lookup(rdf.NewIRI("Class0"))
	s0, _ := g.Dict.Lookup(rdf.NewIRI("s0"))
	s1, _ := g.Dict.Lookup(rdf.NewIRI("s1"))
	for _, id := range []FileID{
		{Pos: rdf.SPos, Prop: knows}, {Pos: rdf.OPos, Prop: typeID},
		{Pos: rdf.PPos, Prop: knows}, {Pos: rdf.PPos, Prop: typeID, Class: class0},
	} {
		rows := 0
		allocs := testing.AllocsPerRun(20, func() {
			rows = 0
			for i := 0; i < v.Nodes(); i++ {
				f, ok := v.Open(i, id)
				for j := 0; ok && j < f.Parts(); j++ {
					for _, c := range [][2]rdf.TermID{{}, {s0, rdf.NoTerm}, {rdf.NoTerm, s1}} {
						r := f.Part(j, c[0], c[1])
						rows += r.Hi - r.Lo
					}
				}
			}
		})
		if allocs != 0 || rows == 0 {
			t.Errorf("resolving %v on every node: %v allocs, %d stored rows; want 0 allocs and its rows", id, allocs, rows)
		}
	}
}

// TestCountAllocatesNothing: View.Count answers by binary search of the
// stored replicas without allocating, whichever of s, p and o are bound,
// and each answer is the number of matching triples.
func TestCountAllocatesNothing(t *testing.T) {
	g := sampleGraph()
	v := LoadWithPolicy(dstore.NewStore(3), g, ThreeReplica, nil).Current()
	knows, _ := g.Dict.Lookup(rdf.NewIRI("knows"))
	s0, _ := g.Dict.Lookup(rdf.NewIRI("s0"))
	s1, _ := g.Dict.Lookup(rdf.NewIRI("s1"))
	cases := []struct {
		s, p, o rdf.TermID
		want    int
	}{
		{s0, knows, s1, 1}, {s0, knows, rdf.NoTerm, 1}, {rdf.NoTerm, knows, s1, 1}, {rdf.NoTerm, knows, rdf.NoTerm, 20},
		{s0, rdf.NoTerm, rdf.NoTerm, 2}, {rdf.NoTerm, rdf.NoTerm, s1, 1}, {rdf.NoTerm, rdf.NoTerm, rdf.NoTerm, 40},
	}
	var got [7]int
	allocs := testing.AllocsPerRun(20, func() {
		for i, c := range cases {
			got[i], _ = v.Count(c.s, c.p, c.o)
		}
	})
	for i, c := range cases {
		if got[i] != c.want {
			t.Errorf("Count(%d, %d, %d) = %d, want %d", c.s, c.p, c.o, got[i], c.want)
		}
	}
	if allocs != 0 {
		t.Errorf("Count allocates %v times per pass", allocs)
	}
}

// TestPartReadsTheOtherReplica: a constant on the cell a stored file is
// not placed by reads the constant's run in the other replica — all of
// it, on the constant's node — while that is the cheaper read, and the
// whole file once it is not. The rdf:type subject files of one LUBM
// university and its classes, small and large, take both branches.
func TestPartReadsTheOtherReplica(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	v := LoadWithPolicy(dstore.NewStore(5), g, ThreeReplica, nil).Current()
	typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
	members := map[rdf.TermID]int{}
	for _, tr := range g.Triples() {
		if tr.P == typeID {
			members[tr.O]++
		}
	}
	id := FileID{Pos: rdf.SPos, Prop: typeID}
	var runs, wholes int
	for class, n := range members {
		for node := 0; node < v.Nodes(); node++ {
			f, ok := v.Open(node, id)
			if !ok {
				continue
			}
			r := f.Part(0, rdf.NoTerm, class)
			switch {
			case n*placeCost < f.NumRows():
				runs++
				if !r.Obj || r.Hi-r.Lo != n || r.F.Row(r.Lo)[0] != class {
					t.Errorf("node %d, class %d of %d members: read %d rows of %s, want its run in the object replica", node, class, n, r.Hi-r.Lo, r.F.Name)
				}
			default:
				wholes++
				if r.Obj || r.Lo != 0 || r.Hi != f.NumRows() {
					t.Errorf("node %d, class %d of %d members: read rows [%d, %d) of %s, want the whole subject file of %d", node, class, n, r.Lo, r.Hi, r.F.Name, f.NumRows())
				}
			}
		}
	}
	if runs == 0 || wholes == 0 {
		t.Errorf("%d reads through the object replica and %d of whole files: want both", runs, wholes)
	}
}

// TestKeyRangesPartitionFiles holds the key ranges a bounded scan reads
// (File.Key, Within, Rows) to the whole file: on every node of a LUBM
// view, every file of every replica, cut at keys drawn from its rows,
// counts its rows once across the ranges, and the ranges narrow every
// part's run — with no constant, a subject constant or an object
// constant — into consecutive pieces that make up the run, each row's
// key within its range.
func TestKeyRangesPartitionFiles(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	v := LoadWithPolicy(dstore.NewStore(5), g, ThreeReplica, nil).Current()
	tp := sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`).Patterns[0]
	checked := 0
	for _, pos := range []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos} {
		for _, id := range patternFiles(v, tp, pos, g.Dict) {
			for node := 0; node < v.Nodes(); node++ {
				f, ok := v.Open(node, id)
				if !ok {
					continue
				}
				whole := f.Part(f.Parts()-1, rdf.NoTerm, rdf.NoTerm)
				cuts := []rdf.TermID{rdf.NoTerm}
				for i := whole.Lo; i < whole.Hi; i += 1 + (whole.Hi-whole.Lo)/4 {
					if k := f.Key(whole, i); k > cuts[len(cuts)-1] {
						cuts = append(cuts, k)
					}
				}
				cuts = append(cuts, rdf.NoTerm)
				rows := 0
				for j := 1; j < len(cuts); j++ {
					rows += f.Rows(cuts[j-1], cuts[j])
				}
				if rows != f.NumRows() {
					t.Errorf("node %d, %v cut at %v: %d rows over the ranges, %d in the file", node, id, cuts, rows, f.NumRows())
				}
				s, o := rdf.NoTerm, rdf.NoTerm
				if whole.Hi > whole.Lo {
					if first, second := dstore.Cells(whole.F.Keys()[whole.Lo]); whole.Obj {
						s, o = second, first
					} else {
						s, o = first, second
					}
				}
				for _, c := range [][2]rdf.TermID{{rdf.NoTerm, rdf.NoTerm}, {s, rdf.NoTerm}, {rdf.NoTerm, o}} {
					for i := 0; i < f.Parts(); i++ {
						r := f.Part(i, c[0], c[1])
						at := r.Lo
						for j := 1; j < len(cuts); j++ {
							lo, hi := cuts[j-1], cuts[j]
							w := f.Within(r, lo, hi)
							if w.F != r.F || w.Obj != r.Obj || w.Lo != at || w.Hi < w.Lo {
								t.Fatalf("node %d, %v part %d, constants %v: range [%d, %d) reads rows [%d, %d), want from %d", node, id, i, c, lo, hi, w.Lo, w.Hi, at)
							}
							for row := w.Lo; row < w.Hi; row++ {
								if k := f.Key(r, row); k < lo || hi != rdf.NoTerm && k >= hi {
									t.Fatalf("node %d, %v part %d, constants %v: row %d's key %d is outside [%d, %d)", node, id, i, c, row, k, lo, hi)
								}
							}
							at = w.Hi
						}
						if at != r.Hi {
							t.Fatalf("node %d, %v part %d, constants %v: the ranges end at row %d, the run at %d", node, id, i, c, at, r.Hi)
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("%d runs checked, want 100 or more", checked)
	}
}
