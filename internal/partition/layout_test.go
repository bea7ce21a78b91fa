package partition

import (
	"fmt"
	"reflect"
	"runtime"
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
// stored file keeps the positions its name does not fix — (s, o) — and
// the property replica is placed, not stored: every property file and
// rdf:type class file, read through View.Open, is exactly its
// property's (or class's) triples, on its placement node only. It
// checks, in both modes, after a load, after a batch that deletes a
// whole class and inserts a new property and a new class, and after a
// ring resize 5→8→3: every stored file's schema, the store's cell count,
// every property-replica file, the triples EachTriple rebuilds, and
// Contains on every stored and 50 absent triples.
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
			if !reflect.DeepEqual(f.Schema, []string{"s", "o"}) {
				t.Fatalf("%s: %s has schema %v, want [s o]", label, name, f.Schema)
			}
			if len(f.Slab()) != f.NumRows()*f.Width() {
				t.Fatalf("%s: %s holds %d cells for %d rows of width %d", label, name, len(f.Slab()), f.NumRows(), f.Width())
			}
			cells += len(f.Slab())
		}
	}
	// Two cells in the subject replica; under ThreeReplica two more in
	// the object replica, and none in the property replica.
	want := map[rdf.Triple]int{}
	byFile := map[string]map[rdf.Triple]int{} // property-replica file -> its triples
	wantCells := 0
	for _, tr := range g.Triples() {
		want[tr]++
		wantCells += 2
		if mode == ThreeReplica {
			wantCells += 2
		}
		name := FileName(rdf.PPos, tr.P, 0)
		if tr.P == typeID {
			name = FileName(rdf.PPos, tr.P, tr.O)
		}
		if byFile[name] == nil {
			byFile[name] = map[rdf.Triple]int{}
		}
		byFile[name][tr]++
	}
	if cells != wantCells {
		t.Errorf("%s: store holds %d cells, want %d", label, cells, wantCells)
	}
	// Every property-replica file, read through the resolver on every
	// node: held by its placement node alone (by none under
	// SubjectOnly), and its rows are its triples. The unsplit rdf:type
	// file is held by no node.
	byFile[FileName(rdf.PPos, typeID, 0)] = nil
	for name, triples := range byFile {
		prop, _ := FileTerms(name)
		for i := 0; i < v.Nodes(); i++ {
			f, ok := v.Open(i, name)
			if held := mode == ThreeReplica && len(triples) > 0 && i == v.place.NodeFor(prop); ok != held {
				t.Fatalf("%s: node %d holds %s: %v, want %v", label, i, name, ok, held)
			}
			if !ok {
				continue
			}
			rows := readFile(f)
			if got := tally(rows); !reflect.DeepEqual(got, triples) || f.NumRows() != len(rows) {
				t.Errorf("%s: %s reads %d distinct triples in %d rows, reports %d rows, want its %d", label, name, len(got), len(rows), f.NumRows(), len(triples))
			}
			if _, class := FileTerms(name); class == rdf.NoTerm {
				// A property file is the subject files, node by node.
				var want []rdf.Triple
				v.EachTriple(prop, func(tr rdf.Triple) { want = append(want, tr) })
				if !reflect.DeepEqual(rows, want) {
					t.Errorf("%s: %s reads its rows out of the subject replica's order", label, name)
				}
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
// resolver, in order, as a scan reads them: each part's (s, o) cells —
// those of the part's class alone — over the cells the file's name
// fixes.
func readFile(f File) []rdf.Triple {
	prop, _ := FileTerms(f.Name())
	var out []rdf.Triple
	for i := 0; i < f.Parts(); i++ {
		sf, class := f.Part(i)
		if sf == nil {
			continue
		}
		for r := 0; r < sf.NumRows(); r++ {
			if row := sf.Row(r); class == rdf.NoTerm || row[1] == class {
				out = append(out, rdf.Triple{S: row[0], P: prop, O: row[1]})
			}
		}
	}
	return out
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
	g := biggerGraph()
	p := LoadWithPolicy(dstore.NewStore(5), g, ThreeReplica, RingPolicy)
	all := sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`).Patterns[0]
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
				want := map[rdf.Triple]int{}
				v.EachTriple(rdf.NoTerm, func(tr rdf.Triple) { want[tr]++ })
				got := map[rdf.Triple]int{}
				for _, name := range v.Files(all, rdf.PPos, g.Dict) {
					for i := 0; i < v.Nodes(); i++ {
						f, ok := v.Open(i, name)
						if !ok {
							continue
						}
						rows := readFile(f)
						for _, tr := range rows {
							got[tr]++
						}
						if len(rows) != f.NumRows() {
							t.Errorf("epoch %d: %s on node %d reads %d rows, reports %d", v.Version(), name, i, len(rows), f.NumRows())
							return
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("epoch %d: the property replica reads %d distinct triples, the subject replica %d", v.Version(), len(got), len(want))
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

// TestOpenAllocatesNothing: resolving a file of each replica and walking
// its parts allocates nothing, so a scan through the resolver costs no
// allocation per file.
func TestOpenAllocatesNothing(t *testing.T) {
	g := sampleGraph()
	p := LoadWithPolicy(dstore.NewStore(3), g, ThreeReplica, nil)
	v := p.Current()
	knows, _ := g.Dict.Lookup(rdf.NewIRI("knows"))
	typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
	class0, _ := g.Dict.Lookup(rdf.NewIRI("Class0"))
	for _, name := range []string{
		FileName(rdf.SPos, knows, 0), FileName(rdf.OPos, typeID, 0),
		FileName(rdf.PPos, knows, 0), FileName(rdf.PPos, typeID, class0),
	} {
		rows := 0
		allocs := testing.AllocsPerRun(20, func() {
			rows = 0
			for i := 0; i < v.Nodes(); i++ {
				f, ok := v.Open(i, name)
				for j := 0; ok && j < f.Parts(); j++ {
					if sf, _ := f.Part(j); sf != nil {
						rows += sf.NumRows()
					}
				}
			}
		})
		if allocs != 0 || rows == 0 {
			t.Errorf("resolving %s on every node: %v allocs, %d stored rows; want 0 allocs and its rows", name, allocs, rows)
		}
	}
}
