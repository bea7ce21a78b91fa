package partition

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TestFilesStoreUnfixedCells is the layout oracle of Section 5.1's files:
// a file stores only the positions its name does not fix — (s, o) in
// every subject, object and property file, (s) in an rdf:type class
// file — and the store still holds exactly the graph. It checks, in both
// modes, after a load, after a batch that deletes a whole class and
// inserts a new property and a new class, and after a ring resize
// 5→8→3: every file's schema, the store's cell count, the triples
// EachTriple rebuilds, and Contains on every stored and 50 absent
// triples.
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
		nd := v.Node(i)
		for _, name := range nd.Names() {
			f, _ := nd.Get(name)
			want := []string{"s", "o"}
			if strings.Contains(name[len("s/p"):], "/o") { // p/p<type>/o<class>
				want = want[:1]
				if name[0] != 'p' || !strings.HasPrefix(name, fmt.Sprintf("p/p%d/", typeID)) {
					t.Fatalf("%s: %s names a class outside the rdf:type property replica", label, name)
				}
			}
			if !reflect.DeepEqual(f.Schema, want) {
				t.Fatalf("%s: %s has schema %v, want %v", label, name, f.Schema, want)
			}
			if len(f.Slab()) != f.NumRows()*f.Width() {
				t.Fatalf("%s: %s holds %d cells for %d rows of width %d", label, name, len(f.Slab()), f.NumRows(), f.Width())
			}
			cells += len(f.Slab())
		}
	}
	// Two cells in the subject replica; under ThreeReplica two more in
	// the object replica and two in the property replica, one in a
	// class file.
	want := map[rdf.Triple]int{}
	wantCells := 0
	for _, tr := range g.Triples() {
		want[tr]++
		wantCells += 2
		if mode == ThreeReplica {
			wantCells += 4
			if tr.P == typeID {
				wantCells--
			}
		}
	}
	if cells != wantCells {
		t.Errorf("%s: store holds %d cells, want %d", label, cells, wantCells)
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
