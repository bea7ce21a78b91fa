package partition

import (
	"fmt"
	"reflect"
	"testing"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// biggerGraph is sampleGraph plus enough extra structure that a reshard
// has real per-file move sets in every replica position.
func biggerGraph() *rdf.Graph {
	g := sampleGraph()
	for i := 0; i < 60; i++ {
		g.AddSPO(fmt.Sprintf("u%d", i), "worksAt", fmt.Sprintf("org%d", i%7))
		g.AddSPO(fmt.Sprintf("u%d", i), "knows", fmt.Sprintf("s%d", i%20))
	}
	return g
}

// TestReshardMatchesFreshLoad is the partition-layer elastic oracle:
// growing and then shrinking a ring-placed store through Resize leaves
// it byte-identical — per node, per file, per row set — to a fresh load
// at the target size, each resize committing one epoch. Row order within
// a file may differ (moves append at the tail), so files compare as row
// multisets.
func TestReshardMatchesFreshLoad(t *testing.T) {
	g := biggerGraph()
	store := dstore.NewStore(5)
	p := LoadWithPolicy(store, g, ThreeReplica, RingPolicy)

	for _, target := range []int{8, 3} {
		before, ver := storedRows(store.Current()), store.Current().Version()
		if _, err := p.Resize(target); err != nil {
			t.Fatalf("Resize(%d): %v", target, err)
		}
		if got := storedRows(store.Current()); got != before {
			t.Fatalf("Resize(%d) changed the row count: %d -> %d", target, before, got)
		}
		if got := store.Current().Version(); got != ver+1 {
			t.Fatalf("Resize(%d) moved the epoch %d -> %d, want one epoch", target, ver, got)
		}
		if store.N() != target {
			t.Fatalf("store at %d nodes after reshard to %d", store.N(), target)
		}

		fresh := dstore.NewStore(target)
		LoadWithPolicy(fresh, g, ThreeReplica, RingPolicy)
		got, want := stateAsSets(t, store), stateAsSets(t, fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resharded store at %d nodes diverges from fresh load", target)
		}
	}
	if got := p.TopologyVersion(); got != 2 {
		t.Errorf("TopologyVersion = %d after two reshards, want 2", got)
	}
}

// stateAsSets flattens the current snapshot to node -> file -> row
// multiset (row order within a file is not significant).
func stateAsSets(t *testing.T, s *dstore.Store) map[int]map[string]map[string]int {
	t.Helper()
	out := make(map[int]map[string]map[string]int)
	snap := s.Current()
	for i := 0; i < snap.N(); i++ {
		nv := snap.Node(i)
		files := make(map[string]map[string]int)
		for _, name := range nv.Names() {
			f, _ := nv.Get(name)
			set := make(map[string]int, f.NumRows())
			for ri := 0; ri < f.NumRows(); ri++ {
				set[fmt.Sprint(f.Row(ri))]++
			}
			files[name] = set
		}
		out[i] = files
	}
	return out
}

// TestReshardPinnedViewUnchanged: a view pinned before the reshard
// keeps reading the old topology's files while the reshard runs.
func TestReshardPinnedViewUnchanged(t *testing.T) {
	g := biggerGraph()
	store := dstore.NewStore(5)
	p := LoadWithPolicy(store, g, ThreeReplica, RingPolicy)
	old := p.Current()
	oldRows := make([]int, old.Nodes())
	for i := range oldRows {
		oldRows[i] = nodeRows(old.Snap().Node(i))
	}

	if _, err := p.Resize(8); err != nil {
		t.Fatal(err)
	}

	if old.Nodes() != 5 || old.Topology() != 0 {
		t.Fatalf("pinned view mutated: %d nodes, topo %d", old.Nodes(), old.Topology())
	}
	for i := range oldRows {
		if got := nodeRows(old.Snap().Node(i)); got != oldRows[i] {
			t.Fatalf("pinned view node %d rows %d -> %d", i, oldRows[i], got)
		}
	}
	cur := p.Current()
	if cur.Nodes() != 8 || cur.Topology() != 1 {
		t.Fatalf("current view: %d nodes, topo %d, want 8/1", cur.Nodes(), cur.Topology())
	}
	if cur.Version() != old.Version()+1 {
		t.Fatalf("epoch %d -> %d across the reshard, want one epoch", old.Version(), cur.Version())
	}
}

// TestReshardMovedFraction: under the ring, growing moves roughly the
// ideal fraction of rows — never more than twice it — where modulo
// placement would reshuffle nearly everything.
func TestReshardMovedFraction(t *testing.T) {
	g := biggerGraph()
	store := dstore.NewStore(7)
	p := LoadWithPolicy(store, g, ThreeReplica, RingPolicy)
	st, err := p.Resize(10)
	if err != nil {
		t.Fatal(err)
	}
	ideal := 3.0 / 10.0
	if f := st.MovedFraction(); f > 2*ideal {
		t.Errorf("ring reshard 7->10 moved %.2f of rows, ideal %.2f", f, ideal)
	}
	if st.MovedRows == 0 {
		t.Error("reshard moved nothing")
	}
}

// TestReshardEmptyStore: resizing an empty store still commits one
// epoch, which carries the size change and publishes the topology.
func TestReshardEmptyStore(t *testing.T) {
	g := rdf.NewGraph()
	store := dstore.NewStore(3)
	p := LoadWithPolicy(store, g, ThreeReplica, RingPolicy)
	old := p.Current()
	st, err := p.Resize(5)
	if err != nil {
		t.Fatal(err)
	}
	v := p.Current()
	if st.MovedRows != 0 || v.Version() != old.Version()+1 || v.Topology() != 1 {
		t.Fatalf("empty reshard: moved %d rows, epoch %d -> %d, topo %d; want one epoch at topo 1",
			st.MovedRows, old.Version(), v.Version(), v.Topology())
	}
	if v.Nodes() != 5 || store.N() != 5 {
		t.Fatalf("empty reshard left %d/%d nodes", v.Nodes(), store.N())
	}
}

// TestReshardThenApplyBatch: after a reshard, ordinary batches keep the
// store equivalent to a fresh load at the new size (placement metadata
// and the new placement route writes correctly).
func TestReshardThenApplyBatch(t *testing.T) {
	g := biggerGraph()
	store := dstore.NewStore(5)
	p := LoadWithPolicy(store, g, ThreeReplica, RingPolicy)
	if _, err := p.Resize(8); err != nil {
		t.Fatal(err)
	}

	ins := []rdf.Triple{
		{S: g.Dict.EncodeIRI("zz1"), P: g.Dict.EncodeIRI("worksAt"), O: g.Dict.EncodeIRI("orgZ")},
		{S: g.Dict.EncodeIRI("zz2"), P: g.Dict.EncodeIRI("knows"), O: g.Dict.EncodeIRI("zz1")},
	}
	var dels []rdf.Triple
	knows, _ := g.Dict.Lookup(rdf.NewIRI("knows"))
	for _, tr := range g.Triples() {
		if tr.P == knows {
			dels = append(dels, tr)
			break
		}
	}
	g.RemoveBatch(dels)
	for _, tr := range ins {
		g.Add(tr)
	}
	p.ApplyBatch(ins, dels, g.Dict)

	fresh := dstore.NewStore(8)
	LoadWithPolicy(fresh, g, ThreeReplica, RingPolicy)
	if !reflect.DeepEqual(stateAsSets(t, store), stateAsSets(t, fresh)) {
		t.Fatal("post-reshard batch diverges from fresh load at the new size")
	}

	tp := sparql.MustParse(`SELECT ?a ?b WHERE { ?a <worksAt> ?b }`).Patterns[0]
	if files := patternFiles(p.Current(), tp, rdf.SPos, g.Dict); len(files) != 1 {
		t.Errorf("AppendFiles after reshard+batch = %v, want one file", files)
	}
}
