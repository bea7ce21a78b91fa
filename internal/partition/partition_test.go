package partition

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

func sampleGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		g.AddSPO(fmt.Sprintf("s%d", i), "knows", fmt.Sprintf("s%d", (i+1)%20))
		g.AddSPO(fmt.Sprintf("s%d", i), sparql.RDFType, fmt.Sprintf("Class%d", i%3))
	}
	return g
}

func TestThreeReplicas(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(5)
	p := LoadWithPolicy(store, g, ThreeReplica, nil)
	if got, want := storedRows(store.Current()), 2*g.Len(); got != want {
		t.Errorf("stored %d rows, want %d (the subject and object replicas)", got, want)
	}
	// The third replica is placed, not stored: its files, read through
	// the resolver, hold every triple once.
	v, logical := p.Current(), 0
	all := sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`).Patterns[0]
	for _, id := range patternFiles(v, all, rdf.PPos, g.Dict) {
		for i := 0; i < v.Nodes(); i++ {
			if f, ok := v.Open(i, id); ok {
				logical += len(readFile(f, rdf.NoTerm, rdf.NoTerm))
			}
		}
	}
	if logical != g.Len() {
		t.Errorf("the property replica reads %d rows, want %d", logical, g.Len())
	}
}

func TestCoLocationBySubject(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(5)
	LoadWithPolicy(store, g, ThreeReplica, nil)
	// All triples with the same subject must live on one node's
	// subject partition.
	loc := make(map[rdf.TermID]int)
	for i := 0; i < store.N(); i++ {
		nd := store.Current().Node(i)
		for _, name := range nd.Names() {
			f, _ := nd.Get(name)
			if name[0] != 's' {
				continue
			}
			for ri := 0; ri < f.NumRows(); ri++ {
				row := f.Row(ri)
				if prev, ok := loc[row[0]]; ok && prev != i {
					t.Fatalf("subject %d on nodes %d and %d", row[0], prev, i)
				}
				loc[row[0]] = i
			}
		}
	}
}

func TestFilesConstantProperty(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(3)
	p := LoadWithPolicy(store, g, ThreeReplica, nil)
	tp := sparql.MustParse(`SELECT ?a WHERE { ?a <knows> ?b }`).Patterns[0]
	files := patternFiles(p.Current(), tp, rdf.SPos, g.Dict)
	if len(files) != 1 {
		t.Fatalf("AppendFiles = %v, want one file", files)
	}
	// All 20 'knows' triples must be reachable through that file across
	// nodes.
	total := 0
	for i := 0; i < store.N(); i++ {
		if f, ok := store.Current().Node(i).Get(fileName(files[0])); ok {
			total += f.NumRows()
		}
	}
	if total != 20 {
		t.Errorf("knows replica holds %d rows, want 20", total)
	}
}

func TestFilesRdfTypeSplit(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(3)
	p := LoadWithPolicy(store, g, ThreeReplica, nil)
	q := sparql.MustParse(fmt.Sprintf(`SELECT ?a WHERE { ?a <%s> <Class0> }`, sparql.RDFType))
	tp := q.Patterns[0]
	// In the property partition, the rdf:type pattern with constant
	// object resolves to exactly one per-class file.
	files := patternFiles(p.Current(), tp, rdf.PPos, g.Dict)
	if len(files) != 1 {
		t.Fatalf("AppendFiles = %v, want 1 split file", files)
	}
	total := 0
	for i := 0; i < store.N(); i++ {
		if f, ok := p.Current().Open(i, files[0]); ok {
			total += f.NumRows()
		}
	}
	// Classes are i%3 over 20 subjects: Class0 has 7 members.
	if total != 7 {
		t.Errorf("Class0 split holds %d rows, want 7", total)
	}
	// With a variable object it must return all class splits.
	q2 := sparql.MustParse(fmt.Sprintf(`SELECT ?a ?c WHERE { ?a <%s> ?c }`, sparql.RDFType))
	files = patternFiles(p.Current(), q2.Patterns[0], rdf.PPos, g.Dict)
	if len(files) != 3 {
		t.Errorf("variable-object rdf:type resolves to %v, want 3 files", files)
	}
}

func TestFilesVariableProperty(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(3)
	p := LoadWithPolicy(store, g, ThreeReplica, nil)
	q := sparql.MustParse(`SELECT ?a ?p WHERE { ?a ?p ?b }`)
	files := patternFiles(p.Current(), q.Patterns[0], rdf.SPos, g.Dict)
	// Two properties: knows + rdf:type.
	if len(files) != 2 {
		t.Errorf("variable property resolves to %v, want 2 files", files)
	}
	filesP := patternFiles(p.Current(), q.Patterns[0], rdf.PPos, g.Dict)
	// In the property partition rdf:type is split by class: knows + 3.
	if len(filesP) != 4 {
		t.Errorf("variable property over p-partition resolves to %d files, want 4", len(filesP))
	}
}

func TestFilesUnknownProperty(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(3)
	p := LoadWithPolicy(store, g, ThreeReplica, nil)
	q := sparql.MustParse(`SELECT ?a WHERE { ?a <never-seen> ?b }`)
	if files := patternFiles(p.Current(), q.Patterns[0], rdf.SPos, g.Dict); files != nil {
		t.Errorf("unknown property resolves to %v, want nil", files)
	}
}

func TestNodeForStable(t *testing.T) {
	for id := rdf.TermID(1); id < 100; id++ {
		if NodeFor(id, 7) != NodeFor(id, 7) {
			t.Fatal("NodeFor not deterministic")
		}
		if n := NodeFor(id, 7); n < 0 || n >= 7 {
			t.Fatalf("NodeFor out of range: %d", n)
		}
	}
}

func TestFileName(t *testing.T) {
	if got := FileName(rdf.SPos, 42, 0); got != "s/p42" {
		t.Errorf("FileName = %q", got)
	}
	if got := FileName(rdf.PPos, 42, 7); got != "p/p42/o7" {
		t.Errorf("FileName = %q", got)
	}
	if got := FileName(rdf.OPos, 4294967295, 0); got != "o/p4294967295" {
		t.Errorf("FileName = %q", got)
	}
}

// patternFiles lists the files a scan of tp reads at pos, its constants
// resolved through d: none when one misses it, as the executor does.
func patternFiles(v *View, tp sparql.TriplePattern, pos rdf.Pos, d *rdf.Dict) []FileID {
	var ids [3]rdf.TermID
	for p := rdf.SPos; p <= rdf.OPos; p++ {
		if pt := tp.At(p); !pt.IsVar {
			id, ok := d.Lookup(pt.Term)
			if !ok {
				return nil
			}
			ids[p] = id
		}
	}
	return v.AppendFiles(nil, pos, ids[rdf.PPos], ids[rdf.OPos])
}

// fileName is the name the store keeps file id under.
func fileName(id FileID) string { return FileName(id.Pos, id.Prop, id.Class) }

// nodeRows is the number of rows a node stores.
func nodeRows(nd dstore.NodeView) int {
	n := 0
	for _, name := range nd.Names() {
		f, _ := nd.Get(name)
		n += f.NumRows()
	}
	return n
}

// storedRows is the number of rows a snapshot stores, over all nodes.
func storedRows(snap *dstore.Snapshot) int {
	n := 0
	for i := 0; i < snap.N(); i++ {
		n += nodeRows(snap.Node(i))
	}
	return n
}

// storeState flattens a store's current snapshot to a comparable map:
// node -> file name -> keys.
func storeState(s *dstore.Store) map[int]map[string][]uint64 {
	out := map[int]map[string][]uint64{}
	snap := s.Current()
	for i := 0; i < snap.N(); i++ {
		out[i] = map[string][]uint64{}
		for _, name := range snap.Node(i).Names() {
			f, _ := snap.Node(i).Get(name)
			out[i][name] = f.Keys()
		}
	}
	return out
}

// TestApplyBatchMatchesFreshLoad is the partition-layer equivalence
// oracle: after a batch of deletes and inserts (including a new
// property, a new rdf:type class, and removal of a whole class), the
// incrementally maintained store is byte-identical — per node, per
// file, per row — to a fresh three-replica load of the mutated graph,
// and the placement metadata (AppendFiles) agrees too.
func TestApplyBatchMatchesFreshLoad(t *testing.T) {
	for _, mode := range []Mode{ThreeReplica, SubjectOnly} {
		g := sampleGraph()
		store := dstore.NewStore(5)
		p := LoadWithPolicy(store, g, mode, nil)

		// Deletes: one knows edge, and every member of Class2 (so the
		// class split file and its counter must disappear).
		var dels []rdf.Triple
		typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
		class2, _ := g.Dict.Lookup(rdf.NewIRI("Class2"))
		for _, tr := range g.Triples() {
			if tr.P == typeID && tr.O == class2 {
				dels = append(dels, tr)
			}
		}
		knows, _ := g.Dict.Lookup(rdf.NewIRI("knows"))
		for _, tr := range g.Triples() {
			if tr.P == knows {
				dels = append(dels, tr)
				break
			}
		}
		g.RemoveBatch(dels)

		// Inserts: a brand-new property and a brand-new class.
		ins := []rdf.Triple{
			{S: g.Dict.EncodeIRI("s0"), P: g.Dict.EncodeIRI("worksAt"), O: g.Dict.EncodeIRI("org1")},
			{S: g.Dict.EncodeIRI("s1"), P: typeID, O: g.Dict.EncodeIRI("Class9")},
			{S: g.Dict.EncodeIRI("s2"), P: knows, O: g.Dict.EncodeIRI("s0")},
		}
		for _, tr := range ins {
			g.Add(tr)
		}
		v := p.ApplyBatch(ins, dels, g.Dict)
		if v.Version() != 2 {
			t.Fatalf("%v: batch committed as version %d, want 2", mode, v.Version())
		}

		fresh := dstore.NewStore(5)
		fp := LoadWithPolicy(fresh, g, mode, nil)
		got, want := storeState(store), storeState(fresh)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: incremental store diverges from fresh load:\n got %v\nwant %v", mode, got, want)
		}

		// File resolution must agree for constant-, type- and
		// variable-property patterns.
		qs := []string{
			`SELECT ?a ?b WHERE { ?a <knows> ?b }`,
			`SELECT ?a ?p ?b WHERE { ?a ?p ?b }`,
			fmt.Sprintf(`SELECT ?a ?c WHERE { ?a <%s> ?c }`, sparql.RDFType),
			fmt.Sprintf(`SELECT ?a WHERE { ?a <%s> <Class2> }`, sparql.RDFType),
			`SELECT ?a ?b WHERE { ?a <worksAt> ?b }`,
		}
		for _, src := range qs {
			tp := sparql.MustParse(src).Patterns[0]
			for _, pos := range []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos} {
				if got, want := patternFiles(p.Current(), tp, pos, g.Dict), patternFiles(fp.Current(), tp, pos, g.Dict); !reflect.DeepEqual(got, want) {
					t.Errorf("%v: AppendFiles(%s, %s) = %v, fresh %v", mode, src, pos, got, want)
				}
			}
		}
	}
}

// TestViewPinsEpoch pins the partition-level snapshot rule: a View
// obtained before a batch keeps resolving and reading the old epoch.
func TestViewPinsEpoch(t *testing.T) {
	g := sampleGraph()
	store := dstore.NewStore(3)
	p := LoadWithPolicy(store, g, ThreeReplica, nil)
	old := p.Current()
	tp := sparql.MustParse(`SELECT ?a ?b WHERE { ?a <knows> ?b }`).Patterns[0]
	fname := fileName(patternFiles(old, tp, rdf.SPos, g.Dict)[0])
	oldRows := 0
	for i := 0; i < store.N(); i++ {
		if f, ok := old.Snap().Node(i).Get(fname); ok {
			oldRows += f.NumRows()
		}
	}

	var dels []rdf.Triple
	knows, _ := g.Dict.Lookup(rdf.NewIRI("knows"))
	for _, tr := range g.Triples() {
		if tr.P == knows {
			dels = append(dels, tr)
		}
	}
	g.RemoveBatch(dels)
	p.ApplyBatch(nil, dels, g.Dict)

	stillRows := 0
	for i := 0; i < store.N(); i++ {
		if f, ok := old.Snap().Node(i).Get(fname); ok {
			stillRows += f.NumRows()
		}
	}
	if stillRows != oldRows || oldRows != 20 {
		t.Errorf("pinned view rows = %d (was %d), want 20", stillRows, oldRows)
	}
	// The new view has neither the file nor the property.
	cur := p.Current()
	if files := patternFiles(cur, tp, rdf.SPos, g.Dict); len(files) != 1 {
		t.Fatalf("constant-property resolution should still name the file: %v", files)
	}
	for i := 0; i < store.N(); i++ {
		if _, ok := cur.Snap().Node(i).Get(fname); ok {
			t.Errorf("node %d still holds %s after all its triples were deleted", i, fname)
		}
	}
	vq := sparql.MustParse(`SELECT ?a ?p ?b WHERE { ?a ?p ?b }`).Patterns[0]
	if files := patternFiles(cur, vq, rdf.SPos, g.Dict); len(files) != 1 {
		t.Errorf("variable-property resolution after property removal = %v, want only rdf:type", files)
	}
}

// TestFileIDsMatchStoredNames holds the files scans list by value to the
// files writers store by name, in both modes under both policies, over
// one LUBM university: at the replica a scan reads, AppendFiles lists
// exactly the files that hold rows, in ascending (property, class) order
// — for every constant property, a variable property, and rdf:type read
// at the property replica with its class constant and variable — each
// holding its triples over the nodes; and Open of a subject- or
// object-replica file on a node reads the very file the store keeps
// under its FileName there.
func TestFileIDsMatchStoredNames(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
	members := map[FileID]int{} // the triples of each file of the property replica
	for _, tr := range g.Triples() {
		id := FileID{Pos: rdf.PPos, Prop: tr.P}
		if tr.P == typeID {
			id.Class = tr.O
		}
		members[id]++
	}
	for _, mode := range []Mode{ThreeReplica, SubjectOnly} {
		for _, policy := range []Policy{ModuloPolicy, RingPolicy} {
			v := LoadWithPolicy(dstore.NewStore(5), g, mode, policy).Current()
			label := fmt.Sprintf("%v/%s", mode, v.place.Name())
			for _, pos := range []rdf.Pos{rdf.SPos, rdf.PPos, rdf.OPos} {
				pos = v.ScanPos(pos)
				// want lists the files of prop (NoTerm: every property's)
				// and class, from the graph.
				want := func(prop, class rdf.TermID) (out []FileID) {
					for _, id := range slices.SortedFunc(maps.Keys(members), FileID.compare) {
						if prop != rdf.NoTerm && id.Prop != prop || class != rdf.NoTerm && id.Class != class {
							continue
						}
						if pos != rdf.PPos || mode == SubjectOnly {
							id = FileID{Pos: pos, Prop: id.Prop}
						}
						if len(out) == 0 || out[len(out)-1] != id {
							out = append(out, id)
						}
					}
					return out
				}
				check := func(prop, class rdf.TermID) {
					got := v.AppendFiles(nil, pos, prop, class)
					if w := want(prop, class); !reflect.DeepEqual(got, w) {
						t.Fatalf("%s: AppendFiles(%v, %d, %d) = %v, want %v", label, pos, prop, class, got, w)
					}
					for _, id := range got {
						rows := 0
						for node := 0; node < v.Nodes(); node++ {
							f, ok := v.Open(node, id)
							if ok {
								rows += f.NumRows()
							}
							if id.Pos == rdf.PPos {
								continue
							}
							sf, stored := v.Snap().Node(node).Get(FileName(id.Pos, id.Prop, 0))
							if ok != stored || ok && f.Part(0, rdf.NoTerm, rdf.NoTerm).F != sf {
								t.Fatalf("%s: node %d opens %v (%v) apart from the file stored as %s (%v)", label, node, id, ok, FileName(id.Pos, id.Prop, 0), stored)
							}
						}
						n := 0
						for m, c := range members {
							if m.Prop == id.Prop && (id.Class == rdf.NoTerm || m.Class == id.Class) {
								n += c
							}
						}
						if rows != n {
							t.Errorf("%s: %v holds %d rows over the nodes, want %d", label, id, rows, n)
						}
					}
				}
				check(rdf.NoTerm, rdf.NoTerm)
				for id := range members {
					check(id.Prop, rdf.NoTerm)
					if id.Class != rdf.NoTerm {
						check(id.Prop, id.Class)
					}
				}
			}
		}
	}
}
