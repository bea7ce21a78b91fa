package csq

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/wal"
)

// The engine keeps no graph: presence, statistics fills and checkpoints
// read the subject replica of a view. These tests hold each of the three
// against a graph or a set the test maintains itself.

var bothModes = []partition.Mode{partition.ThreeReplica, partition.SubjectOnly}

// TestNetDeltaPresenceAgainstShadow drives batches full of no-ops —
// inserts of present triples, deletes of absent ones, a triple deleted
// and re-inserted — interleaved with resizes, in both replication modes,
// and checks the writer's presence test, the counts it reports and the
// delta it nets against a shadow set, for every triple of the universe
// after every epoch.
func TestNetDeltaPresenceAgainstShadow(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			g := rdf.NewGraph()
			props := []rdf.Term{rdf.NewIRI("urn:p0"), rdf.NewIRI("urn:p1"), rdf.NewIRI("urn:p2"), rdf.NewIRI(sparql.RDFType)}
			var universe []rdf.Triple
			for s := 0; s < 30; s++ {
				for _, p := range props {
					for o := 0; o < 6; o++ {
						universe = append(universe, rdf.Triple{
							S: g.Dict.EncodeIRI(fmt.Sprint("urn:s", s)), P: g.Dict.Encode(p), O: g.Dict.EncodeIRI(fmt.Sprint("urn:o", o)),
						})
					}
				}
			}
			shadow := make(map[rdf.Triple]bool)
			for _, tr := range universe {
				if rng.Intn(3) == 0 {
					g.Add(tr)
					shadow[tr] = true
				}
			}
			cfg := ringConfig()
			cfg.Nodes = 3
			cfg.Partitioning = mode
			eng := New(g, cfg)
			defer eng.Close()

			check := func(when string) {
				t.Helper()
				v := eng.part.Current()
				n := 0
				for _, tr := range universe {
					if v.Contains(tr) != shadow[tr] {
						t.Fatalf("%s: Contains(%v) = %v, the shadow set says %v", when, tr, !shadow[tr], shadow[tr])
					}
					if shadow[tr] {
						n++
					}
				}
				if v.NumTriples() != n {
					t.Fatalf("%s: the view counts %d triples, the shadow set %d", when, v.NumTriples(), n)
				}
			}
			some := func(n int, present bool) (out []rdf.Triple) {
				for len(out) < n {
					if tr := universe[rng.Intn(len(universe))]; shadow[tr] == present {
						out = append(out, tr)
					}
				}
				return out
			}
			check("after the load")
			for round := 0; round < 12; round++ {
				// Deletes run before inserts: of the bounced triples the
				// present ones stay, the absent ones arrive.
				bounced := append(some(2, true), some(2, false)...)
				dels := slices.Concat(some(4, true), some(3, false), bounced)
				ins := slices.Concat(some(4, false), some(3, true), bounced)
				wantIns, wantDel := 0, 0
				for _, tr := range dels {
					if shadow[tr] {
						delete(shadow, tr)
						wantDel++
					}
				}
				for _, tr := range ins {
					if !shadow[tr] {
						shadow[tr] = true
						wantIns++
					}
				}
				br, err := eng.ApplyBatch(ins, dels)
				if err != nil {
					t.Fatal(err)
				}
				if br.Inserted != wantIns || br.Deleted != wantDel {
					t.Fatalf("round %d: %d inserted, %d deleted; the shadow set says %d and %d", round, br.Inserted, br.Deleted, wantIns, wantDel)
				}
				check(fmt.Sprint("round ", round))

				// One group of four callers: the first deletes a present
				// triple and the second puts it back, the third inserts an
				// absent one and the fourth takes it out again. Each counts
				// for its caller and none survives the netting.
				here, gone := some(1, true), some(1, false)
				gi, gd, counts := eng.netDelta([]*request{{dels: here}, {ins: here}, {ins: gone}, {dels: gone}})
				if len(gi)+len(gd) != 0 || !reflect.DeepEqual(counts, [][2]int{{0, 1}, {1, 0}, {1, 0}, {0, 1}}) {
					t.Fatalf("round %d: a group that nets out: delta +%d -%d, counts %v", round, len(gi), len(gd), counts)
				}
				switch round % 4 {
				case 1:
					if _, err := eng.AddNodes(2); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprint("AddNodes after round ", round))
				case 3:
					if _, err := eng.RemoveNodes(1); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprint("RemoveNodes after round ", round))
				}
			}
		})
	}
}

// TestFillFromViewMatchesGraph: after commits, a catalog filled from the
// engine's view holds, for every workload query — constant and variable
// properties, rdf:type splits, a property the data lacks — what NewStats
// counts over a graph the test kept in step, and so does the engine's
// own delta-maintained catalog.
func TestFillFromViewMatchesGraph(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := lubm.Generate(lubm.DefaultConfig(1))
			cfg := DefaultConfig()
			cfg.Partitioning = mode
			eng := New(g, cfg)
			defer eng.Close()
			qs := append(oracleQueries(t),
				sparql.MustParse(`SELECT ?s ?o WHERE { ?s <urn:no:such:property> ?o }`),
				sparql.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?o ?p ?s }`))
			prepareAll(t, eng, qs[:5]) // some patterns resident before the commits, the rest filled after
			rng := rand.New(rand.NewSource(9))
			for round := 1; round <= 3; round++ {
				ins, dels := randomBatch(rng, g, round)
				if _, err := eng.ApplyBatch(ins, dels); err != nil {
					t.Fatal(err)
				}
				mutate(g, ins, dels)
			}
			for _, q := range qs {
				want := cost.NewStats(g, q)
				c := cost.NewCatalog(eng.part.Current(), 0)
				if got := c.Snapshot(eng.dict, q); !got.Equal(want) {
					t.Errorf("%s: a fill from the view differs from NewStats over the graph", q.Name)
				}
				if got := eng.cat.Snapshot(eng.dict, q); !got.Equal(want) {
					t.Errorf("%s: the engine's catalog differs from NewStats over the graph", q.Name)
				}
			}
		})
	}
}

// ckptSize writes b as the initial base of a new log and returns the
// size of the file it became.
func ckptSize(t *testing.T, b *wal.Record) int64 {
	t.Helper()
	fs := wal.NewMemFS()
	l, err := wal.Create(durableOpts(fs), b)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	infos, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if strings.HasPrefix(fi.Name, "ckpt") {
			return fi.Size
		}
	}
	t.Fatal("the log wrote no checkpoint file")
	return 0
}

// TestCheckpointImageFromView: the image enumerated from the view is the
// image the engine used to dump from its graph — the same terms in id
// order, the same triples each once, the same bytes on disk — after
// commits and across a resize.
func TestCheckpointImageFromView(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := lubm.Generate(lubm.DefaultConfig(1))
			cfg := ringConfig()
			cfg.Partitioning = mode
			eng := New(g, cfg)
			defer eng.Close()
			rng := rand.New(rand.NewSource(13))
			for round := 1; round <= 4; round++ {
				ins, dels := randomBatch(rng, g, round)
				if _, err := eng.ApplyBatch(ins, dels); err != nil {
					t.Fatal(err)
				}
				mutate(g, ins, dels)
				if round == 2 {
					if _, err := eng.AddNodes(2); err != nil {
						t.Fatal(err)
					}
				}
				fromGraph := &wal.Record{
					Epoch:     eng.DataVersion(),
					FirstTerm: 1,
					Terms:     g.Dict.TermsAfter(0),
					Inserts:   slices.Clone(g.Triples()), // Create sorts it in place
					Topology:  uint32(eng.Nodes()),
				}
				cp := eng.snapshot()
				if cp.Epoch != fromGraph.Epoch || cp.FirstTerm != 1 || cp.Topology != fromGraph.Topology || !reflect.DeepEqual(cp.Terms, fromGraph.Terms) {
					t.Fatalf("round %d: image at epoch %d on %d nodes with %d terms from id %d; want epoch %d, %d nodes, the dictionary's %d terms from id 1",
						round, cp.Epoch, cp.Topology, len(cp.Terms), cp.FirstTerm, fromGraph.Epoch, fromGraph.Topology, len(fromGraph.Terms))
				}
				if len(cp.Inserts) != g.Len() || len(cp.Deletes) != 0 {
					t.Fatalf("round %d: image holds %d inserts and %d deletes, the graph %d triples", round, len(cp.Inserts), len(cp.Deletes), g.Len())
				}
				for _, tr := range cp.Inserts {
					if !g.Contains(tr) {
						t.Fatalf("round %d: image holds %v, the graph does not", round, tr)
					}
				}
				seen := &rdf.Graph{Dict: g.Dict}
				for _, tr := range cp.Inserts {
					if !seen.Add(tr) {
						t.Fatalf("round %d: image holds %v twice", round, tr)
					}
				}
				if got, want := ckptSize(t, cp), ckptSize(t, fromGraph); got != want {
					t.Errorf("round %d: checkpoint file of %d bytes, %d when dumped from the graph", round, got, want)
				}
			}
		})
	}
}

// TestSnapshotMergesSortedFiles: the base the engine writes, merged
// from the view's sorted subject files, is the record the old
// construction built — the triples of EachTriple sorted into the log
// codec's (P, S, O) order — triple for triple, at 5 universities under
// both replication modes, after commits and a ring resize.
func TestSnapshotMergesSortedFiles(t *testing.T) {
	for _, mode := range bothModes {
		t.Run(mode.String(), func(t *testing.T) {
			g := lubm.Generate(lubm.DefaultConfig(5))
			cfg := ringConfig()
			cfg.Partitioning = mode
			eng := New(g, cfg)
			defer eng.Close()
			rng := rand.New(rand.NewSource(21))
			for round := 1; round <= 2; round++ {
				ins, dels := randomBatch(rng, g, round)
				if _, err := eng.ApplyBatch(ins, dels); err != nil {
					t.Fatal(err)
				}
				mutate(g, ins, dels)
			}
			if _, err := eng.AddNodes(2); err != nil {
				t.Fatal(err)
			}
			var want []rdf.Triple
			eng.part.Current().EachTriple(rdf.NoTerm, func(tr rdf.Triple) { want = append(want, tr) })
			slices.SortFunc(want, func(x, y rdf.Triple) int {
				return cmp.Or(cmp.Compare(x.P, y.P), cmp.Compare(x.S, y.S), cmp.Compare(x.O, y.O))
			})
			got := eng.snapshot().Inserts
			if len(got) != g.Len() || len(want) != g.Len() {
				t.Fatalf("%d triples in the snapshot, %d in the view, %d in the graph", len(got), len(want), g.Len())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("triple %d of the snapshot is %v, the sorted view's %v", i, got[i], want[i])
				}
			}
		})
	}
}
