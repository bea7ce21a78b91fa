package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TestTripleShimsMatchApplyBatch replays a seeded stream of batches of
// 200 inserts and 200 deletes two ways: through ApplyBatch, and on a
// second store through dstore's triple-addressed writers, which are
// given every triple whole (TripleSchema rows) under the names of all
// three of its replicas, as a writer that knows only the naming rule
// addresses them. After every batch both stores hold the same files,
// key for key, on every node: the whole-triple rows are keyed as the
// partitioner keys them, and those addressed to the property replica,
// which the store does not hold, are dropped — deletes included.
func TestTripleShimsMatchApplyBatch(t *testing.T) {
	const nodes, batches, perBatch = 5, 4, 200
	rng := rand.New(rand.NewSource(20150531))
	g := rdf.NewGraph()
	term := func(kind string, i int) rdf.TermID { return g.Dict.EncodeIRI(fmt.Sprintf("%s%d", kind, i)) }
	typeID := g.Dict.EncodeIRI(sparql.RDFType)
	// randTriple draws from 150 subjects, 6 properties and rdf:type with
	// 8 classes; a property or class past the load's is new to the data.
	randTriple := func(props, classes int) rdf.Triple {
		s := term("s", rng.Intn(150))
		if rng.Intn(4) == 0 {
			return rdf.Triple{S: s, P: typeID, O: term("C", rng.Intn(classes))}
		}
		return rdf.Triple{S: s, P: term("p", rng.Intn(props)), O: term("s", rng.Intn(150))}
	}
	stored := map[rdf.Triple]bool{}
	for len(stored) < 1500 {
		tr := randTriple(6, 8)
		if !stored[tr] {
			stored[tr] = true
			g.Add(tr)
		}
	}

	byBatch := dstore.NewStore(nodes)
	p := LoadWithPolicy(byBatch, g, ThreeReplica, ModuloPolicy)
	byShims := dstore.NewStore(nodes)
	LoadWithPolicy(byShims, g, ThreeReplica, ModuloPolicy)
	place := ModuloPolicy(nodes)
	// replicas calls f with the node and file of each of t's three
	// copies.
	replicas := func(t rdf.Triple, f func(node int, file string)) {
		f(place.NodeFor(t.S), FileName(rdf.SPos, t.P, 0))
		f(place.NodeFor(t.O), FileName(rdf.OPos, t.P, 0))
		class := rdf.NoTerm
		if t.P == typeID {
			class = t.O
		}
		f(place.NodeFor(t.P), FileName(rdf.PPos, t.P, class))
	}

	for b := 0; b < batches; b++ {
		var ins, del []rdf.Triple
		for _, tr := range g.Triples() {
			if len(del) < perBatch && rng.Intn(3) == 0 {
				del = append(del, tr)
			}
		}
		if len(del) != perBatch {
			t.Fatalf("batch %d: drew %d deletes, want %d", b, len(del), perBatch)
		}
		for _, tr := range del {
			delete(stored, tr)
		}
		for len(ins) < perBatch {
			if tr := randTriple(6+b, 8+b); !stored[tr] {
				stored[tr] = true
				ins = append(ins, tr)
			}
		}
		g.RemoveBatch(del)
		for _, tr := range ins {
			g.Add(tr)
		}
		p.ApplyBatch(ins, del, g.Dict)

		tx := byShims.Begin()
		for _, tr := range del {
			replicas(tr, func(node int, file string) { tx.DeleteRow(node, file, dstore.Row{tr.S, tr.P, tr.O}) })
		}
		for _, tr := range ins {
			replicas(tr, func(node int, file string) { tx.AppendCells(node, file, TripleSchema, tr.S, tr.P, tr.O) })
		}
		tx.Commit()

		if got, want := storeState(byShims), storeState(byBatch); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: the store written through the shims diverges from ApplyBatch's:\n got %v\nwant %v", b, got, want)
		}
	}
}
