package cliquesquare

// Facade-level coverage of the mutable engine: batched updates are
// atomic data epochs, answers carry the epoch they were computed from,
// an updated engine agrees with a freshly built one, and the plan
// cache keeps serving (revalidated) plans across epochs.

import (
	"errors"
	"reflect"
	"testing"

	"cliquesquare/internal/rdf"
)

func TestFacadeUpdates(t *testing.T) {
	g := socialGraph()
	eng, err := NewEngine(g, Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eng.DataVersion() != 1 {
		t.Fatalf("DataVersion after load = %d, want 1", eng.DataVersion())
	}
	const q = `SELECT ?a ?b WHERE { ?a <knows> ?b . ?b <livesIn> <paris> }`
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.DataVersion != 1 {
		t.Fatalf("initial answer: %d rows at version %d, want 1 row at version 1", len(res.Rows), res.DataVersion)
	}

	// One batch: dave moves to paris, bob leaves, eve starts knowing bob.
	b := new(Batch).
		InsertSPO("dave", "livesIn", "paris").
		InsertSPO("eve", "knows", "bob").
		DeleteSPO("bob", "livesIn", "paris").
		InsertSPO("alice", "knows", "bob") // already present: no-op
	br, err := eng.ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if br.Inserted != 2 || br.Deleted != 1 || br.DataVersion != 2 {
		t.Fatalf("batch result = %+v, want 2 inserted, 1 deleted, version 2", br)
	}
	if eng.DataVersion() != 2 {
		t.Fatalf("DataVersion = %d, want 2", eng.DataVersion())
	}

	res, err = eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// knows edges into paris residents now: carol->dave (dave moved in);
	// alice->bob and eve->bob dropped with bob's move out.
	want := [][]string{{"<carol>", "<dave>"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("post-batch rows = %v, want %v", res.Rows, want)
	}
	if res.DataVersion != 2 {
		t.Errorf("post-batch DataVersion = %d, want 2", res.DataVersion)
	}
	if !res.PlanCached {
		t.Error("repeated query shape missed the plan cache after the batch")
	}
	us := eng.UpdateStats()
	if us.Batches != 1 || us.Revalidations == 0 {
		t.Errorf("UpdateStats = %+v, want 1 batch and a revalidation", us)
	}

	// The mutated engine must agree with a fresh engine over the same
	// (mutated) graph — the facade-level equivalence oracle. The engine
	// does not keep the caller's graph in step; the test does.
	g.AddSPO("dave", "livesIn", "paris")
	g.AddSPO("eve", "knows", "bob")
	g.Remove(rdf.Triple{S: g.Dict.EncodeIRI("bob"), P: g.Dict.EncodeIRI("livesIn"), O: g.Dict.EncodeIRI("paris")})
	fresh, err := NewEngine(g, Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		q,
		`SELECT ?p ?o WHERE { <alice> ?p ?o }`,
		`SELECT ?a WHERE { ?a <livesIn> <paris> }`,
	} {
		got, err := eng.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := fresh.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, wantRes.Rows) {
			t.Errorf("%s: mutated engine %v, fresh engine %v", src, got.Rows, wantRes.Rows)
		}
		if got.SimulatedTime != wantRes.SimulatedTime || got.Jobs != wantRes.Jobs {
			t.Errorf("%s: simulated stats diverge: %v/%d vs %v/%d",
				src, got.SimulatedTime, got.Jobs, wantRes.SimulatedTime, wantRes.Jobs)
		}
	}
}

func TestFacadeInsertDeleteSingles(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	br, err := eng.Insert(IRI("frank"), IRI("knows"), IRI("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if br.Inserted != 1 || br.DataVersion != 2 {
		t.Fatalf("Insert result = %+v", br)
	}
	// Deleting a triple that was never inserted (even with unknown
	// terms) is a no-op, not an error — and an effectively empty batch
	// commits no epoch, so cached plans need no revalidation.
	br, err = eng.Delete(IRI("nobody"), IRI("never"), Literal("x"))
	if err != nil {
		t.Fatal(err)
	}
	if br.Deleted != 0 || br.DataVersion != 2 {
		t.Fatalf("no-op Delete result = %+v, want no new epoch (version 2)", br)
	}
	br, err = eng.Delete(IRI("frank"), IRI("knows"), IRI("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if br.Deleted != 1 {
		t.Fatalf("Delete result = %+v", br)
	}
	res, err := eng.Query(`SELECT ?a WHERE { <frank> <knows> ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("deleted edge still answered: %v", res.Rows)
	}
	// Literal round-trip through a batch.
	if _, err := eng.ApplyBatch(new(Batch).InsertSPOLit("frank", "name", "Frank")); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(`SELECT ?n WHERE { <frank> <name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != `"Frank"` {
		t.Errorf("literal insert answered %v", res.Rows)
	}
}

// TestApplyBatchRejectsUnknownTermKind: a hand-built Term of no RDF
// kind has no rendered form of its own — filed under its bare Value it
// would share an id with whatever term that spells (here the blank
// node _:x, or the IRI <x>) and one of the two would render as the
// other. The batch is refused whole, before any term is encoded.
func TestApplyBatchRejectsUnknownTermKind(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	terms := eng.dict.Len()
	for name, bad := range map[string]*Batch{
		"insert": new(Batch).InsertSPO("new-s", "new-p", "new-o").Insert(IRI("alice"), IRI("knows"), Term{Kind: 9, Value: "_:x"}),
		"delete": new(Batch).InsertSPO("new-s", "new-p", "new-o").Delete(Term{Kind: 3, Value: "<x>"}, IRI("knows"), IRI("bob")),
	} {
		var ke *TermKindError
		if _, err := eng.ApplyBatch(bad); !errors.As(err, &ke) {
			t.Errorf("%s of a term with an unknown kind: err = %v, want a TermKindError", name, err)
		}
	}
	if eng.dict.Len() != terms || eng.DataVersion() != 1 {
		t.Errorf("refused batches left %d terms at version %d, want %d at 1 (nothing encoded, nothing committed)",
			eng.dict.Len(), eng.DataVersion(), terms)
	}
	// The terms the bad values spell stay what they are.
	if _, err := eng.Insert(rdf.NewBlank("x"), IRI("knows"), IRI("x")); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`SELECT ?a ?b WHERE { ?a <knows> ?b . ?a <knows> <x> }`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"_:x", "<x>"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

// TestPreparedSurvivesEpochs pins the holder contract: a Prepared
// obtained before a batch keeps running correctly afterwards (it
// executes against the then-current epoch and reports it).
func TestPreparedSurvivesEpochs(t *testing.T) {
	eng, err := NewEngine(socialGraph(), Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare(`SELECT ?a WHERE { ?a <livesIn> <paris> }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch(new(Batch).InsertSPO("carol", "livesIn", "paris")); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.DataVersion != 2 {
		t.Errorf("stale Prepared answered %d rows at version %d, want 3 at 2", len(res.Rows), res.DataVersion)
	}
}
