package csq

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// oracleQueries is the workload the equivalence oracle replays: the
// full LUBM mix plus shapes that stress the mutable partitioner's
// metadata (variable property, rdf:type with variable object, and the
// churn-inserted property).
func oracleQueries(t *testing.T) []*sparql.Query {
	t.Helper()
	qs := lubm.Queries()
	extra := []struct{ name, src string }{
		{"varprop", `SELECT ?p ?o WHERE { <http://www.University0.edu> ?p ?o }`},
		{"classes", `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
			SELECT ?x ?c WHERE { ?x rdf:type ?c }`},
		{"churnprop", `SELECT ?x ?y WHERE { ?x <urn:churn:collab> ?y }`},
	}
	for _, e := range extra {
		q, err := sparql.Parse(e.src)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		q.Name = e.name
		qs = append(qs, q)
	}
	return qs
}

// randomBatch builds a deterministic pseudo-random delta against g:
// deletions of existing triples and insertions mixing recycled deleted
// triples, new subjects under existing properties, a brand-new
// property, and a brand-new rdf:type class.
func randomBatch(rng *rand.Rand, g *rdf.Graph, round int) (ins, dels []rdf.Triple) {
	triples := g.Triples()
	for i := 0; i < 25 && len(triples) > 0; i++ {
		dels = append(dels, triples[rng.Intn(len(triples))])
	}
	// Recycle a few of this round's deletions as re-inserts (the engine
	// must handle delete+insert of the same triple in one batch).
	for i := 0; i < 5 && i < len(dels); i++ {
		ins = append(ins, dels[rng.Intn(len(dels))])
	}
	typeID := g.Dict.EncodeIRI(sparql.RDFType)
	collab := g.Dict.EncodeIRI("urn:churn:collab")
	for i := 0; i < 10; i++ {
		s := g.Dict.EncodeIRI(fmt.Sprintf("urn:churn:actor%d-%d", round, i))
		o := g.Dict.EncodeIRI(fmt.Sprintf("urn:churn:actor%d-%d", round, rng.Intn(10)))
		ins = append(ins, rdf.Triple{S: s, P: collab, O: o})
		if i%3 == 0 {
			cls := g.Dict.EncodeIRI(fmt.Sprintf("urn:churn:Role%d", rng.Intn(3)))
			ins = append(ins, rdf.Triple{S: s, P: typeID, O: cls})
		}
	}
	return ins, dels
}

// TestIncrementalMatchesFreshEngine is the acceptance oracle: after a
// randomized sequence of insert/delete batches over LUBM, the
// incrementally updated engine answers every workload query with rows
// AND simulated JobStats byte-identical to a fresh engine partitioned
// from scratch over the final (same) graph — through the plan cache,
// so epoch revalidation is on the tested path.
func TestIncrementalMatchesFreshEngine(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := New(g, DefaultConfig())
	qs := oracleQueries(t)

	// Warm the plan cache at the load epoch so later batches exercise
	// revalidation (not first-time planning).
	for _, q := range qs {
		if _, _, err := eng.PrepareCached(q); err != nil {
			t.Fatalf("warm %s: %v", q.Name, err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	rounds := 4
	for round := 1; round <= rounds; round++ {
		ins, dels := randomBatch(rng, g, round)
		br, err := eng.ApplyBatch(ins, dels)
		if err != nil {
			t.Fatalf("round %d: apply: %v", round, err)
		}
		if br.DataVersion != uint64(1+round) {
			t.Fatalf("round %d committed as version %d", round, br.DataVersion)
		}

		// Fresh engine over the mutated graph: the ground truth.
		mutate(g, ins, dels)
		fresh := New(g, DefaultConfig())
		check := qs
		if round < rounds {
			check = qs[round%len(qs) : round%len(qs)+3] // spot-check mid-sequence
		}
		for _, q := range check {
			p, _, err := eng.PrepareCached(q)
			if err != nil {
				t.Fatalf("round %d %s: prepare: %v", round, q.Name, err)
			}
			if p.DataVersion != br.DataVersion {
				t.Fatalf("round %d %s: plan validated at version %d, want %d",
					round, q.Name, p.DataVersion, br.DataVersion)
			}
			got, err := eng.ExecutePrepared(p)
			if err != nil {
				t.Fatalf("round %d %s: execute: %v", round, q.Name, err)
			}
			fp, err := fresh.Prepare(q)
			if err != nil {
				t.Fatalf("round %d %s: fresh prepare: %v", round, q.Name, err)
			}
			want, err := fresh.ExecutePrepared(fp)
			if err != nil {
				t.Fatalf("round %d %s: fresh execute: %v", round, q.Name, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("round %d %s: rows diverge: %d vs %d", round, q.Name, len(got.Rows), len(want.Rows))
			}
			if !reflect.DeepEqual(got.Jobs, want.Jobs) {
				t.Errorf("round %d %s: JobStats diverge:\n got %+v\nwant %+v", round, q.Name, got.Jobs, want.Jobs)
			}
			if got.DataVersion != br.DataVersion {
				t.Errorf("round %d %s: served version %d, want %d", round, q.Name, got.DataVersion, br.DataVersion)
			}
		}
	}
	us := eng.UpdateStats()
	if us.Batches != uint64(rounds) || us.Revalidations == 0 {
		t.Errorf("update stats = %+v, want %d batches and some revalidations", us, rounds)
	}
}

// TestConcurrentChurnSnapshotIsolation runs readers against a known
// alternating write sequence and asserts that every answer matches the
// expected row count OF ITS OWN DATA VERSION: a torn batch (some of a
// batch's triples visible without the rest) or a cross-epoch read
// would break the per-version count. Run under -race in CI.
func TestConcurrentChurnSnapshotIsolation(t *testing.T) {
	g := rdf.NewGraph()
	const base = 4
	for i := 0; i < base; i++ {
		g.AddSPO(fmt.Sprintf("a%d", i), "p", fmt.Sprintf("b%d", i))
		g.AddSPO(fmt.Sprintf("b%d", i), "q", fmt.Sprintf("c%d", i))
	}
	cfg := DefaultConfig()
	cfg.Nodes = 3
	eng := New(g, cfg)

	q := sparql.MustParse(`SELECT ?x ?z WHERE { ?x <p> ?y . ?y <q> ?z }`)
	q.Name = "churn-join"

	const batches = 12
	const perBatch = 2
	// expected[v-1] is the join row count at data version v: the base
	// pairs plus perBatch for every odd (insert) epoch.
	expected := make([]int, batches+1)
	for v := 1; v <= batches+1; v++ {
		n := base
		if v%2 == 0 { // versions 2,4,... are post-insert epochs
			n += perBatch
		}
		expected[v-1] = n
	}
	// The alternating batch payload: perBatch complete join pairs.
	var ins []rdf.Triple
	for j := 0; j < perBatch; j++ {
		x := g.Dict.EncodeIRI(fmt.Sprintf("x%d", j))
		y := g.Dict.EncodeIRI(fmt.Sprintf("y%d", j))
		z := g.Dict.EncodeIRI(fmt.Sprintf("z%d", j))
		p := g.Dict.EncodeIRI("p")
		qq := g.Dict.EncodeIRI("q")
		ins = append(ins, rdf.Triple{S: x, P: p, O: y}, rdf.Triple{S: y, P: qq, O: z})
	}

	var wg sync.WaitGroup
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started // let readers observe the load epoch first
		for b := 1; b <= batches; b++ {
			var br BatchResult
			var err error
			if b%2 == 1 {
				br, err = eng.ApplyBatch(ins, nil)
			} else {
				br, err = eng.ApplyBatch(nil, ins)
			}
			if err != nil {
				t.Errorf("batch %d: apply: %v", b, err)
				return
			}
			if br.DataVersion != uint64(b+1) {
				t.Errorf("batch %d committed as version %d", b, br.DataVersion)
				return
			}
			runtime.Gosched()
		}
	}()
	var startOnce sync.Once
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				startOnce.Do(func() { close(started) })
				p, _, err := eng.PrepareCached(q)
				if err != nil {
					t.Errorf("prepare: %v", err)
					return
				}
				res, err := eng.ExecutePrepared(p)
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				v := res.DataVersion
				if v < 1 || v > batches+1 {
					t.Errorf("answer from impossible version %d", v)
					return
				}
				if len(res.Rows) != expected[v-1] {
					t.Errorf("torn batch: version %d answered %d rows, want %d",
						v, len(res.Rows), expected[v-1])
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiescent check: the final epoch equals a fresh engine.
	res, err := eng.ExecutePrepared(mustPrepare(t, eng, q))
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(g, cfg)
	want, err := fresh.ExecutePrepared(mustPrepare(t, fresh, q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) || !reflect.DeepEqual(res.Jobs, want.Jobs) {
		t.Error("final epoch diverges from a fresh engine over the same graph")
	}
}

func mustPrepare(t *testing.T, e *Engine, q *sparql.Query) *Prepared {
	t.Helper()
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRevalidationKeepsPlanAcrossEpochs pins incremental revalidation:
// after an update whose statistics do not change the winning candidate,
// the cached entry keeps the same compiled plan object (no
// recompilation) and advances its version tag — without pricing when its
// statistics did not move (Q1 under a triple no pattern matches), by
// re-pricing its shape's plan space when they did. Q14's space holds 935
// candidates: it too is re-priced, never enumerated again.
func TestRevalidationKeepsPlanAcrossEpochs(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := DefaultConfig()
	eng := New(g, cfg)
	iri := g.Dict.EncodeIRI
	for _, tc := range []struct {
		query   string
		ins     rdf.Triple
		reprice bool
	}{
		{"Q1", rdf.Triple{S: iri("urn:x"), P: iri("urn:y"), O: iri("urn:z")}, false},
		{"Q14", rdf.Triple{S: iri("urn:x"), P: iri(sparql.RDFType), O: iri(lubm.ClassGraduate)}, true},
	} {
		q, err := lubm.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		p1, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		before := eng.UpdateStats()
		if _, err := eng.ApplyBatch([]rdf.Triple{tc.ins}, nil); err != nil {
			t.Fatal(err)
		}
		p2, hit, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("%s: revalidated entry no longer reported as a cache hit", tc.query)
		}
		if p2.Physical != p1.Physical {
			t.Errorf("%s: unchanged winning candidate was recompiled", tc.query)
		}
		if p2.DataVersion != eng.DataVersion() || p2.DataVersion == p1.DataVersion {
			t.Errorf("%s: version tag not refreshed: %d -> %d (engine at %d)",
				tc.query, p1.DataVersion, p2.DataVersion, eng.DataVersion())
		}
		if repriced := p2.stats != p1.stats; repriced != tc.reprice {
			t.Errorf("%s: re-priced = %v, want %v", tc.query, repriced, tc.reprice)
		}
		us := eng.UpdateStats()
		if us.Revalidations != before.Revalidations+1 || us.Replans != 0 || us.Enumerations != before.Enumerations {
			t.Errorf("%s: update stats %+v -> %+v, want one more revalidation, no replan, no enumeration", tc.query, before, us)
		}
	}
}

// TestRevalidationReplansWhenWinnerChanges grows the data six-fold under
// a cached Q11, whose cheapest candidate at one university is not its
// cheapest at six: the revalidation re-prices the one space the shape
// has, counts a replan, and serves the candidate, rows and JobStats of
// an engine loaded with the grown data.
func TestRevalidationReplansWhenWinnerChanges(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := New(g, DefaultConfig())
	q, err := lubm.Query("Q11")
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := eng.PrepareCached(q)
	if err != nil {
		t.Fatal(err)
	}
	big := lubm.Generate(lubm.DefaultConfig(6))
	var ins []rdf.Triple
	for _, tr := range big.Triples() {
		ins = append(ins, rdf.Triple{
			S: g.Dict.Encode(big.Dict.Term(tr.S)), P: g.Dict.Encode(big.Dict.Term(tr.P)), O: g.Dict.Encode(big.Dict.Term(tr.O)),
		})
	}
	if _, err := eng.ApplyBatch(ins, nil); err != nil {
		t.Fatal(err)
	}
	mutate(g, ins, nil)
	p2, _, err := eng.PrepareCached(q)
	if err != nil {
		t.Fatal(err)
	}
	loaded := New(g, DefaultConfig())
	fresh := mustPrepare(t, loaded, q)
	if p2.chosenIdx == p1.chosenIdx || p2.Physical == p1.Physical {
		t.Fatalf("candidate %d still wins after the data grew six-fold; the test assumes the winner moves", p1.chosenIdx)
	}
	if p2.chosenIdx != fresh.chosenIdx || p2.chosenCost != fresh.chosenCost || p2.Logical.Signature() != fresh.Logical.Signature() ||
		p2.Physical.Key() != fresh.Physical.Key() || p2.Height != fresh.Height {
		t.Errorf("revalidation chose candidate %d at cost %v, a fresh engine candidate %d at %v", p2.chosenIdx, p2.chosenCost, fresh.chosenIdx, fresh.chosenCost)
	}
	got, err := eng.ExecutePrepared(p2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loaded.ExecutePrepared(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Errorf("rows or JobStats differ from the loaded engine's (%d rows vs %d)", len(got.Rows), len(want.Rows))
	}
	if us := eng.UpdateStats(); us.Revalidations != 1 || us.Replans != 1 || us.Enumerations != 1 {
		t.Errorf("update stats %+v, want 1 revalidation, 1 replan, 1 enumeration", us)
	}
}
