package csq

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/wal"
)

// tripleSet canonicalizes a graph as a set of decoded term triples, so
// graphs with different TermID assignments compare by content.
func tripleSet(src cost.Source, d *rdf.Dict) map[[3]rdf.Term]bool {
	out := make(map[[3]rdf.Term]bool)
	src.EachTriple(rdf.NoTerm, func(t rdf.Triple) {
		out[[3]rdf.Term{d.Term(t.S), d.Term(t.P), d.Term(t.O)}] = true
	})
	return out
}

// stored copies the engine's current epoch into a graph over its
// dictionary: what the engine would have been loaded from.
func stored(e *Engine) *rdf.Graph {
	g := &rdf.Graph{Dict: e.dict}
	e.part.Current().EachTriple(rdf.NoTerm, func(t rdf.Triple) { g.Add(t) })
	return g
}

// mutate applies a batch to the test's own graph as the engine applies
// it to its store: deletes, then inserts.
func mutate(g *rdf.Graph, ins, dels []rdf.Triple) {
	g.RemoveBatch(dels)
	for _, t := range ins {
		g.Add(t)
	}
}

func durableOpts(fs *wal.MemFS) wal.Options {
	return wal.Options{Dir: "wal", FS: fs, CheckpointBytes: -1}
}

// TestDurableRecoveryMatchesPreCrashEngine is the crash-recovery
// oracle: after randomized churn over LUBM, the machine loses power
// (every unsynced byte is dropped) and the engine recovered from the
// WAL answers the full workload with rows AND JobStats byte-identical
// to the pre-crash engine — which requires the recovery to reproduce
// the exact TermID assignment and with it node placement.
func TestDurableRecoveryMatchesPreCrashEngine(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	fs := wal.NewMemFS()
	cfg := DefaultConfig()
	eng, err := NewDurable(g, cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	qs := oracleQueries(t)

	rng := rand.New(rand.NewSource(11))
	for round := 1; round <= 3; round++ {
		ins, dels := randomBatch(rng, g, round)
		br, err := eng.ApplyBatch(ins, dels)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if br.DataVersion != uint64(1+round) {
			t.Fatalf("round %d committed as version %d", round, br.DataVersion)
		}
		if br.Commit.GroupSize != 1 {
			t.Fatalf("round %d: group size %d for a lone caller", round, br.Commit.GroupSize)
		}
		mutate(g, ins, dels)
	}
	ver := eng.DataVersion()
	want := make(map[string]*struct {
		rows, jobs interface{}
	}, len(qs))
	for _, q := range qs {
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		res, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want[q.Name] = &struct{ rows, jobs interface{} }{res.Rows, res.Jobs}
	}

	// Power loss: unsynced bytes vanish, the engine is abandoned
	// without Close. Every acknowledged batch was fsynced, so recovery
	// must reproduce the exact pre-crash epoch.
	fs.CrashNow(wal.CrashDrop)
	fs.Reboot()
	rec, err := OpenDurable(cfg, durableOpts(fs))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if got := rec.DataVersion(); got != ver {
		t.Fatalf("recovered at epoch %d, crashed at %d", got, ver)
	}
	if !reflect.DeepEqual(tripleSet(rec.part.Current(), rec.dict), tripleSet(g, g.Dict)) {
		t.Fatal("recovered graph diverges from the pre-crash graph")
	}
	for _, q := range qs {
		p, _, err := rec.PrepareCached(q)
		if err != nil {
			t.Fatalf("recovered %s: %v", q.Name, err)
		}
		res, err := rec.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("recovered %s: %v", q.Name, err)
		}
		if !reflect.DeepEqual(res.Rows, want[q.Name].rows) {
			t.Errorf("%s: recovered rows diverge from pre-crash rows", q.Name)
		}
		if !reflect.DeepEqual(res.Jobs, want[q.Name].jobs) {
			t.Errorf("%s: recovered JobStats diverge from pre-crash JobStats", q.Name)
		}
		if res.DataVersion != ver {
			t.Errorf("%s: served from epoch %d, want %d", q.Name, res.DataVersion, ver)
		}
	}

	// Writes continue the epoch sequence where the crash left it.
	ins, dels := randomBatch(rng, stored(rec), 99)
	br, err := rec.ApplyBatch(ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	if br.DataVersion != ver+1 {
		t.Fatalf("post-recovery batch committed as %d, want %d", br.DataVersion, ver+1)
	}
}

// durableBase is the seed graph of the crash-matrix script.
func durableBase() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddSPO("urn:a", "urn:p", "urn:b")
	g.AddSPO("urn:b", "urn:p", "urn:c")
	return g
}

// scriptBatch is batch i of the deterministic crash-matrix script:
// three fresh triples in, the first triple of the previous batch out.
func scriptBatch(d *rdf.Dict, i int) (ins, dels []rdf.Triple) {
	p := d.EncodeIRI("urn:p")
	for j := 0; j < 3; j++ {
		ins = append(ins, rdf.Triple{
			S: d.EncodeIRI(fmt.Sprintf("urn:s%d-%d", i, j)),
			P: p,
			O: d.EncodeIRI(fmt.Sprintf("urn:o%d-%d", i, j)),
		})
	}
	if i > 1 {
		dels = append(dels, rdf.Triple{
			S: d.EncodeIRI(fmt.Sprintf("urn:s%d-0", i-1)),
			P: p,
			O: d.EncodeIRI(fmt.Sprintf("urn:o%d-0", i-1)),
		})
	}
	return ins, dels
}

const crashScriptBatches = 5

// crashScriptCfg keeps the matrix's many engines small.
func crashScriptCfg() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	return cfg
}

// runCrashScript drives the scripted batch history against fs and
// reports which epochs were acknowledged, and the log's statistics.
// Errors after engine construction are expected (an armed crash poisons
// the log); the script carries on so later fault points are reached in
// rehearsal. It compacts after batches 1 to 3, so the fault points of
// deltas and of full bases are in the matrix: against the two-triple
// initial base, the first delta would outweigh it and folds into a base
// instead; the next is a delta on that base, and the one after that a
// base again.
func runCrashScript(fs *wal.MemFS) (acked []uint64, st wal.Stats, err error) {
	g := durableBase()
	eng, err := NewDurable(g, crashScriptCfg(), durableOpts(fs))
	if err != nil {
		return nil, st, err
	}
	defer eng.Close()
	for i := 1; i <= crashScriptBatches; i++ {
		ins, dels := scriptBatch(g.Dict, i)
		if br, err := eng.ApplyBatch(ins, dels); err == nil {
			acked = append(acked, br.DataVersion)
		}
		if i <= 3 {
			_ = eng.Compact()
		}
	}
	return acked, eng.DurabilityStats().Log, nil
}

// expectedStates returns the scripted triple set at every possible
// epoch: states[e-1] is the content of epoch e (epoch 1 is the load).
func expectedStates() []map[[3]rdf.Term]bool {
	g := durableBase()
	states := []map[[3]rdf.Term]bool{tripleSet(g, g.Dict)}
	for i := 1; i <= crashScriptBatches; i++ {
		ins, dels := scriptBatch(g.Dict, i)
		mutate(g, ins, dels)
		states = append(states, tripleSet(g, g.Dict))
	}
	return states
}

// TestDurableCrashMatrix crashes the filesystem at every mutating
// operation of the scripted history, under every durability mode, and
// asserts the recovered engine (a) retains every acknowledged epoch,
// (b) holds exactly the scripted content of whatever epoch it
// recovered to (an unacknowledged tail batch may legitimately survive
// when its bytes landed before the crash), and (c) accepts the next
// epoch in sequence.
func TestDurableCrashMatrix(t *testing.T) {
	rehearse := wal.NewMemFS()
	acked, st, err := runCrashScript(rehearse)
	if err != nil || len(acked) != crashScriptBatches {
		t.Fatalf("rehearsal: acked %v, err %v", acked, err)
	}
	if st.Deltas < 1 || st.Checkpoints-st.Deltas < 1 {
		t.Fatalf("rehearsal wrote %d checkpoints of which %d deltas; want a delta and a base", st.Checkpoints, st.Deltas)
	}
	total := rehearse.Ops()
	states := expectedStates()

	for n := 1; n <= total; n++ {
		for _, mode := range wal.CrashModes {
			name := fmt.Sprintf("op%d/%s", n, mode)
			fs := wal.NewMemFS()
			fs.SetCrashAt(n, mode)
			acked, _, _ := runCrashScript(fs)
			if !fs.Down() {
				t.Fatalf("%s: script finished without tripping the armed crash", name)
			}
			fs.Reboot()

			rec, err := OpenDurable(crashScriptCfg(), durableOpts(fs))
			if err != nil {
				if errors.Is(err, wal.ErrNoState) && len(acked) == 0 {
					continue // crashed before the log ever existed
				}
				t.Fatalf("%s: recovery failed with %d acked epochs: %v", name, len(acked), err)
			}
			var maxAcked uint64
			for _, v := range acked {
				if v > maxAcked {
					maxAcked = v
				}
			}
			e := rec.DataVersion()
			if e < maxAcked {
				t.Fatalf("%s: recovered epoch %d lost acked epoch %d", name, e, maxAcked)
			}
			if e < 1 || e > uint64(len(states)) {
				t.Fatalf("%s: recovered impossible epoch %d", name, e)
			}
			if !reflect.DeepEqual(tripleSet(rec.part.Current(), rec.dict), states[e-1]) {
				t.Fatalf("%s: recovered epoch %d does not hold the scripted content", name, e)
			}
			ins, dels := scriptBatch(rec.dict, 77)
			br, err := rec.ApplyBatch(ins, dels)
			if err != nil {
				t.Fatalf("%s: post-recovery batch: %v", name, err)
			}
			if br.DataVersion != e+1 {
				t.Fatalf("%s: post-recovery batch committed as %d, want %d", name, br.DataVersion, e+1)
			}
			rec.Close()
		}
	}
}

// reopenMatches closes a durable engine and requires the engine
// recovered from its log to stand at the same epoch with the same
// content.
func reopenMatches(t *testing.T, eng *Engine, cfg Config, fs *wal.MemFS) {
	t.Helper()
	final, ver := tripleSet(eng.part.Current(), eng.dict), eng.DataVersion()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DataVersion() != ver {
		t.Errorf("recovered epoch %d, want %d", rec.DataVersion(), ver)
	}
	if !reflect.DeepEqual(tripleSet(rec.part.Current(), rec.dict), final) {
		t.Error("the committed state did not survive close and reopen")
	}
}

// TestDurableGroupCommitCoalesces checks that callers queued behind a
// flush in flight share the next epoch — and, with a log, its record and
// fsync: on either engine, with the writer held by a plug, eight callers
// queue and then commit as one group of eight at the epoch after the
// plug's, and the grouped epoch survives a clean close and reopen.
func TestDurableGroupCommitCoalesces(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			g := durableBase()
			fs := wal.NewMemFS()
			cfg := crashScriptCfg()
			eng := newKind(t, kind, g, cfg, fs)
			defer eng.Close()

			const callers = 8
			p := g.Dict.EncodeIRI("urn:p")
			triple := func(s, o string) rdf.Triple {
				return rdf.Triple{S: g.Dict.EncodeIRI(s), P: p, O: g.Dict.EncodeIRI(o)}
			}
			await, release := plugWriter(t, eng, func() error {
				_, err := eng.ApplyBatch([]rdf.Triple{triple("urn:plug", "urn:plugged")}, nil)
				return err
			})
			triples := make([]rdf.Triple, callers)
			results := make([]BatchResult, callers)
			var wg sync.WaitGroup
			for i := range triples {
				triples[i] = triple(fmt.Sprintf("urn:c%d", i), fmt.Sprintf("urn:d%d", i))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var err error
					if results[i], err = eng.ApplyBatch([]rdf.Triple{triples[i]}, nil); err != nil {
						t.Errorf("caller %d: %v", i, err)
					}
				}(i)
			}
			await("every caller to queue", func() bool { return eng.queued() == callers })
			release()
			wg.Wait()

			for i, br := range results {
				if br.DataVersion != 3 || br.Commit.GroupSize != callers || br.Inserted != 1 {
					t.Errorf("caller %d: epoch %d in a group of %d (inserted %d), want epoch 3 in a group of %d",
						i, br.DataVersion, br.Commit.GroupSize, br.Inserted, callers)
				}
				if !eng.part.Current().Contains(triples[i]) {
					t.Errorf("caller %d's insert missing from the graph", i)
				}
			}
			if ds := eng.DurabilityStats(); ds.Groups != 2 || ds.GroupedCallers != callers+1 {
				t.Errorf("%d groups carried %d callers, want 2 carrying %d", ds.Groups, ds.GroupedCallers, callers+1)
			}
			if eng.DataVersion() != 3 {
				t.Errorf("engine at epoch %d, want 3", eng.DataVersion())
			}
			if kind == "durable" {
				reopenMatches(t, eng, cfg, fs)
			}
		})
	}
}

// TestDurableGroupInsertDeleteConflict commits an insert and a delete
// of the same never-stored triple in one group, queued in each order
// behind a plug. Insert then delete nets out: each caller counts its
// operation, but the group commits no epoch and must not panic the
// partitioner (the net delta may not delete a row that was never
// stored). Delete then insert commits the insert alone. On a log the
// recovered state equals the in-memory outcome.
func TestDurableGroupInsertDeleteConflict(t *testing.T) {
	for _, kind := range engineKinds {
		for _, insertFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/insertFirst=%v", kind, insertFirst), func(t *testing.T) {
				g := durableBase()
				fs := wal.NewMemFS()
				cfg := crashScriptCfg()
				eng := newKind(t, kind, g, cfg, fs)
				defer eng.Close()
				p := g.Dict.EncodeIRI("urn:p")
				tr := rdf.Triple{S: g.Dict.EncodeIRI("urn:x"), P: p, O: g.Dict.EncodeIRI("urn:y")}
				plug := rdf.Triple{S: g.Dict.EncodeIRI("urn:plug"), P: p, O: g.Dict.EncodeIRI("urn:plugged")}
				await, release := plugWriter(t, eng, func() error {
					_, err := eng.ApplyBatch([]rdf.Triple{plug}, nil)
					return err
				})
				ops := [][2][]rdf.Triple{{{tr}, nil}, {nil, {tr}}} // {inserts, deletes}
				if !insertFirst {
					ops[0], ops[1] = ops[1], ops[0]
				}
				results := make([]BatchResult, len(ops))
				var wg sync.WaitGroup
				for i, op := range ops {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var err error
						if results[i], err = eng.ApplyBatch(op[0], op[1]); err != nil {
							t.Errorf("apply: %v", err)
						}
					}()
					await("the operation to queue", func() bool { return eng.queued() == i+1 })
				}
				release()
				wg.Wait()

				// The plug committed epoch 2. Each operation counts against
				// the group's running state: [inserted, deleted].
				wantVer, wantHas, want := uint64(2), false, [][2]int{{1, 0}, {0, 1}}
				if !insertFirst {
					wantVer, wantHas, want = 3, true, [][2]int{{0, 0}, {1, 0}}
				}
				for i, br := range results {
					if br.DataVersion != wantVer || br.Commit.GroupSize != 2 || [2]int{br.Inserted, br.Deleted} != want[i] {
						t.Errorf("operation %d: epoch %d in a group of %d, counted %d/%d; want epoch %d in a group of 2, counted %d/%d",
							i, br.DataVersion, br.Commit.GroupSize, br.Inserted, br.Deleted, wantVer, want[i][0], want[i][1])
					}
				}
				if has := eng.part.Current().Contains(tr); has != wantHas || eng.DataVersion() != wantVer {
					t.Errorf("engine at epoch %d holding the triple: %v; want epoch %d, %v", eng.DataVersion(), has, wantVer, wantHas)
				}
				if kind == "durable" {
					reopenMatches(t, eng, cfg, fs)
				}
			})
		}
	}
}

// TestDurableSyncFailureKeepsServingReads injects one fsync error:
// the failed batch and every later write must report the sticky log
// failure and leave no trace in memory, while reads keep serving the
// last durable epoch.
func TestDurableSyncFailureKeepsServingReads(t *testing.T) {
	g := durableBase()
	fs := wal.NewMemFS()
	eng, err := NewDurable(g, crashScriptCfg(), durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ins1, dels1 := scriptBatch(g.Dict, 1)
	if _, err := eng.ApplyBatch(ins1, dels1); err != nil {
		t.Fatal(err)
	}
	ver := eng.DataVersion()

	q := sparql.MustParse(`SELECT ?s ?o WHERE { ?s <urn:p> ?o }`)
	q.Name = "sync-fail-probe"
	probe := func() int {
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		res, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		if res.DataVersion != ver {
			t.Fatalf("served epoch %d, want %d", res.DataVersion, ver)
		}
		return len(res.Rows)
	}
	rows := probe()

	fs.FailSyncAt(1)
	ins2, dels2 := scriptBatch(g.Dict, 2)
	if _, err := eng.ApplyBatch(ins2, dels2); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("batch over failed fsync: err = %v, want ErrInjected", err)
	}
	// The injector disarmed after one failure, but the log failure is
	// sticky: later writes and checkpoints keep reporting it.
	ins3, dels3 := scriptBatch(g.Dict, 3)
	if _, err := eng.ApplyBatch(ins3, dels3); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("write after log failure: err = %v, want sticky ErrInjected", err)
	}
	if err := eng.Compact(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("compact after log failure: err = %v, want sticky ErrInjected", err)
	}
	if eng.DataVersion() != ver {
		t.Fatalf("failed batch moved the epoch to %d", eng.DataVersion())
	}
	if got := probe(); got != rows {
		t.Fatalf("reads perturbed by the failed write: %d rows, want %d", got, rows)
	}
}

// TestClosedEngineReturnsErrClosed pins the typed error on every entry
// point after Close, on a plain in-memory engine.
func TestClosedEngineReturnsErrClosed(t *testing.T) {
	g := durableBase()
	eng := New(g, crashScriptCfg())
	q := sparql.MustParse(`SELECT ?s WHERE { ?s <urn:p> ?o }`)
	q.Name = "closed-probe"
	p := mustPrepare(t, eng, q)

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	ins, _ := scriptBatch(g.Dict, 1)
	if _, err := eng.ApplyBatch(ins, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("ApplyBatch after close: %v", err)
	}
	if _, _, err := eng.PrepareCached(q); !errors.Is(err, ErrClosed) {
		t.Errorf("PrepareCached after close: %v", err)
	}
	if _, err := eng.Prepare(q); !errors.Is(err, ErrClosed) {
		t.Errorf("Prepare after close: %v", err)
	}
	if _, err := eng.ExecutePrepared(p); !errors.Is(err, ErrClosed) {
		t.Errorf("ExecutePrepared after close: %v", err)
	}
	if err := eng.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after close: %v", err)
	}
}

// TestDurableCloseDrainsQueue races Close against concurrent writers on
// either engine: every caller must get either a commit or ErrClosed
// (never a hang or a lost ack), and the engine after Close — and, with a
// log, the engine reopened from it — must hold exactly the base plus the
// acknowledged inserts.
func TestDurableCloseDrainsQueue(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			g := durableBase()
			fs := wal.NewMemFS()
			cfg := crashScriptCfg()
			eng := newKind(t, kind, g, cfg, fs)
			base := tripleSet(g, g.Dict)

			const callers = 16
			p := g.Dict.EncodeIRI("urn:p")
			triples := make([]rdf.Triple, callers)
			for i := range triples {
				triples[i] = rdf.Triple{
					S: g.Dict.EncodeIRI(fmt.Sprintf("urn:race%d", i)),
					P: p,
					O: g.Dict.EncodeIRI(fmt.Sprintf("urn:target%d", i)),
				}
			}
			ackedCh := make(chan rdf.Triple, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					_, err := eng.ApplyBatch([]rdf.Triple{triples[i]}, nil)
					switch {
					case err == nil:
						ackedCh <- triples[i]
					case errors.Is(err, ErrClosed):
					default:
						t.Errorf("caller %d: unexpected error %v", i, err)
					}
				}(i)
			}
			close(start)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			atClose := tripleSet(eng.part.Current(), eng.dict)
			wg.Wait()
			close(ackedCh)

			want := base
			for tr := range ackedCh {
				want[[3]rdf.Term{g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O)}] = true
			}
			if _, err := eng.ApplyBatch(triples[:1], nil); !errors.Is(err, ErrClosed) {
				t.Errorf("ApplyBatch after close: %v", err)
			}
			if !reflect.DeepEqual(atClose, want) {
				t.Errorf("engine held %d triples at Close, want base plus the %d acked inserts", len(atClose), len(want)-len(base))
			}
			if kind == "memory" {
				return
			}
			rec, err := OpenDurable(cfg, durableOpts(fs))
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if !reflect.DeepEqual(tripleSet(rec.part.Current(), rec.dict), want) {
				t.Errorf("recovered %d triples, want base plus the %d acked inserts",
					rec.part.Current().NumTriples(), len(want)-len(base))
			}
		})
	}
}

// TestCompactorReclaimsLogSpace pins the GC contract: churn grows the
// log; while a reader holds an old epoch pinned, checkpoints rotate
// but collect nothing (the pinned epoch must stay reconstructible);
// once the pin is released the next checkpoint reclaims the churn.
func TestCompactorReclaimsLogSpace(t *testing.T) {
	g := durableBase()
	fs := wal.NewMemFS()
	cfg := crashScriptCfg()
	eng, err := NewDurable(g, cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pinned := eng.part.Pin(eng.part.Current()) // a reader parked at the load epoch
	p := g.Dict.EncodeIRI("urn:p")
	for r := 0; r < 4; r++ {
		var ins []rdf.Triple
		for j := 0; j < 100; j++ {
			ins = append(ins, rdf.Triple{
				S: g.Dict.EncodeIRI(fmt.Sprintf("urn:churn%d-%d", r, j)),
				P: p,
				O: g.Dict.EncodeIRI(fmt.Sprintf("urn:gone%d-%d", r, j)),
			})
		}
		if _, err := eng.ApplyBatch(ins, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyBatch(nil, ins); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	st := eng.DurabilityStats()
	if st.Log.RemovedFiles != 0 {
		t.Fatalf("GC removed %d files needed by the pinned epoch-%d reader",
			st.Log.RemovedFiles, pinned.Version())
	}
	if st.Log.Checkpoints < 2 {
		t.Fatalf("only %d checkpoints written", st.Log.Checkpoints)
	}
	peak := st.LiveBytes

	eng.part.Unpin(pinned)
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	st = eng.DurabilityStats()
	if st.Log.RemovedFiles == 0 {
		t.Error("GC reclaimed nothing after the pin was released")
	}
	if st.LiveBytes >= peak {
		t.Errorf("live log bytes did not shrink: %d -> %d", peak, st.LiveBytes)
	}

	// The compacted log still recovers the exact final state.
	final := tripleSet(eng.part.Current(), eng.dict)
	ver := eng.DataVersion()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.DataVersion() != ver || !reflect.DeepEqual(tripleSet(rec.part.Current(), rec.dict), final) {
		t.Errorf("recovery after GC diverges: epoch %d vs %d", rec.DataVersion(), ver)
	}
}

// steadyChurn builds a durable engine over LUBM at univ universities in
// state A = G − D1 and applies ten commits that alternate B = G − D0
// and A (D0, D1 disjoint samples of 50 triples: each commit deletes one
// and inserts the other, minting no term), then compacts. It returns
// the checkpoint bytes that compaction wrote and the log's statistics.
func steadyChurn(t *testing.T, univ int) (int64, wal.Stats) {
	t.Helper()
	g := lubm.Generate(lubm.DefaultConfig(univ))
	all := g.Triples()
	idx := rand.New(rand.NewSource(5)).Perm(len(all))[:100]
	var d0, d1 []rdf.Triple
	for i, k := range idx {
		if i < 50 {
			d0 = append(d0, all[k])
		} else {
			d1 = append(d1, all[k])
		}
	}
	g.RemoveBatch(d1)
	eng, err := NewDurable(g, crashScriptCfg(), durableOpts(wal.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.DurabilityStats().Log
	for i := 0; i < 10; i++ {
		ins, dels := d1, d0
		if i%2 == 1 {
			ins, dels = d0, d1
		}
		if br, err := eng.ApplyBatch(ins, dels); err != nil || br.Inserted != 50 || br.Deleted != 50 {
			t.Fatalf("univ %d, commit %d: %+v, %v", univ, i, br, err)
		}
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	after := eng.DurabilityStats().Log
	return after.CheckpointBytes - before.CheckpointBytes, after
}

// TestCompactionBytesIndependentOfSize: under steady-size churn a
// checkpoint costs what changed since the base — nothing, here — so
// the same churn over two store sizes writes identical checkpoint
// bytes: one delta with no term and no triple.
func TestCompactionBytesIndependentOfSize(t *testing.T) {
	small, st1 := steadyChurn(t, 1)
	large, st2 := steadyChurn(t, 2)
	if small != large {
		t.Errorf("compaction wrote %d bytes at univ 1 and %d at univ 2", small, large)
	}
	for _, st := range []wal.Stats{st1, st2} {
		if st.Checkpoints != 1 || st.Deltas != 1 {
			t.Errorf("%d checkpoints of which %d deltas, want one delta", st.Checkpoints, st.Deltas)
		}
	}
	if small > 64 {
		t.Errorf("an empty delta took %d bytes", small)
	}
}

// TestChurnRecordBytes pins what a commit writes to the log on the
// benchmark's churn stream, at univ 20: LUBM drawn from seed 42, two
// disjoint samples D0, D1 of 200 triples drawn by a rand source seeded
// 43, the store loaded without D1, and commits alternating D0 → D1 and
// back, each deleting one sample and inserting the other. Every record
// must take at most 2,418 bytes, half of the 4,836 that listing each
// triple as three fixed-width ids took.
func TestChurnRecordBytes(t *testing.T) {
	const batch, commits = 200, 10
	cfg := lubm.DefaultConfig(20)
	cfg.Seed = 42
	g := lubm.Generate(cfg)
	all := g.Triples()
	idx := rand.New(rand.NewSource(43)).Perm(len(all))[:2*batch]
	var d0, d1 []rdf.Triple
	for i, k := range idx {
		if i < batch {
			d0 = append(d0, all[k])
		} else {
			d1 = append(d1, all[k])
		}
	}
	g.RemoveBatch(d1)
	eng, err := NewDurable(g, DefaultConfig(), durableOpts(wal.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.DurabilityStats().Log
	for i := 0; i < commits; i++ {
		ins, dels := d1, d0
		if i%2 == 1 {
			ins, dels = d0, d1
		}
		if br, err := eng.ApplyBatch(ins, dels); err != nil || br.Inserted != batch || br.Deleted != batch {
			t.Fatalf("commit %d: %+v, %v", i, br, err)
		}
	}
	st := eng.DurabilityStats().Log
	records := int64(st.Records - before.Records)
	perRecord := (st.AppendedBytes - before.AppendedBytes) / records
	// Frame, epoch, topology, first term, three u32 counts (terms,
	// inserts, deletes) and three u32 ids per triple.
	const fixedWidth = 8 + 8 + 4 + 4 + 3*4 + 12*2*batch
	t.Logf("%d records of %d triples: %d bytes each (%.2f per triple); three fixed-width ids a triple: %d",
		records, 2*batch, perRecord, float64(perRecord)/(2*batch), fixedWidth)
	if records != commits || perRecord > fixedWidth/2 {
		t.Errorf("%d records of %d bytes each, want %d of at most %d", records, perRecord, commits, fixedWidth/2)
	}
}

// TestReshardThenDeltaRecovers: a delta folded over a resize carries
// the new topology. The base was written at the load size and the
// records after the delta are plain batches, so an engine recovered at
// the resized topology took it from the delta.
func TestReshardThenDeltaRecovers(t *testing.T) {
	fs := wal.NewMemFS()
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := ringConfig()
	eng, err := NewDurable(g, cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	batch := func() {
		ins, dels := randomBatch(rng, g, 1)
		if _, err := eng.ApplyBatch(ins, dels); err != nil {
			t.Fatal(err)
		}
		mutate(g, ins, dels)
	}
	batch()
	if _, err := eng.AddNodes(3); err != nil {
		t.Fatal(err)
	}
	batch()
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := eng.DurabilityStats().Log; st.Deltas != 1 {
		t.Fatalf("compaction wrote %d deltas of %d checkpoints, want a delta", st.Deltas, st.Checkpoints)
	}
	batch()
	ver, nodes := eng.DataVersion(), eng.Nodes()
	fs.CrashNow(wal.CrashDrop)
	fs.Reboot()
	eng.Close()

	rec, err := OpenDurable(cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Nodes() != nodes || nodes == cfg.Nodes {
		t.Errorf("recovered on %d nodes, want %d (loaded on %d)", rec.Nodes(), nodes, cfg.Nodes)
	}
	if rec.DataVersion() != ver {
		t.Errorf("recovered at epoch %d, want %d", rec.DataVersion(), ver)
	}
	if !reflect.DeepEqual(tripleSet(rec.part.Current(), rec.dict), tripleSet(g, g.Dict)) {
		t.Error("recovered content diverges from the pre-crash content")
	}
}

// TestGraphKeepsInsertionOrder: the log sorts the lists of the records
// it is handed in place (wal.Create, Append, WriteCheckpoint), and the
// engine hands it lists of its own. Building an engine over a graph,
// with a log and without, a commit whose deletes are a stretch of the
// graph's own slice, and a Compact leave the graph's triples element for
// element in insertion order.
func TestGraphKeepsInsertionOrder(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	want := slices.Clone(g.Triples())
	if slices.IsSortedFunc(want, wal.Compare) {
		t.Fatal("the graph's triples are in the log's order already: a sort in place would not show")
	}
	check := func(step string) {
		t.Helper()
		if !slices.Equal(g.Triples(), want) {
			t.Fatalf("%s reordered the graph's triples", step)
		}
	}
	New(g, DefaultConfig()).Close()
	check("New")
	eng, err := NewDurable(g, DefaultConfig(), durableOpts(wal.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	check("NewDurable")
	ts := g.Triples()
	ins := []rdf.Triple{{S: ts[1].O, P: ts[0].P, O: ts[0].S}, {S: ts[0].O, P: ts[1].P, O: ts[1].S}}
	if _, err := eng.ApplyBatch(ins, ts[len(ts)-40:]); err != nil {
		t.Fatal(err)
	}
	check("a commit")
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact")
}
