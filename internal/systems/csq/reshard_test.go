package csq

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/wal"
)

// ringConfig is the elastic test configuration: consistent-hash
// placement over the paper's 7 nodes.
func ringConfig() Config {
	cfg := DefaultConfig()
	cfg.Placement = "ring"
	return cfg
}

// TestElasticGrowShrinkOracle is the acceptance oracle: grow 7→10,
// shrink 10→5, with concurrent readers executing pinned plans the whole
// time under -race. The graph never changes, so every read — before,
// during, or after either reshard — must return exactly the load-time
// rows; at the end, rows AND simulated JobStats must be byte-identical
// to a fresh engine built at 5 nodes.
func TestElasticGrowShrinkOracle(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := New(g, ringConfig())
	qs := oracleQueries(t)

	// Pre-prepare every query and pin the expected rows. Executions of
	// an already-prepared plan read the epoch they pin, so readers keep
	// serving while a reshard moves the data.
	plans := make([]*Prepared, len(qs))
	expected := make([]int, len(qs))
	for i, q := range qs {
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		plans[i] = p
		r, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
		expected[i] = len(r.Rows)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (i + w) % len(qs)
				r, err := eng.ExecutePrepared(plans[qi])
				if err != nil {
					t.Errorf("reader: %s: %v", qs[qi].Name, err)
					return
				}
				if len(r.Rows) != expected[qi] {
					t.Errorf("reader: %s answered %d rows mid-reshard, want %d",
						qs[qi].Name, len(r.Rows), expected[qi])
					return
				}
			}
		}(w)
	}

	// Each resize must move data, and no more than twice the
	// consistent-hashing ideal |ΔN|/max(From, To).
	checkMoved := func(what string, rr ReshardResult, ideal float64) {
		t.Helper()
		if rr.MovedRows == 0 {
			t.Errorf("%s moved no rows", what)
		}
		if rr.MovedFraction > 2*ideal {
			t.Errorf("%s moved %.2f of rows, ideal %.2f", what, rr.MovedFraction, ideal)
		}
	}
	grow, err := eng.AddNodes(3)
	if err != nil {
		t.Fatalf("AddNodes(3): %v", err)
	}
	if grow.From != 7 || grow.To != 10 || grow.TopologyVersion != 1 {
		t.Fatalf("grow = %+v", grow)
	}
	checkMoved("grow", grow, 3.0/10.0)
	shrink, err := eng.RemoveNodes(5)
	if err != nil {
		t.Fatalf("RemoveNodes(5): %v", err)
	}
	if shrink.From != 10 || shrink.To != 5 || shrink.TopologyVersion != 2 {
		t.Fatalf("shrink = %+v", shrink)
	}
	checkMoved("shrink", shrink, 5.0/10.0)
	close(stop)
	wg.Wait()

	if eng.Nodes() != 5 || eng.TopologyVersion() != 2 {
		t.Fatalf("engine at %d nodes topo %d, want 5/2", eng.Nodes(), eng.TopologyVersion())
	}

	// Endpoint equivalence: rows AND JobStats vs a fresh 5-node engine.
	cfg5 := ringConfig()
	cfg5.Nodes = 5
	fresh := New(g, cfg5)
	for i, q := range qs {
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatalf("%s: re-prepare: %v", q.Name, err)
		}
		got, err := eng.ExecutePrepared(p)
		if err != nil {
			t.Fatalf("%s: execute: %v", q.Name, err)
		}
		fp, err := fresh.Prepare(q)
		if err != nil {
			t.Fatalf("%s: fresh prepare: %v", q.Name, err)
		}
		want, err := fresh.ExecutePrepared(fp)
		if err != nil {
			t.Fatalf("%s: fresh execute: %v", q.Name, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: rows diverge from fresh 5-node engine (%d vs %d)",
				q.Name, len(got.Rows), len(want.Rows))
		}
		if !reflect.DeepEqual(got.Jobs, want.Jobs) {
			t.Errorf("%s: JobStats diverge from fresh 5-node engine:\n got %+v\nwant %+v",
				q.Name, got.Jobs, want.Jobs)
		}
		_ = i
	}
}

// TestModuloReshardEquivalence: elasticity is not ring-only — the
// default modulo policy reshards too (moving more data), with the same
// fresh-engine equivalence at the endpoint.
func TestModuloReshardEquivalence(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := New(g, DefaultConfig())
	if _, err := eng.AddNodes(2); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	cfg9 := DefaultConfig()
	cfg9.Nodes = 9
	fresh := New(g, cfg9)
	q, err := lubm.Query("Q2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ExecutePrepared(mustPrepare(t, eng, q))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ExecutePrepared(mustPrepare(t, fresh, q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Error("modulo reshard diverges from fresh engine at the new size")
	}
}

// TestReshardCacheInvalidation is the topology-change cache oracle:
// plans and subplan results cached at the old topology are never served
// after AddNodes/RemoveNodes — every answer matches a fresh engine at
// the new size, and the result cache is purged by the reshard exactly
// like the commit paths purge it.
func TestReshardCacheInvalidation(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := ringConfig()
	cfg.ResultCacheBytes = testRescacheBytes
	eng := New(g, cfg)
	qs := oracleQueries(t)

	// Warm both caches at the load topology.
	runWorkload(t, eng)
	if st := eng.ResultCacheStats(); st.Entries == 0 {
		t.Fatal("warm-up cached nothing")
	}

	for round, resize := range []int{+3, -5} {
		var err error
		if resize > 0 {
			_, err = eng.AddNodes(resize)
		} else {
			_, err = eng.RemoveNodes(-resize)
		}
		if err != nil {
			t.Fatalf("round %d: resize %+d: %v", round, resize, err)
		}
		if st := eng.ResultCacheStats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("round %d: reshard left %d stale entries (%d bytes) resident", round, st.Entries, st.Bytes)
		}
		freshCfg := ringConfig()
		freshCfg.Nodes = eng.Nodes()
		fresh := New(g, freshCfg)
		ver := eng.DataVersion()
		for _, q := range qs {
			p, _, err := eng.PrepareCached(q)
			if err != nil {
				t.Fatalf("round %d %s: prepare: %v", round, q.Name, err)
			}
			if p.DataVersion != ver {
				t.Errorf("round %d %s: plan validated at version %d, want %d", round, q.Name, p.DataVersion, ver)
			}
			// First execution repopulates the cache at the new topology;
			// the second must hit it and still agree with fresh truth.
			got, err := eng.ExecutePrepared(p)
			if err != nil {
				t.Fatalf("round %d %s: execute: %v", round, q.Name, err)
			}
			again, err := eng.ExecutePrepared(p)
			if err != nil {
				t.Fatalf("round %d %s: re-execute: %v", round, q.Name, err)
			}
			fp, err := fresh.Prepare(q)
			if err != nil {
				t.Fatalf("round %d %s: fresh prepare: %v", round, q.Name, err)
			}
			want, err := fresh.ExecutePrepared(fp)
			if err != nil {
				t.Fatalf("round %d %s: fresh execute: %v", round, q.Name, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(again.Rows, want.Rows) {
				t.Errorf("round %d %s: stale rows served after topology change", round, q.Name)
			}
			if !reflect.DeepEqual(got.Jobs, want.Jobs) || !reflect.DeepEqual(again.Jobs, want.Jobs) {
				t.Errorf("round %d %s: stale JobStats served after topology change", round, q.Name)
			}
		}
	}
}

// TestResizeCommitsOneEpoch: a resize commits like a batch — one epoch
// and, on a durable engine, one WAL record — however many nodes receive
// rows.
func TestResizeCommitsOneEpoch(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			eng := newKind(t, kind, g, ringConfig(), wal.NewMemFS())
			defer eng.Close()
			for _, delta := range []int{+3, -5} {
				ver, topo, recs := eng.DataVersion(), eng.TopologyVersion(), eng.DurabilityStats().Log.Records
				var rr ReshardResult
				var err error
				if delta > 0 {
					rr, err = eng.AddNodes(delta)
				} else {
					rr, err = eng.RemoveNodes(-delta)
				}
				if err != nil {
					t.Fatalf("resize %+d: %v", delta, err)
				}
				if rr.MovedRows == 0 {
					t.Fatalf("resize %+d moved no rows", delta)
				}
				if got := eng.DataVersion(); got != ver+1 || rr.DataVersion != ver+1 {
					t.Errorf("resize %+d: epoch %d -> %d (reported %d), want one epoch", delta, ver, got, rr.DataVersion)
				}
				if rr.TopologyVersion != topo+1 {
					t.Errorf("resize %+d: topology version %d -> %d, want one step", delta, topo, rr.TopologyVersion)
				}
				wantRecs := recs
				if kind == "durable" {
					wantRecs++
				}
				if got := eng.DurabilityStats().Log.Records; got != wantRecs {
					t.Errorf("resize %+d: %d WAL records -> %d, want %d", delta, recs, got, wantRecs)
				}
			}
			if eng.Nodes() != 5 || eng.TopologyVersion() != 2 {
				t.Errorf("engine at %d nodes topo %d, want 5/2", eng.Nodes(), eng.TopologyVersion())
			}
		})
	}
}

// TestResizeCountsUnchanged pins what a grow 7→10 and a shrink 10→5
// report moving at 2 universities, under both placements: the integers
// read when the store held the property replica's cells, which now come
// from the view's counters — a property file moves whole when its node
// changes, two cells a row, one in a class file.
func TestResizeCountsUnchanged(t *testing.T) {
	pins := map[string][2][3]int{ // {MovedRows, TotalRows, MovedCells} per resize
		"ring":   {{2938, 9570, 5876}, {5131, 9570, 9670}},
		"modulo": {{8519, 9570, 16446}, {4659, 9570, 9318}},
	}
	g := lubm.Generate(lubm.DefaultConfig(2))
	for placement, want := range pins {
		cfg := DefaultConfig()
		cfg.Placement = placement
		eng := New(g, cfg)
		grow, err := eng.AddNodes(3)
		if err != nil {
			t.Fatal(err)
		}
		shrink, err := eng.RemoveNodes(5)
		if err != nil {
			t.Fatal(err)
		}
		for i, rr := range []ReshardResult{grow, shrink} {
			if got := [3]int{rr.MovedRows, rr.TotalRows, rr.MovedCells}; got != want[i] {
				t.Errorf("%s %d→%d: {MovedRows, TotalRows, MovedCells} = %v, pinned %v", placement, rr.From, rr.To, got, want[i])
			}
		}
		eng.Close()
	}
}

// TestReshardArgumentErrors pins the error contract.
func TestReshardArgumentErrors(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO("a", "p", "b")
	cfg := ringConfig()
	cfg.Nodes = 3
	eng := New(g, cfg)
	if _, err := eng.AddNodes(0); err == nil {
		t.Error("AddNodes(0) succeeded")
	}
	if _, err := eng.RemoveNodes(-1); err == nil {
		t.Error("RemoveNodes(-1) succeeded")
	}
	if _, err := eng.RemoveNodes(3); err == nil {
		t.Error("RemoveNodes(all) succeeded")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddNodes(1); !errors.Is(err, ErrClosed) {
		t.Errorf("AddNodes on closed engine: %v, want ErrClosed", err)
	}
}

// TestCloseDuringReshard races Close against in-flight writes — a
// reshard and a stream of batches — without a log and with one: every
// write must either complete or return ErrClosed (or a WAL-shutdown
// error with a log), never panic or deadlock, Close must return
// cleanly, and it must return only once the last accepted write has
// been applied: the state read right after Close equals the state read
// once the racing writers have joined. Run under -race.
func TestCloseDuringReshard(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				g := rdf.NewGraph()
				for i := 0; i < 200; i++ {
					g.AddSPO(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%5), fmt.Sprintf("o%d", i%31))
				}
				cfg := ringConfig()
				cfg.Nodes = 4
				eng := newKind(t, kind, g, cfg, wal.NewMemFS())
				closing := func(err error) bool {
					return err == nil || errors.Is(err, ErrClosed) || errors.Is(err, wal.ErrClosed)
				}
				type state struct {
					data, topo   uint64
					nodes, graph int
				}
				read := func() state {
					return state{eng.DataVersion(), eng.TopologyVersion(), eng.Nodes(), eng.part.Current().NumTriples()}
				}
				var atClose state
				var wg sync.WaitGroup
				wg.Add(3)
				go func() {
					defer wg.Done()
					if _, rerr := eng.AddNodes(3); !closing(rerr) {
						t.Errorf("trial %d: AddNodes: %v", trial, rerr)
					}
				}()
				go func() {
					defer wg.Done()
					for b := 0; b < 64; b++ {
						ins := make([]rdf.Triple, 32)
						for i := range ins {
							ins[i] = rdf.Triple{
								S: g.Dict.EncodeIRI(fmt.Sprintf("late%d-%d", b, i)),
								P: g.Dict.EncodeIRI("p0"),
								O: g.Dict.EncodeIRI("o0"),
							}
						}
						if _, aerr := eng.ApplyBatch(ins, nil); aerr != nil {
							if !closing(aerr) {
								t.Errorf("trial %d: ApplyBatch: %v", trial, aerr)
							}
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					// Odd trials let the batch stream get going first, so
					// Close meets a write mid-apply and not only at the door.
					for trial%2 == 1 && eng.DataVersion() == 1 {
						runtime.Gosched()
					}
					if cerr := eng.Close(); cerr != nil {
						t.Errorf("trial %d: Close: %v", trial, cerr)
					}
					atClose = read()
				}()
				wg.Wait()
				if end := read(); end != atClose {
					t.Errorf("trial %d: a write landed after Close returned: %+v at Close, %+v once the writers joined", trial, atClose, end)
				}
				// Post-close, the engine must reject further resizes.
				if _, rerr := eng.AddNodes(1); !errors.Is(rerr, ErrClosed) {
					t.Errorf("trial %d: post-close AddNodes: %v, want ErrClosed", trial, rerr)
				}
			}
		})
	}
}

// TestDurableReshardRecovery: a reshard on a durable engine survives a
// clean close — reopening recovers the new topology and the same
// answers as a fresh engine at the new size.
func TestDurableReshardRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := ringConfig()
	eng, err := NewDurable(g, cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ins, dels := randomBatch(rng, g, 1)
	if _, err := eng.ApplyBatch(ins, dels); err != nil {
		t.Fatal(err)
	}
	mutate(g, ins, dels)
	if _, err := eng.AddNodes(3); err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	preVer := eng.DataVersion()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(cfg, durableOpts(fs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if rec.Nodes() != 10 {
		t.Fatalf("recovered %d nodes, want 10", rec.Nodes())
	}
	if rec.DataVersion() != preVer {
		t.Errorf("recovered at epoch %d, want %d", rec.DataVersion(), preVer)
	}
	freshCfg := ringConfig()
	freshCfg.Nodes = 10
	fresh := New(g, freshCfg)
	q, err := lubm.Query("Q2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.ExecutePrepared(mustPrepare(t, rec, q))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ExecutePrepared(mustPrepare(t, fresh, q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Error("recovered engine diverges from fresh engine at the recovered size")
	}
}

// TestDurableReshardCrashMidFlight is the crash-matrix case: a crash
// injected partway through a reshard's WAL write must recover to a
// consistent topology — the new size if its topology record is durable,
// the old one if not — with answers matching a fresh engine at that
// size.
func TestDurableReshardCrashMidFlight(t *testing.T) {
	for _, mode := range wal.CrashModes {
		t.Run(mode.String(), func(t *testing.T) {
			fs := wal.NewMemFS()
			g := rdf.NewGraph()
			for i := 0; i < 300; i++ {
				g.AddSPO(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%4), fmt.Sprintf("o%d", i%37))
			}
			cfg := ringConfig()
			cfg.Nodes = 4
			eng, err := NewDurable(g, cfg, durableOpts(fs))
			if err != nil {
				t.Fatal(err)
			}
			// Arm the crash a few mutating ops into the reshard: its one
			// topology record lands durably or is lost.
			fs.SetCrashAt(2, mode)
			_, rerr := eng.AddNodes(3)
			if rerr == nil {
				// The whole reshard fit before the fault point; still a
				// valid (if easy) matrix cell.
				t.Logf("reshard completed before the armed crash")
			}
			eng.Close()
			fs.Reboot()

			rec, err := OpenDurable(cfg, durableOpts(fs))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer rec.Close()
			n := rec.Nodes()
			if n != 4 && n != 7 {
				t.Fatalf("recovered at %d nodes, want the old (4) or new (7) topology", n)
			}
			freshCfg := ringConfig()
			freshCfg.Nodes = n
			fresh := New(g, freshCfg)
			q := sparql.MustParse(`SELECT ?s ?o WHERE { ?s <p1> ?o }`)
			q.Name = "crash-probe"
			got, err := rec.ExecutePrepared(mustPrepare(t, rec, q))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ExecutePrepared(mustPrepare(t, fresh, q))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
				t.Errorf("%s: recovered engine diverges from fresh %d-node engine", mode, n)
			}
			// The recovered engine must still be able to finish the
			// elastic story: reshard to the target and match fresh truth.
			if n == 4 {
				if _, err := rec.AddNodes(3); err != nil {
					t.Fatalf("post-recovery AddNodes: %v", err)
				}
			}
			if rec.Nodes() != 7 {
				t.Fatalf("post-recovery engine at %d nodes, want 7", rec.Nodes())
			}
		})
	}
}
