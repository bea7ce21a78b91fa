package csq

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/wal"
)

// TestBothEnginesCommitAlike drives one scripted write sequence — every
// kind of no-op and cancellation the net delta must handle, real
// batches, and a grow and a shrink — through an engine without a log
// and one with, and requires them to agree after every step: there is
// one commit pipeline, so a log may add durability but never change
// what a write does.
func TestBothEnginesCommitAlike(t *testing.T) {
	type engine struct {
		name string
		e    *Engine
		g    *rdf.Graph
		rng  *rand.Rand
	}
	// Two identically generated graphs (kept in step with their engines), so
	// TermIDs — and with them placement and JobStats — line up.
	var engs []*engine
	for _, name := range []string{"no log", "log"} {
		g := lubm.Generate(lubm.DefaultConfig(1))
		var e *Engine
		if name == "log" {
			var err error
			if e, err = NewDurable(g, ringConfig(), durableOpts(wal.NewMemFS())); err != nil {
				t.Fatal(err)
			}
		} else {
			e = New(g, ringConfig())
		}
		defer e.Close()
		runWorkload(t, e) // warm the plan cache: every epoch now costs revalidations
		engs = append(engs, &engine{name, e, g, rand.New(rand.NewSource(5))})
	}

	tr := func(g *rdf.Graph, s, o string) rdf.Triple {
		return rdf.Triple{S: g.Dict.EncodeIRI(s), P: g.Dict.EncodeIRI("urn:alike:p"), O: g.Dict.EncodeIRI(o)}
	}
	steps := []struct {
		name  string
		batch func(en *engine) (ins, dels []rdf.Triple)
		nodes int    // non-zero: a resize by that many nodes instead of a batch
		epoch uint64 // the data version both engines must report after a batch
	}{
		{name: "duplicate inserts", epoch: 2, batch: func(en *engine) (ins, dels []rdf.Triple) {
			return []rdf.Triple{tr(en.g, "a", "b"), tr(en.g, "a", "b")}, nil
		}},
		{name: "delete of an absent triple", epoch: 2, batch: func(en *engine) (ins, dels []rdf.Triple) {
			return nil, []rdf.Triple{tr(en.g, "no", "such")}
		}},
		{name: "delete + re-insert of a present triple", epoch: 2, batch: func(en *engine) (ins, dels []rdf.Triple) {
			return []rdf.Triple{tr(en.g, "a", "b")}, []rdf.Triple{tr(en.g, "a", "b")}
		}},
		{name: "insert + delete of an absent triple", epoch: 3, batch: func(en *engine) (ins, dels []rdf.Triple) {
			return []rdf.Triple{tr(en.g, "c", "d")}, []rdf.Triple{tr(en.g, "c", "d")}
		}},
		{name: "all no-ops", epoch: 3, batch: func(en *engine) (ins, dels []rdf.Triple) {
			return []rdf.Triple{tr(en.g, "a", "b"), en.g.Triples()[0]}, []rdf.Triple{tr(en.g, "no", "such")}
		}},
		{name: "mixed batch", epoch: 4, batch: func(en *engine) (ins, dels []rdf.Triple) {
			return randomBatch(en.rng, en.g, 1)
		}},
		{name: "AddNodes(3)", nodes: +3},
		{name: "batch between resizes", batch: func(en *engine) (ins, dels []rdf.Triple) {
			return randomBatch(en.rng, en.g, 2)
		}},
		{name: "RemoveNodes(5)", nodes: -5},
	}

	type outcome struct {
		Inserted, Deleted int
		DataVersion       uint64
		Shard             ReshardResult
		Update            UpdateStats
		Nodes             int
		Topology          uint64
	}
	probe := oracleQueries(t)[0]
	for _, st := range steps {
		var outs []outcome
		for _, en := range engs {
			var out outcome
			if st.nodes != 0 {
				resize, k := en.e.AddNodes, st.nodes
				if k < 0 {
					resize, k = en.e.RemoveNodes, -k
				}
				res, err := resize(k)
				if err != nil {
					t.Fatalf("%s (%s): %v", st.name, en.name, err)
				}
				res.Wall = 0
				out.Shard = res
			} else {
				before := en.e.DataVersion()
				ins, dels := st.batch(en)
				br, err := en.e.ApplyBatch(ins, dels)
				if err != nil {
					t.Fatalf("%s (%s): %v", st.name, en.name, err)
				}
				mutate(en.g, ins, dels)
				out.Inserted, out.Deleted = br.Inserted, br.Deleted
				// The commit reports itself on every engine: a lone caller
				// is a group of one, Apply is timed iff an epoch committed,
				// and the log stages are timed only where there is a log.
				c := br.Commit
				if c.GroupSize != 1 || (c.Apply > 0) != (br.DataVersion > before) || (en.e.dur == nil && c.Append+c.Sync != 0) {
					t.Errorf("%s (%s): commit stats %+v for epoch %d -> %d", st.name, en.name, c, before, br.DataVersion)
				}
				if br.DataVersion != en.e.DataVersion() {
					t.Errorf("%s (%s): reported epoch %d, engine at %d", st.name, en.name, br.DataVersion, en.e.DataVersion())
				}
			}
			// One cached plan per step: a spurious epoch shows up as a
			// revalidation the other engine did not pay.
			if _, _, err := en.e.PrepareCached(probe); err != nil {
				t.Fatalf("%s (%s): prepare: %v", st.name, en.name, err)
			}
			out.DataVersion, out.Update = en.e.DataVersion(), en.e.UpdateStats()
			out.Nodes, out.Topology = en.e.Nodes(), en.e.TopologyVersion()
			outs = append(outs, out)
		}
		if outs[0] != outs[1] {
			t.Fatalf("%s: engines disagree\n%6s: %+v\n%6s: %+v", st.name, engs[0].name, outs[0], engs[1].name, outs[1])
		}
		if st.epoch != 0 && outs[0].DataVersion != st.epoch {
			t.Errorf("%s: committed as epoch %d, want %d", st.name, outs[0].DataVersion, st.epoch)
		}
	}
	compareResults(t, "no log vs log", runWorkload(t, engs[0].e), runWorkload(t, engs[1].e))
}

// engineKinds names the two engines the write tests run on: one commit
// pipeline, without a log and with one.
var engineKinds = []string{"memory", "durable"}

// newKind builds an engine of the named kind over g; a durable one logs
// to fs.
func newKind(t *testing.T, kind string, g *rdf.Graph, cfg Config, fs *wal.MemFS) *Engine {
	t.Helper()
	if kind == "memory" {
		return New(g, cfg)
	}
	e, err := NewDurable(g, cfg, durableOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// queued is the number of writes accepted and not yet flushed.
func (e *Engine) queued() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue)
}

// plugWriter holds eng's writer inside a flush: the plug write gets as
// far as publishing its epoch and waits there, in the published seam,
// holding the writer role, so whatever is submitted meanwhile stays
// queued, in order. await polls a condition while the plug holds;
// release lets the plug commit and returns once it has.
func plugWriter(t *testing.T, eng *Engine, plug func() error) (await func(what string, cond func() bool), release func()) {
	var once sync.Once
	gate, done := make(chan struct{}), make(chan struct{})
	release = func() {
		once.Do(func() { close(gate) })
		<-done
	}
	await = func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				release() // let the deferred Close drain
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	eng.published = func() { <-gate }
	go func() {
		defer close(done)
		if err := plug(); err != nil {
			t.Errorf("plug: %v", err)
		}
	}()
	// The plug queues before it takes the writer role, so with the role
	// held an empty queue means the plug has taken its own request.
	await("the plug to hold the writer role", func() bool {
		if eng.wmu.TryLock() {
			eng.wmu.Unlock()
			return false
		}
		return eng.queued() == 0
	})
	return await, release
}

// TestReadersDoNotWaitOnCommit parks the writer where it has published
// an epoch — of a batch, then of a resize — and not yet moved the
// statistics catalog to it. Planning does not wait for it: a cold
// Prepare of a shape the engine has not seen and the revalidation of a
// cached plan both complete meanwhile, at the epoch the catalog is at,
// and the plan revalidates again at the new one once the writer is done.
func TestReadersDoNotWaitOnCommit(t *testing.T) {
	for _, w := range []struct {
		name  string
		write func(*Engine) error
	}{
		{"batch", func(e *Engine) error {
			d := e.Dict()
			_, err := e.ApplyBatch([]rdf.Triple{{S: d.EncodeIRI("urn:stall:s"), P: d.EncodeIRI("urn:stall:p"), O: d.EncodeIRI("urn:stall:o")}}, nil)
			return err
		}},
		{"resize", func(e *Engine) error {
			_, err := e.AddNodes(2)
			return err
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			eng := New(lubm.Generate(lubm.DefaultConfig(1)), ringConfig())
			defer eng.Close()
			cached, cold := lubm.Queries()[0], lubm.Queries()[1]
			if _, _, err := eng.PrepareCached(cached); err != nil {
				t.Fatal(err)
			}
			parked, release := make(chan struct{}), make(chan struct{})
			eng.published = func() {
				close(parked)
				<-release
			}
			wrote := make(chan error, 1)
			go func() { wrote <- w.write(eng) }()
			<-parked
			planned := make(chan error, 1)
			go func() {
				p, err := eng.Prepare(cold)
				if err == nil && p.DataVersion != 1 {
					err = fmt.Errorf("cold prepare at version %d, want the catalog's 1", p.DataVersion)
				}
				if err != nil {
					planned <- err
					return
				}
				p, hit, err := eng.PrepareCached(cached)
				if err == nil && (!hit || p.DataVersion != 1 || eng.UpdateStats().Revalidations != 1) {
					err = fmt.Errorf("cached prepare: hit %v at version %d after %d revalidations, want a hit at 1 after 1",
						hit, p.DataVersion, eng.UpdateStats().Revalidations)
				}
				planned <- err
			}()
			select {
			case err := <-planned:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(10 * time.Second):
				close(release)
				t.Fatal("planning waited on the parked commit for 10 s")
			}
			if v := eng.DataVersion(); v != 2 {
				t.Errorf("engine at version %d while the writer is parked, want 2", v)
			}
			close(release)
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			if p, _, err := eng.PrepareCached(cached); err != nil || p.DataVersion != 2 || eng.UpdateStats().Revalidations != 2 {
				t.Errorf("after the commit: %v, revalidations %d; want version 2 after 2 revalidations", err, eng.UpdateStats().Revalidations)
			}
		})
	}
}

// TestResizeInsideBatchStream pins the flush order where batches and a
// resize meet: k batches, a resize and k more batches are queued, in
// that order, behind a flush the test holds open. On either engine the
// batches before the resize must commit as one group, the resize alone
// as the one epoch right after it, the batches behind it as the next group
// — and the engine must end up identical to a fresh one at the final
// size over the final graph.
func TestResizeInsideBatchStream(t *testing.T) {
	const k = 4
	for _, kind := range engineKinds {
		t.Run(kind, func(t *testing.T) {
			g := lubm.Generate(lubm.DefaultConfig(1))
			eng := newKind(t, kind, g, ringConfig(), wal.NewMemFS())
			defer eng.Close()
			insert := func(i int) (BatchResult, error) {
				return eng.ApplyBatch([]rdf.Triple{{
					S: g.Dict.EncodeIRI(fmt.Sprint("urn:stream:s", i)),
					P: g.Dict.EncodeIRI("urn:stream:p"),
					O: g.Dict.EncodeIRI(fmt.Sprint("urn:stream:o", i)),
				}}, nil)
			}
			await, release := plugWriter(t, eng, func() error {
				_, err := insert(-1)
				return err
			})

			batches := make([]BatchResult, 2*k)
			var shard ReshardResult
			var wg sync.WaitGroup
			for i := 0; i <= 2*k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var err error
					switch {
					case i < k:
						batches[i], err = insert(i)
					case i == k:
						shard, err = eng.AddNodes(3)
					default:
						batches[i-1], err = insert(i)
					}
					if err != nil {
						t.Errorf("request %d: %v", i, err)
					}
				}(i)
				await("the request to queue", func() bool { return eng.queued() == i+1 })
			}
			release()
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// The plug committed epoch 2; the k batches before the resize
			// share epoch 3, the resize is epoch 4, the k batches behind it
			// share epoch 5.
			if shard.DataVersion != 4 {
				t.Fatalf("resize committed epoch %d, want 4: one epoch right after the batches before it", shard.DataVersion)
			}
			for i, br := range batches {
				want := uint64(3)
				if i >= k {
					want = shard.DataVersion + 1
				}
				if br.DataVersion != want || br.Commit.GroupSize != k || br.Inserted != 1 {
					t.Errorf("batch %d: epoch %d in a group of %d (inserted %d), want epoch %d in a group of %d",
						i, br.DataVersion, br.Commit.GroupSize, br.Inserted, want, k)
				}
			}
			if eng.DataVersion() != shard.DataVersion+1 || eng.Nodes() != 10 {
				t.Errorf("engine at epoch %d with %d nodes, want %d with 10", eng.DataVersion(), eng.Nodes(), shard.DataVersion+1)
			}
			cfg := ringConfig()
			cfg.Nodes = 10
			compareResults(t, "stream vs fresh", runWorkload(t, eng), runWorkload(t, New(g, cfg)))
		})
	}
}

// TestEngineStartsNoGoroutine: writes, resizes, checkpoints and Close run
// in their callers' goroutines, and an execution's helper lanes live for
// one batch of its morsels. So building an engine — without a log, over
// a fresh log, or recovered from one — at one, two and four lanes and
// driving a query, a batch, a resize, a Compact and Close through it
// leaves the goroutine count where it was once the helpers of the last
// batch have exited.
func TestEngineStartsNoGoroutine(t *testing.T) {
	q := sparql.MustParse(`SELECT ?s ?o WHERE { ?s <urn:p> ?o }`)
	lanes := []int{1, 2, 4}
	fss := make([]*wal.MemFS, len(lanes)) // OpenDurable recovers what NewDurable logged
	for i := range fss {
		fss[i] = wal.NewMemFS()
	}
	for i, kind := range []string{"New", "NewDurable", "OpenDurable"} {
		t.Run(kind, func(t *testing.T) {
			for l, par := range lanes {
				cfg := crashScriptCfg()
				cfg.Parallelism = par
				base := runtime.NumGoroutine()
				check := func(what string, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%d lanes, %s: %v", par, what, err)
					}
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > base {
						if time.Now().After(deadline) {
							t.Fatalf("%d lanes, after %s: %d goroutines, %d before the engine", par, what, runtime.NumGoroutine(), base)
						}
						time.Sleep(time.Millisecond)
					}
				}
				var eng *Engine
				var err error
				switch kind {
				case "New":
					eng = New(durableBase(), cfg)
				case "NewDurable":
					eng, err = NewDurable(durableBase(), cfg, durableOpts(fss[l]))
				case "OpenDurable":
					eng, err = OpenDurable(cfg, durableOpts(fss[l]))
				}
				check("building", err)
				_, err = eng.ExecutePrepared(mustPrepare(t, eng, q))
				check("a query", err)
				ins, dels := scriptBatch(eng.Dict(), i+1)
				_, err = eng.ApplyBatch(ins, dels)
				check("a batch", err)
				_, err = eng.AddNodes(1)
				check("a resize", err)
				check("Compact", eng.Compact())
				check("Close", eng.Close())
			}
		})
	}
}

// TestCommitCopiesStoredReplicas pins the copying cost of a commit, the
// exact proxy of its O(|G|) term: a batch of the benchmark's shape —
// 200 deletes and 200 inserts drawn from one permutation of the triples
// at 20 universities — copies at most 0.75× the 179,639 cells it copied
// when the store held the property replica (122,282 since: nearly every
// subject and object file, which hold 4 cells a triple of the 31,625).
// A batch that nets out copies nothing.
func TestCommitCopiesStoredReplicas(t *testing.T) {
	const before = 179639
	g := lubm.Generate(lubm.DefaultConfig(20))
	ts, rng := g.Triples(), rand.New(rand.NewSource(1))
	var ins, dels []rdf.Triple
	for i, k := range rng.Perm(len(ts))[:400] {
		if i < 200 {
			dels = append(dels, ts[k])
		} else {
			ins = append(ins, ts[k])
		}
	}
	g.RemoveBatch(ins)
	eng := New(g, DefaultConfig())
	defer eng.Close()
	br, err := eng.ApplyBatch(ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	if got := br.Commit.CellsCopied; got > before*3/4 || got == 0 {
		t.Errorf("a 200+200 batch copied %d cells, ceiling %d (0.75× %d)", got, before*3/4, before)
	} else {
		t.Logf("a 200+200 batch copied %d cells: %.3f× %d", got, float64(got)/before, before)
	}
	if br, err = eng.ApplyBatch(ins, ins); err != nil || br.Commit.CellsCopied != 0 {
		t.Errorf("a batch that nets out copied %d cells (err %v), want 0", br.Commit.CellsCopied, err)
	}
}
