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

// TestResizeInsideBatchStream pins the batcher's one collection loop
// where batches and a resize meet: k batches, a resize and k more
// batches are queued, in that order, behind a flush the test holds
// open. With and without a group window the batches before the resize
// must commit as one group, the resize alone on the epochs right after
// it, the batches behind it as the next group — and the engine must end
// up identical to a fresh one at the final size over the final graph.
func TestResizeInsideBatchStream(t *testing.T) {
	const k = 4
	for _, wait := range []time.Duration{0, 200 * time.Millisecond} {
		t.Run(fmt.Sprint("GroupMaxWait=", wait), func(t *testing.T) {
			g := lubm.Generate(lubm.DefaultConfig(1))
			opts := durableOpts(wal.NewMemFS())
			opts.GroupMaxWait = wait
			eng, err := NewDurable(g, ringConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			insert := func(i int) (BatchResult, error) {
				return eng.ApplyBatch([]rdf.Triple{{
					S: g.Dict.EncodeIRI(fmt.Sprint("urn:stream:s", i)),
					P: g.Dict.EncodeIRI("urn:stream:p"),
					O: g.Dict.EncodeIRI(fmt.Sprint("urn:stream:o", i)),
				}}, nil)
			}
			await := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
					if time.Now().After(deadline) {
						eng.stateMu.RUnlock() // let the deferred Close drain
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}

			// Hold the batcher inside a flush: with the state read lock
			// taken, the plug batch gets as far as its WAL record and
			// then waits to apply, so whatever is queued meanwhile stays
			// queued, in order.
			var wg sync.WaitGroup
			eng.stateMu.RLock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := insert(-1); err != nil {
					t.Errorf("plug: %v", err)
				}
			}()
			await("the plug's WAL record", func() bool { return eng.dur.log.Stats().Records == 1 })

			batches := make([]BatchResult, 2*k)
			var shard ReshardResult
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
				await("the request to queue", func() bool { return len(eng.dur.reqs) == i+1 })
			}
			eng.stateMu.RUnlock()
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// The plug committed epoch 2; the k batches before the resize
			// share epoch 3, the resize takes the Steps epochs after it,
			// the k batches behind it share the one after those.
			if shard.Steps < 1 || shard.DataVersion != 3+uint64(shard.Steps) {
				t.Fatalf("resize committed %d steps ending at epoch %d, want them to follow epoch 3 directly", shard.Steps, shard.DataVersion)
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
