package mapreduce

import (
	"math/rand"
	"reflect"
	"testing"

	"cliquesquare/internal/rdf"
)

// chargeJob builds a job whose meters accumulate many small counts in a
// node- and phase-dependent pattern, checks (priced at a constant that
// is not exactly representable) among them.
func chargeJob(cl *Cluster) Job {
	return ClassicJob("charges",
		func(node int, m *Meter, emit *Emitter, out *Block) {
			rows := Block{Width: 3}
			for i := 0; i < 7+node*3; i++ {
				m.Read(i + 1)
				m.Check(2*i + 1)
				rows.Append(Row{rdf.TermID((node + i) % 5), 1, 2})
			}
			emit.EmitAll(0, 0, rows, []int{0})
		},
		func(node int, m *Meter, g Group, out *Block) {
			m.Join(g.Len()*2 + 1)
			m.Write(g.Len())
			out.Append(Row{3})
		})
}

func TestReplayReproducesJobStats(t *testing.T) {
	// Check constant 0.1 is not exactly representable: a replay must
	// price the counts exactly as the live run did.
	for _, tc := range []struct {
		name  string
		lanes int
	}{
		{"one-lane", 0},
		{"four-lanes", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := wordCountCluster(3)
			rec := &JobRecord{}
			runOn(t, cl, tc.lanes, chargeJob(cl), rec)
			want := cl.Jobs[0]
			wantWork := cl.TotalWork()

			// Replay on a fresh cluster clock: stats and total work must
			// come out bit-identical, under a caller-chosen name.
			cl2 := wordCountCluster(3)
			got := cl2.Replay("charges", rec)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("replayed stats differ:\n got %+v\nwant %+v", got, want)
			}
			if cl2.TotalWork() != wantWork {
				t.Errorf("replayed work = %v, want %v", cl2.TotalWork(), wantWork)
			}
			if len(cl2.Jobs) != 1 || !reflect.DeepEqual(cl2.Jobs[0], want) {
				t.Errorf("replay did not append the job to the log: %+v", cl2.Jobs)
			}
			// A second replay under another name reports the same timings.
			got2 := cl2.Replay("other", rec)
			got2.Name = want.Name
			if !reflect.DeepEqual(got2, want) {
				t.Errorf("renamed replay differs: %+v", got2)
			}
		})
	}
}

func TestRecordParallelMatchesSequential(t *testing.T) {
	// The recorded per-node counts are lane-count invariant: a record
	// captured at any parallelism replays to the same stats.
	cl1 := wordCountCluster(3)
	rec1 := &JobRecord{}
	runOn(t, cl1, 0, chargeJob(cl1), rec1)
	cl2 := wordCountCluster(3)
	rec2 := &JobRecord{}
	runOn(t, cl2, 4, chargeJob(cl2), rec2)
	if !reflect.DeepEqual(cl1.Jobs[0], cl2.Jobs[0]) {
		t.Fatalf("four-lane stats diverge from one lane: %+v vs %+v", cl2.Jobs[0], cl1.Jobs[0])
	}
	if !reflect.DeepEqual(rec1, rec2) {
		t.Error("records differ between one-lane and four-lane capture")
	}
	if rec1.MemBytes() <= 0 {
		t.Error("MemBytes must be positive for a captured record")
	}
}

func TestRecordMapOnly(t *testing.T) {
	cl := wordCountCluster(2)
	rec := &JobRecord{}
	runOn(t, cl, 0, ClassicJob("mo", func(node int, m *Meter, emit *Emitter, out *Block) {
		m.Read(5 + node)
		out.Append(Row{1})
	}, nil), rec)
	cl2 := wordCountCluster(2)
	got := cl2.Replay("mo", rec)
	if !reflect.DeepEqual(got, cl.Jobs[0]) {
		t.Errorf("map-only replay differs: %+v vs %+v", got, cl.Jobs[0])
	}
}

// TestCountsAreOrderFree is the property the integer meters rest on:
// random count sequences, split across random units — map morsels,
// reduce key ranges, once-per-node work in range 0 — and run at 1, 2
// and 4 lanes give bit-identical JobStats, and those are the summed
// counts priced once (as the seed did: I/O, then CPU, then network),
// replayed or live.
func TestCountsAreOrderFree(t *testing.T) {
	type count struct{ kind, n int }
	charge := func(m *Meter, cs []count) {
		for _, c := range cs {
			[]func(int){m.Read, m.Write, m.Check, m.Join}[c.kind](c.n)
		}
	}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		counts := func() []count {
			cs := make([]count, rng.Intn(6))
			for i := range cs {
				cs[i] = count{rng.Intn(4), rng.Intn(1 << 20)}
			}
			return cs
		}
		nodes, keys := 1+rng.Intn(5), 1+rng.Intn(60)
		c := Constants{Read: rng.Float64(), Write: rng.Float64(), Shuffle: 3 * rng.Float64(), Check: rng.Float64() / 7, Join: rng.Float64(), JobInit: 5e6 * rng.Float64()}
		perKey := make([][]count, keys) // what reducing one key's group counts
		for k := range perKey {
			perKey[k] = counts()
		}
		type morsel struct {
			counts []count
			keys   []int
		}
		morsels, first := make([][]morsel, nodes), make([][]count, nodes)
		for node := range morsels {
			morsels[node] = make([]morsel, rng.Intn(4))
			for i := range morsels[node] {
				mo := &morsels[node][i]
				mo.counts = counts()
				for j := rng.Intn(30); j > 0; j-- {
					mo.keys = append(mo.keys, rng.Intn(keys))
				}
			}
			first[node] = counts()
		}
		job := Job{
			Name:       "counts",
			MapMorsels: func(node int) int { return len(morsels[node]) },
			MapMorsel: func(node, i, _ int, m *Meter, emit *Emitter, _ *Block) {
				charge(m, morsels[node][i].counts)
				keys := Block{Width: 1}
				for _, k := range morsels[node][i].keys {
					keys.Append(Row{rdf.TermID(k)})
				}
				emit.EmitAll(0, 0, keys, []int{0})
			},
			// Every node has a range 0, empty when nothing routed there:
			// what it counts beyond its groups is once per node.
			ReduceRange: func(node, rng, _, _ int, m *Meter, groups *Groups, _ *Block) {
				if rng == 0 {
					charge(m, first[node])
				}
				groups.Each(func(g Group) { charge(m, perKey[g.KeyCell(0)]) })
			},
		}

		// The reference: every node's counts per phase, summed, priced once.
		sums := make([]Meter, 3*nodes)
		mapM, shufM, redM := phases(sums, false)
		want := JobStats{Name: job.Name}
		reduced := make([]bool, keys)
		for node := range morsels {
			for _, mo := range morsels[node] {
				charge(&mapM[node], mo.counts)
				for _, k := range mo.keys {
					dest := route(hashCell(hashCell(fnv32Offset, 0), uint32(k)), nodes)
					shufM[dest].Shuffle(1)
					if !reduced[k] {
						reduced[k] = true
						charge(&redM[dest], perKey[k])
					}
					want.Shuffled++
					want.ShuffledCells++
				}
			}
			charge(&redM[node], first[node])
		}
		price := func(m Meter) float64 {
			io := c.Read*float64(m.Reads) + c.Write*float64(m.Writes)
			cpu := c.Check*float64(m.Checks) + c.Join*float64(m.Joins)
			return io + cpu + c.Shuffle*float64(m.Shuffled)
		}
		for node := 0; node < nodes; node++ {
			want.MapTime = max(want.MapTime, price(mapM[node]))
			want.ShuffleTime = max(want.ShuffleTime, price(shufM[node]))
			want.ReduceTime = max(want.ReduceTime, price(redM[node]))
		}
		want.Time = c.JobInit + want.MapTime + want.ShuffleTime + want.ReduceTime

		for _, lanes := range []int{0, 1, 2, 4} {
			cl := NewCluster(nodes, c)
			rec := &JobRecord{}
			runOn(t, cl, lanes, job, rec)
			if got := cl.Jobs[0]; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d lanes: stats %+v, want the summed counts priced once: %+v", trial, lanes, got, want)
			}
			if got := NewCluster(1, c).Replay(job.Name, rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d lanes: replayed %+v, want %+v", trial, lanes, got, want)
			}
		}
	}
}
