package mapreduce

import (
	"reflect"
	"testing"

	"cliquesquare/internal/rdf"
)

// chargeJob builds a job whose meters accumulate many small
// floating-point charges in a node- and phase-dependent pattern, so
// any reordering of the additions would change the sums bit-wise.
func chargeJob(cl *Cluster) Job {
	return ClassicJob("charges",
		func(node int, m *Meter, emit *Emitter, out *Block) {
			for i := 0; i < 7+node*3; i++ {
				m.Read(&cl.C, i+1)
				m.Check(&cl.C, 2*i+1)
				emit.Emit(0, 0, Row{rdf.TermID((node + i) % 5), 1, 2}, []int{0})
			}
		},
		func(node int, m *Meter, groups *Groups, out *Block) {
			groups.Each(func(g Group) {
				m.Join(&cl.C, g.Len()*2+1)
				m.Write(&cl.C, g.Len())
				out.Append(Row{3})
			})
		})
}

func TestReplayReproducesJobStats(t *testing.T) {
	// Check constant 0.1 is not exactly representable: sums are
	// order-sensitive at the ULP level, which is what Replay must get
	// right.
	for _, tc := range []struct {
		name  string
		lanes int
	}{
		{"one-lane", 0},
		{"four-lanes", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, _ := wordCountCluster(3)
			rec := &JobRecord{}
			runOn(cl, tc.lanes, chargeJob(cl), rec)
			want := cl.Jobs[0]
			wantWork := cl.TotalWork()

			// Replay on a fresh cluster clock: stats and total work must
			// come out bit-identical, under a caller-chosen name.
			cl2, _ := wordCountCluster(3)
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
	// The recorded per-node meters are lane-count invariant: a record
	// captured at any parallelism replays to the same stats.
	cl1, _ := wordCountCluster(3)
	rec1 := &JobRecord{}
	runOn(cl1, 0, chargeJob(cl1), rec1)
	cl2, _ := wordCountCluster(3)
	rec2 := &JobRecord{}
	runOn(cl2, 4, chargeJob(cl2), rec2)
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
	cl, _ := wordCountCluster(2)
	rec := &JobRecord{}
	runOn(cl, 0, ClassicJob("mo", func(node int, m *Meter, emit *Emitter, out *Block) {
		m.Read(&cl.C, 5+node)
		out.Append(Row{1})
	}, nil), rec)
	cl2, _ := wordCountCluster(2)
	got := cl2.Replay("mo", rec)
	if !reflect.DeepEqual(got, cl.Jobs[0]) {
		t.Errorf("map-only replay differs: %+v vs %+v", got, cl.Jobs[0])
	}
}
