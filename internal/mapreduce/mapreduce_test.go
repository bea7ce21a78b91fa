package mapreduce

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cliquesquare/internal/rdf"
)

func wordCountCluster(n int) *Cluster { return NewCluster(n, DefaultConstants()) }

// runOn runs job on a pool of the given width (0: the nil pool) with a
// sink that copies the rows of each node, and returns them, checking
// that the job's Output counts exactly the rows the sink took. On
// several lanes a node's units hand their rows concurrently: only one
// lane fixes their order, so compare wider runs' rows as multisets.
func runOn(t *testing.T, cl *Cluster, lanes int, job Job, rec *JobRecord) [][]Row {
	t.Helper()
	var pool *Pool
	if lanes > 0 {
		pool = NewPool(lanes)
	}
	var mu sync.Mutex
	rows, took := make([][]Row, cl.Nodes), 0
	job.Sink = func(node, _ int, b Block) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < b.N; i++ {
			rows[node] = append(rows[node], slices.Clone(b.Row(i)))
		}
		took += b.N
	}
	cl.RunWith(job, RunOptions{Pool: pool, Record: rec})
	if out := cl.Jobs[len(cl.Jobs)-1].Output; out != took {
		t.Errorf("%s: Output = %d, the sink took %d rows", job.Name, out, took)
	}
	return rows
}

// multiset returns each node's rows in lexicographic order.
func multiset(rows [][]Row) [][]Row {
	out := make([][]Row, len(rows))
	for i, rs := range rows {
		out[i] = slices.SortedFunc(slices.Values(rs), func(a, b Row) int { return slices.Compare(a, b) })
	}
	return out
}

// count returns the number of rows of every node.
func count(rows [][]Row) (n int) {
	for _, rs := range rows {
		n += len(rs)
	}
	return n
}

func TestMapOnlyJob(t *testing.T) {
	cl := wordCountCluster(3)
	in := [][]Row{{{1}}, {{2}}, {{3}}} // each node's input rows
	out := runOn(t, cl, 0, ClassicJob("identity", func(node int, m *Meter, emit *Emitter, out *Block) {
		m.Read(len(in[node]))
		for _, r := range in[node] {
			out.Append(r)
		}
	}, nil), nil)
	if count(out) != 3 {
		t.Errorf("output = %d rows, want 3", count(out))
	}
	if len(cl.Jobs) != 1 || !cl.Jobs[0].MapOnly {
		t.Errorf("jobs = %+v", cl.Jobs)
	}
	if cl.Jobs[0].Shuffled != 0 {
		t.Error("map-only job shuffled records")
	}
	if cl.ResponseTime() <= cl.C.JobInit {
		t.Errorf("response time %v should exceed job init %v", cl.ResponseTime(), cl.C.JobInit)
	}
}

func TestShuffleGroupsByExactKey(t *testing.T) {
	cl := wordCountCluster(4)
	// Each node emits (key = node%2, value = node); reduce counts per
	// group. Reducers of different nodes run on different lanes, so the
	// shared counter is atomic.
	var groupsSeen atomic.Int32
	out := runOn(t, cl, 4, ClassicJob("group",
		func(node int, m *Meter, emit *Emitter, out *Block) {
			emit.EmitAll(0, 0, Block{Width: 2, N: 1, Cells: Row{rdf.TermID(node % 2), rdf.TermID(node)}}, []int{0})
		},
		func(node int, m *Meter, g Group, out *Block) {
			groupsSeen.Add(1)
			out.Append(Row{rdf.TermID(g.Len())})
		}), nil)
	if n := groupsSeen.Load(); n != 2 {
		t.Errorf("saw %d groups, want 2", n)
	}
	if count(out) != 2 {
		t.Errorf("output = %d rows, want 2", count(out))
	}
	if cl.Jobs[0].Shuffled != 4 {
		t.Errorf("shuffled = %d, want 4", cl.Jobs[0].Shuffled)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	f := func(g1, g2 uint16, a, b uint32) bool {
		k1 := EncodeKey(int(g1), []uint32{a, b})
		k2 := EncodeKey(int(g2), []uint32{a, b})
		if (g1 == g2) != (k1 == k2) {
			return false
		}
		k3 := EncodeKey(int(g1), []uint32{b, a})
		if a != b && k1 == k3 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimingIsMaxOverNodesPlusInit(t *testing.T) {
	cl := wordCountCluster(2)
	// Node 0 does 100 reads, node 1 does 10: map time must be the max.
	runOn(t, cl, 0, ClassicJob("skew", func(node int, m *Meter, emit *Emitter, out *Block) {
		if node == 0 {
			m.Read(100)
		} else {
			m.Read(10)
		}
	}, nil), nil)
	j := cl.Jobs[0]
	if j.MapTime != 100*cl.C.Read {
		t.Errorf("map time = %v, want %v", j.MapTime, 100*cl.C.Read)
	}
	if j.Time != cl.C.JobInit+j.MapTime {
		t.Errorf("job time = %v, want init+map", j.Time)
	}
	// Total work sums both nodes.
	if cl.TotalWork() != cl.C.JobInit+110*cl.C.Read {
		t.Errorf("total work = %v", cl.TotalWork())
	}
}

// TestOnlyTheSinkTakesRows runs map-only and reducing jobs with and
// without a sink, at one lane and at several: a unit is handed a block
// only when the job's sink takes its rows — a map morsel of a map-only
// job, a reduce range of any other — and the job's Output counts what
// the sink took, none without one.
func TestOnlyTheSinkTakesRows(t *testing.T) {
	for _, lanes := range []int{0, 2} {
		for _, mapOnly := range []bool{true, false} {
			for _, sink := range []bool{false, true} {
				var mapBlocks, reduceBlocks atomic.Int32
				var reduce func(int, *Meter, Group, *Block)
				if !mapOnly {
					reduce = func(_ int, _ *Meter, _ Group, out *Block) {
						if out != nil {
							reduceBlocks.Add(1)
							out.Append(Row{1})
						}
					}
				}
				job := ClassicJob("blocks", func(node int, _ *Meter, emit *Emitter, out *Block) {
					emit.EmitAll(0, 0, Block{Width: 1, N: 1, Cells: Row{rdf.TermID(node)}}, []int{0})
					if out != nil {
						mapBlocks.Add(1)
						out.Append(Row{2})
					}
				}, reduce)
				cl := wordCountCluster(3)
				if sink {
					runOn(t, cl, lanes, job, nil)
				} else {
					var pool *Pool
					if lanes > 0 {
						pool = NewPool(lanes)
					}
					cl.RunWith(job, RunOptions{Pool: pool})
				}
				wantMap, wantReduce := 0, 0
				if sink && mapOnly {
					wantMap = 3
				} else if sink {
					wantReduce = 3 // one group a node
				}
				if got := cl.Jobs[0].Output; int(mapBlocks.Load()) != wantMap || int(reduceBlocks.Load()) != wantReduce || got != wantMap+wantReduce {
					t.Errorf("%d lanes, map-only %v, sink %v: %d map and %d reduce units got a block, Output %d; want %d, %d and %d",
						lanes, mapOnly, sink, mapBlocks.Load(), reduceBlocks.Load(), got, wantMap, wantReduce, wantMap+wantReduce)
				}
			}
		}
	}
}

func TestRoutingDeterministic(t *testing.T) {
	for i := 0; i < 10; i++ {
		h := hashCell(hashCell(fnv32Offset, uint32(i)), uint32(i*7))
		if route(h, 7) != route(h, 7) {
			t.Fatal("route not deterministic")
		}
	}
}

// TestRoutingMatchesReference asserts emission lands every tuple in the
// bucket of the node the seed's hasher-object routing picked.
func TestRoutingMatchesReference(t *testing.T) {
	f := func(group uint16, cells []uint32, n uint8) bool {
		nodes := int(n%16) + 1
		tu := tuple{group: uint32(group), row: make(Row, len(cells)), cols: make([]int, len(cells))}
		for i, c := range cells {
			tu.row[i], tu.cols[i] = rdf.TermID(c), i
		}
		bk := emitAll(nodes, []tuple{tu})
		return reduceInput(bk, ReferenceRoute(tu.encode())%nodes).Records() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyEncodeMatchesEncodeKey pins a shuffled tuple's key — its
// reference encoding, equality and ordering — to the seed string
// representation.
func TestKeyEncodeMatchesEncodeKey(t *testing.T) {
	mk := func(g uint16, cells []uint32) tuple {
		tu := tuple{group: uint32(g), row: make(Row, len(cells)), cols: make([]int, len(cells))}
		for i, c := range cells {
			tu.row[i], tu.cols[i] = rdf.TermID(c), i
		}
		return tu
	}
	f := func(g1, g2 uint16, c1, c2 []uint32) bool {
		bk := emitAll(1, []tuple{mk(g1, c1), mk(g2, c2)})
		cells := bk[0].cells
		r1, i1 := tupleAt(&bk[0], 0)
		r2, i2 := tupleAt(&bk[0], 1)
		s1, s2 := EncodeKey(int(g1), c1), EncodeKey(int(g2), c2)
		if encodeTuple(r1, cells, i1) != s1 || encodeTuple(r2, cells, i2) != s2 {
			return false
		}
		cmp := compareKeys(r1, cells, i1, r2, cells, i2)
		switch {
		case s1 < s2:
			return cmp < 0
		case s1 > s2:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterAccumulates(t *testing.T) {
	cl := wordCountCluster(1)
	runOn(t, cl, 0, ClassicJob("meter", func(_ int, m *Meter, _ *Emitter, _ *Block) {
		for i := 0; i < 2; i++ {
			m.Read(5)
			m.Write(2)
			m.Check(10)
			m.Join(1)
			m.Shuffle(1)
		}
		m.Join(1)
		if want := (Meter{Reads: 10, Writes: 4, Checks: 20, Joins: 3, Shuffled: 2}); *m != want {
			t.Errorf("meter = %+v, want %+v", *m, want)
		}
	}, nil), nil)
	c := cl.C
	want := 10*c.Read + 4*c.Write + 20*c.Check + 3*c.Join + 2*c.Shuffle
	if got := cl.Jobs[0].MapTime; got != want {
		t.Errorf("MapTime = %v, want %v", got, want)
	}
}

// countJob fans rows out by a modular key and counts group sizes: a
// small job whose output and stats exercise both phases.
func countJob(cl *Cluster) Job {
	return ClassicJob("count",
		func(node int, m *Meter, emit *Emitter, out *Block) {
			rows := Block{Width: 3}
			for i := 0; i < 50; i++ {
				m.Read(1)
				rows.Append(Row{rdf.TermID((node*50 + i) % 13), rdf.TermID(node), rdf.TermID(i)})
			}
			emit.EmitAll(0, 0, rows, []int{0})
		},
		func(node int, m *Meter, g Group, out *Block) {
			m.Join(g.Len())
			out.Append(Row{rdf.TermID(g.Len())})
		})
}

// TestParallelMatchesSequential runs the same job on four lanes, on a
// width-one pool and inline, and asserts identical stats and each
// node's rows: as multisets on four lanes, in order on one.
func TestParallelMatchesSequential(t *testing.T) {
	run := func(lanes int) ([][]Row, JobStats) {
		cl := wordCountCluster(5)
		// An explicit multi-worker pool, so the concurrent path is
		// exercised even on a single-CPU machine.
		out := runOn(t, cl, lanes, countJob(cl), nil)
		return out, cl.Jobs[0]
	}
	pout, pstats := run(4)
	oout, ostats := run(1)
	sout, sstats := run(0)
	if pstats != sstats || ostats != sstats {
		t.Errorf("stats differ:\n4 lanes  %+v\n1 lane   %+v\ninline   %+v", pstats, ostats, sstats)
	}
	if !reflect.DeepEqual(multiset(pout), multiset(sout)) {
		t.Errorf("rows differ:\n4 lanes %v\ninline  %v", multiset(pout), multiset(sout))
	}
	if !reflect.DeepEqual(oout, sout) || count(sout) == 0 {
		t.Errorf("rows differ in order:\n1 lane %v\ninline %v", oout, sout)
	}
}

// TestClassicJobAcrossRanges runs a classic job through the adapter at
// every pool width. Its reducer sees one group at a time, so when the
// wider pools cut a node's groups into key ranges, rows, JobStats and
// the replayed record must not move.
func TestClassicJobAcrossRanges(t *testing.T) {
	const nodes = 3
	var reduceCalls atomic.Int32
	job := func(cl *Cluster) Job {
		j := ClassicJob("classic",
			func(node int, m *Meter, emit *Emitter, out *Block) {
				rows := Block{Width: 3}
				for i := 0; i < 60; i++ {
					m.Read(i + 1)
					m.Check(2*i + 1)
					rows.Append(Row{rdf.TermID((node*7 + i) % 41), rdf.TermID(node), rdf.TermID(i)})
				}
				emit.EmitAll(0, 0, rows, []int{0})
			},
			func(node int, m *Meter, g Group, out *Block) {
				m.Check(g.Len()*2 + 1)
				m.Join(g.Len())
				out.Append(Row{rdf.TermID(g.KeyCell(0)), rdf.TermID(g.Len())})
			})
		reduce := j.ReduceRange
		j.ReduceRange = func(node, rng, ranges, lane int, m *Meter, groups *Groups, out *Block) {
			reduceCalls.Add(1)
			reduce(node, rng, ranges, lane, m, groups, out)
		}
		return j
	}
	type result struct {
		rows     [][]Row
		stats    JobStats
		replayed JobStats
		work     float64
	}
	run := func(lanes int) result {
		cl := wordCountCluster(nodes)
		rec := &JobRecord{}
		out := runOn(t, cl, lanes, job(cl), rec)
		cl2 := wordCountCluster(nodes)
		return result{out, cl.Jobs[0], cl2.Replay("classic", rec), cl.TotalWork()}
	}
	want := run(0)
	if want.stats != want.replayed {
		t.Errorf("nil pool: replay differs:\n got %+v\nwant %+v", want.replayed, want.stats)
	}
	if n := reduceCalls.Swap(0); n != nodes {
		t.Errorf("nil pool: %d reduce ranges, want one per node (%d)", n, nodes)
	}
	for _, lanes := range []int{1, 2, 4} {
		got := run(lanes)
		if lanes > 1 {
			// The sink takes the ranges of a node on several lanes.
			got.rows, want.rows = multiset(got.rows), multiset(want.rows)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("width %d differs from the nil pool:\n got %+v\nwant %+v", lanes, got, want)
		}
		if n := reduceCalls.Swap(0); lanes > 1 && n <= nodes {
			t.Errorf("width %d: %d reduce ranges, want a node's groups split across key ranges (> %d)", lanes, n, nodes)
		}
	}
}

// TestWidthOnePool runs on a pool that spawned no workers.
func TestWidthOnePool(t *testing.T) {
	cl := wordCountCluster(4)
	out := runOn(t, cl, 1, countJob(cl), nil)
	if count(out) == 0 {
		t.Error("no output")
	}
}

func TestPanicPropagates(t *testing.T) {
	cl := wordCountCluster(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recover() = %v, want boom", r)
		}
	}()
	runOn(t, cl, 4, ClassicJob("panics", func(node int, m *Meter, emit *Emitter, out *Block) {
		if node == 2 {
			panic("boom")
		}
	}, nil), nil)
}

// TestOutputRowsOrderedByNode holds the sink to the node whose rows it
// takes, at every lane count.
func TestOutputRowsOrderedByNode(t *testing.T) {
	for _, lanes := range []int{0, 1, 2, 4} {
		cl := wordCountCluster(3)
		out := runOn(t, cl, lanes, ClassicJob("pernode", func(node int, m *Meter, emit *Emitter, outF *Block) {
			outF.Append(Row{rdf.TermID(node)})
		}, nil), nil)
		for i, rs := range out {
			if len(rs) != 1 || rs[0][0] != rdf.TermID(i) {
				t.Errorf("%d lanes: node %d's rows %v, want its own id in one row", lanes, i, rs)
			}
		}
	}
}
