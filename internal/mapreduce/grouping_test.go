package mapreduce

// Property tests pinning the flat shuffle path to the retained
// string-keyed reference implementation (reference_test.go): the
// sorted-record grouping must present exactly the same (group →
// records) multisets, in exactly the seed's sorted-string key order,
// every record must land on the node the seed's routing picked, and
// the shuffle must keep nothing per tuple but its cells.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// randomTuples builds a batch with deliberately colliding keys: small
// group/cell ranges and mixed key widths, zero (an empty key) to six.
// The key columns are the row's leading cells.
func randomTuples(rng *rand.Rand, n int) []tuple {
	ts := make([]tuple, n)
	for i := range ts {
		width := rng.Intn(7)
		row := make(Row, width+2)
		cols := make([]int, width)
		for j := range cols {
			// Values straddling byte boundaries so byte-swapped order
			// differs from numeric order.
			row[j] = rdf.TermID(rng.Intn(5)) * 0x01010101
			cols[j] = j
		}
		row[width], row[width+1] = rdf.TermID(i), rdf.TermID(rng.Intn(100))
		ts[i] = tuple{group: uint32(rng.Intn(4)), tag: rng.Intn(2), row: row, cols: cols}
	}
	return ts
}

// tupleID renders a (tag, row) pair for multiset comparison.
func tupleID(tag int, row Row) string { return fmt.Sprintf("t%d|%v", tag, row) }

// sameMultiset reports whether a group's records are exactly the
// reference's tuples, in any order.
func sameMultiset(g Group, want []tuple) bool {
	if g.Len() != len(want) {
		return false
	}
	var a, b []string
	g.Records(func(tag int, row Row) { a = append(a, tupleID(tag, row)) })
	for _, tu := range want {
		b = append(b, tupleID(tu.tag, tu.row))
	}
	sort.Strings(a)
	sort.Strings(b)
	return reflect.DeepEqual(a, b)
}

// TestSortedGroupingMatchesReference cross-checks the radix-sorted
// grouping against the seed's map-based grouping: same groups, same
// per-group record multisets, groups visited in the seed's
// sorted-string order.
func TestSortedGroupingMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		ts := randomTuples(rng, rng.Intn(300))
		ref := ReferenceGroups(ts)
		refOrder := ReferenceOrder(ref)

		bk := emitAll(1, ts)
		// One run header per change of shape from one tuple to the next.
		runs := 0
		for i, tu := range ts {
			if i == 0 || tu.group != ts[i-1].group || tu.tag != ts[i-1].tag ||
				len(tu.cols) != len(ts[i-1].cols) || len(tu.row) != len(ts[i-1].row) {
				runs++
			}
		}
		if len(bk[0].runs) != runs {
			t.Fatalf("trial %d: %d run headers over %d tuples, want %d", trial, len(bk[0].runs), len(ts), runs)
		}
		groups := reduceInput(bk, 0)
		if groups.Records() != len(ts) {
			t.Fatalf("trial %d: %d records, emitted %d", trial, groups.Records(), len(ts))
		}

		gotOrder := []string{}
		groups.Each(func(g Group) {
			enc := encodeKey(g)
			gotOrder = append(gotOrder, enc)
			want, ok := ref[enc]
			if !ok {
				t.Fatalf("trial %d: group %q not in reference", trial, enc)
			}
			if !sameMultiset(g, want) {
				t.Fatalf("trial %d: group %q record multisets differ", trial, enc)
			}
			if g.ID() != want[0].group || g.KeyLen() != len(want[0].cols) {
				t.Fatalf("trial %d: group %q reports id %d and %d key cells", trial, enc, g.ID(), g.KeyLen())
			}
			// A tuple's key cells are its row's leading cells.
			g.Records(func(_ int, row Row) {
				key := make([]uint32, g.KeyLen())
				for k := range key {
					key[k] = uint32(row[k])
				}
				if EncodeKey(int(g.ID()), key) != enc {
					t.Fatalf("trial %d: group %q holds mixed keys", trial, enc)
				}
			})
		})
		if !reflect.DeepEqual(gotOrder, refOrder) {
			t.Fatalf("trial %d: groups visited as %q, reference order wants %q", trial, gotOrder, refOrder)
		}
	}
}

// TestFlatShuffleMatchesReference runs whole jobs — several morsels per
// node, at one, two and four lanes — and checks each node's reduce
// input against the reference: every tuple arrives at the node the
// seed's routing picks, and each node sees the reference's groups, with
// the reference's records, in the reference's order.
func TestFlatShuffleMatchesReference(t *testing.T) {
	const nodes, morsels = 3, 4
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// One batch per (node, morsel).
		batches := make([][]tuple, nodes*morsels)
		perDest := make([][]tuple, nodes)
		for i := range batches {
			batches[i] = randomTuples(rng, rng.Intn(120))
			for _, tu := range batches[i] {
				dest := ReferenceRoute(tu.encode()) % nodes
				perDest[dest] = append(perDest[dest], tu)
			}
		}
		for _, lanes := range []int{1, 2, 4} {
			// got[node][rng] lists the groups a range saw, in order.
			type seen struct {
				enc string
				ids []string
			}
			got := make([][][]seen, nodes)
			for i := range got {
				got[i] = make([][]seen, lanes)
			}
			job := Job{
				Name:       "shuffle",
				MapMorsels: func(int) int { return morsels },
				MapMorsel: func(node, morsel, _ int, _ *Meter, emit *Emitter, _ *Block) {
					emitTuples(emit, batches[node*morsels+morsel])
				},
				ReduceRange: func(node, r, _, _ int, _ *Meter, groups *Groups, _ *Block) {
					groups.Each(func(g Group) {
						s := seen{enc: encodeKey(g)}
						g.Records(func(tag int, row Row) { s.ids = append(s.ids, tupleID(tag, row)) })
						sort.Strings(s.ids)
						got[node][r] = append(got[node][r], s)
					})
				},
			}
			cl := wordCountCluster(nodes)
			runOn(t, cl, lanes, job, nil)
			for node := 0; node < nodes; node++ {
				ref := ReferenceGroups(perDest[node])
				var want []seen
				for _, enc := range ReferenceOrder(ref) {
					s := seen{enc: enc}
					for _, tu := range ref[enc] {
						s.ids = append(s.ids, tupleID(tu.tag, tu.row))
					}
					sort.Strings(s.ids)
					want = append(want, s)
				}
				var flat []seen
				for _, r := range got[node] {
					flat = append(flat, r...)
				}
				if !reflect.DeepEqual(flat, want) {
					t.Fatalf("trial %d, %d lanes, node %d: reduce input differs from the reference\n got %v\nwant %v",
						trial, lanes, node, flat, want)
				}
			}
		}
	}
}

// TestKeyPathAllocationFree pins the allocation contract of the
// emission path: hashing, routing, writing the cells and the run header
// cost zero heap allocations per tuple once the buckets have grown —
// whatever the key width — and so does comparing two tuples' keys where
// they lie.
func TestKeyPathAllocationFree(t *testing.T) {
	row := Row{9, 8, 7, 6, 5, 4}
	bk := make([]bucket, 7)
	e := &Emitter{sc: &Scratch{n: 7, Bufs: new(Bufs)}, unit: &slot{}, buckets: bk}
	rows := Block{Width: len(row), N: 64, Cells: make([]rdf.TermID, 64*len(row))}
	for _, cols := range [][]int{{1}, {2, 0, 3}, {0, 1, 2, 3, 4, 5}} {
		emit := func() {
			for i := range bk {
				bk[i].runs, bk[i].cells = bk[i].runs[:0], bk[i].cells[:0]
			}
			for i := 0; i < 64; i++ {
				row[cols[0]] = rdf.TermID(i)
				copy(rows.Row(i), row)
			}
			e.EmitAll(3, 1, rows, cols)
		}
		emit() // grow the buckets
		if n := testing.AllocsPerRun(100, emit); n != 0 {
			t.Errorf("EmitAll (%d key cells): %v allocs per 64 tuples, want 0", len(cols), n)
		}
	}
	one := emitAll(1, []tuple{
		{group: 1, row: row, cols: []int{0, 1, 2, 3, 4}},
		{group: 1, row: row, cols: []int{0, 1, 2, 3, 4}},
	})
	r, cells := &one[0].runs[0], one[0].cells
	if n := testing.AllocsPerRun(1000, func() {
		if compareKeys(r, cells, 0, r, cells, 1) != 0 {
			t.Fatal("a key does not equal its copy")
		}
	}); n != 0 {
		t.Errorf("compareKeys: %v allocs/op, want 0", n)
	}
}

// TestRecordIsSmallAndPointerFree pins what makes the shuffle buffers
// cheap to hold and to sort: a tuple's cells and nothing per tuple
// beside them. The one header a run of tuples carries is at most 32
// bytes and holds no pointer, so the collector never scans a bucket.
// Whole jobs — 3 nodes, 4 map morsels each emitting one block, at one,
// two and four lanes — leave a top high-water mark in the pool of
// exactly the bucket cells plus one run header per bucket a morsel
// filled, and reduce every tuple once.
func TestRecordIsSmallAndPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(run{}); sz > 32 {
		t.Errorf("run header is %d bytes, want <= 32", sz)
	}
	var fields func(rt reflect.Type)
	fields = func(rt reflect.Type) {
		for i := 0; i < rt.NumField(); i++ {
			switch f := rt.Field(i); f.Type.Kind() {
			case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
				reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			case reflect.Struct:
				fields(f.Type)
			default:
				t.Errorf("%s.%s is a %v: only fixed-size integers keep the run header pointer-free", rt.Name(), f.Name, f.Type.Kind())
			}
		}
	}
	fields(reflect.TypeOf(run{}))

	const nodes, morsels = 3, 4
	words := func(n, size int) int { return (n*size + 7) / 8 }
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		blocks := make([]Block, nodes*morsels)
		keyCols := make([][]int, len(blocks))
		want, tuples := 0, 0
		for i := range blocks {
			w, nkey := 2+rng.Intn(3), rng.Intn(3)
			keyCols[i] = rng.Perm(w)[:nkey]
			perDest := make([]int, nodes)
			for n := rng.Intn(200); n > 0; n-- {
				row := make(Row, w)
				for j := range row {
					row[j] = rdf.TermID(rng.Intn(50))
				}
				blocks[i].Append(row)
				tu := tuple{group: uint32(i % 2), row: row, cols: keyCols[i]}
				perDest[ReferenceRoute(tu.encode())%nodes]++
			}
			for _, k := range perDest {
				if k > 0 {
					want += words(k*(stored(uint16(nkey))+w), 4) + words(1, int(unsafe.Sizeof(run{})))
				}
			}
			tuples += blocks[i].N
		}
		for _, lanes := range []int{1, 2, 4} {
			var p Bufs
			var reduced atomic.Int64 // ranges run concurrently
			job := Job{
				Name:       "cells",
				MapMorsels: func(int) int { return morsels },
				MapMorsel: func(node, morsel, _ int, _ *Meter, emit *Emitter, _ *Block) {
					i := node*morsels + morsel
					emit.EmitAll(uint32(i%2), i%3, blocks[i], keyCols[i])
				},
				ReduceRange: func(_, _, _, _ int, _ *Meter, groups *Groups, _ *Block) {
					groups.Each(func(g Group) { reduced.Add(int64(g.Len())) })
				},
			}
			cl := wordCountCluster(nodes)
			cl.RunWith(job, RunOptions{Pool: NewPool(lanes), Scratch: &Scratch{Bufs: &p}})
			if p.peak != want || int(reduced.Load()) != tuples {
				t.Fatalf("trial %d, %d lanes: the shuffle's top reached %d words, want %d of cells and run headers; %d of %d tuples reduced",
					trial, lanes, p.peak, want, reduced.Load(), tuples)
			}
		}
	}
}

// TestSortRecordsAllocationFree pins the reduce-side grouping: sorting
// the runs at the map side and merging them at the reducer, keys of
// zero to six cells included, allocate nothing on a warm lane arena.
func TestSortRecordsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bk := emitAll(1, randomTuples(rng, 512))
	emitted := slices.Clone(bk[0].cells)
	var p Bufs
	a := p.Lane(0)
	sortRuns(bk, a) // grow the arena
	(&Groups{bk: bk, n: 1, mem: a}).Each(func(Group) {})
	p.Reset()
	groups := 0
	if n := testing.AllocsPerRun(100, func() {
		copy(bk[0].cells, emitted)
		sortRuns(bk, a)
		a.Cut(0)
		groups = 0
		(&Groups{bk: bk, n: 1, mem: a}).Each(func(Group) { groups++ })
		a.Cut(0)
	}); n != 0 || groups == 0 {
		t.Errorf("sorting the runs of 512 tuples and merging them into %d groups: %v allocs/op, want 0", groups, n)
	}
}
