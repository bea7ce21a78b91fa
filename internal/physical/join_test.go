package physical

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// rowRel is a relation in row form: the shape the executor had before
// its data plane went flat, kept as the reference's input.
type rowRel struct {
	schema []string
	rows   []mapreduce.Row
}

// flat renders r as the executor's flat block.
func (r rowRel) flat() mapreduce.Block {
	rel := mapreduce.Block{Width: len(r.schema)}
	for _, row := range r.rows {
		rel.Append(row)
	}
	return rel
}

// refJoin is the reference n-ary join: nested loops over every
// combination of one row per child, kept when all children agree on
// every attribute two or more of them carry, projected onto attrs
// (each taken from the first child providing it), in the loops' order.
func refJoin(children []rowRel, attrs []string) []string {
	var out []string
	pick := make([]mapreduce.Row, len(children))
	var rec func(i int)
	rec = func(i int) {
		if i < len(children) {
			for _, row := range children[i].rows {
				pick[i] = row
				rec(i + 1)
			}
			return
		}
		bound := map[string]rdf.TermID{}
		for ci, c := range children {
			for col, a := range c.schema {
				if v, ok := bound[a]; ok && v != pick[ci][col] {
					return
				}
				bound[a] = pick[ci][col]
			}
		}
		row := make(mapreduce.Row, len(attrs))
		for i, a := range attrs {
			row[i] = bound[a]
		}
		out = append(out, fmt.Sprint(row))
	}
	rec(0)
	return out
}

// checkJoin runs naryJoinInto, with the join compiled for the
// children's schemas, on their flat form — appending, as rows come, to
// a block that already holds a row — and compares rows and counts with
// the reference. When the first child is in order of the first join
// attribute, the rows must also come in the reference's order, as a
// stream of the first child probing the others would emit them.
func checkJoin(t *testing.T, a *arena, label string, children []rowRel, joinAttrs, attrs []string) {
	t.Helper()
	in := 0
	for _, c := range children {
		in += len(c.rows)
	}
	ordered := refJoin(children, attrs)
	want := slices.Clone(ordered)
	sort.Strings(want)
	inOrder := len(joinAttrs) == 0 || len(children) == 1 || slices.IsSortedFunc(children[0].rows, func(x, y mapreduce.Row) int {
		k := slices.Index(children[0].schema, joinAttrs[0])
		return cmp.Compare(x[k], y[k])
	})
	schemas := make([][]string, len(children))
	for i, c := range children {
		schemas[i] = c.schema
	}
	jp := newJoinPlan(schemas, joinAttrs, attrs)
	rels := make([]mapreduce.Block, len(children))
	for i, c := range children {
		rels[i] = c.flat()
	}
	var dst mapreduce.Block
	sentinel := make(mapreduce.Row, len(attrs))
	dst.Append(sentinel)
	counts := a.naryJoinInto(&dst, rels, jp)
	got := []string{}
	for i := 1; i < dst.N; i++ {
		got = append(got, fmt.Sprint(dst.Row(i)))
	}
	if inOrder && len(ordered) > 0 && !slices.Equal(got, ordered) {
		t.Fatalf("%s: rows out of the first child's order\n got %v\nwant %v", label, got, ordered)
	}
	sort.Strings(got)
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d rows, the nested-loop reference has %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	if counts.in != in || counts.out != len(want) {
		t.Fatalf("%s: counts %+v, want in %d out %d", label, counts, in, len(want))
	}
	if dst.Width != len(attrs) || len(dst.Cells) != dst.N*dst.Width || fmt.Sprint(dst.Row(0)) != fmt.Sprint(sentinel) {
		t.Fatalf("%s: the destination block is inconsistent: %d x %d over %d cells, first row %v", label, dst.N, dst.Width, len(dst.Cells), dst.Row(0))
	}
}

// randomRel draws n rows over schema from a small value domain, so keys
// collide and residual checks both pass and fail.
func randomRel(rng *rand.Rand, schema []string, n int) rowRel {
	r := rowRel{schema: schema}
	for i := 0; i < n; i++ {
		row := make(mapreduce.Row, len(schema))
		for j := range row {
			row[j] = rdf.TermID(rng.Intn(3))
		}
		r.rows = append(r.rows, row)
	}
	return r
}

// TestNaryJoinMatchesNestedLoops checks the flat join kernel against
// nested loops over seeded random relations: two to four children, keys
// of one, two, three and five attributes, attributes shared by some
// children but not joined on (the residual checks), private attributes,
// outputs that drop and reorder columns — all through one arena, so
// cursor and memo reuse across joins is covered too. The first 300
// trials draw their rows unordered, so the merge sorts them first; the
// next 150 draw children in order of the first join attribute, in long
// runs of one key (a single run when the key has one value, as in a
// reduce group), which the merge must take as they are — or, every
// other trial, shuffle all but the first, which the merge must sort
// stably to keep the first child's order.
func TestNaryJoinMatchesNestedLoops(t *testing.T) {
	a := &arena{mem: new(mapreduce.Arena)}
	for trial := 0; trial < 450; trial++ {
		keyed := trial >= 300
		shuffled := keyed && trial%2 == 1
		rng := rand.New(rand.NewSource(int64(trial)))
		nc := 2 + rng.Intn(3)
		if keyed {
			nc = 2 + rng.Intn(2) // runs are long: keep the nested loops small
		}
		joinAttrs := []string{"k0", "k1", "k2", "k3", "k4"}[:[]int{1, 2, 3, 5}[trial%4]]
		children := make([]rowRel, nc)
		union := append([]string(nil), joinAttrs...)
		for i := range children {
			schema := append([]string(nil), joinAttrs...)
			if rng.Intn(2) == 0 {
				schema = append(schema, "shared") // carried by some children only
			}
			if rng.Intn(3) == 0 {
				schema = append(schema, "shared2")
			}
			schema = append(schema, fmt.Sprintf("own%d", i))
			rng.Shuffle(len(schema), func(x, y int) { schema[x], schema[y] = schema[y], schema[x] })
			if keyed {
				children[i] = keyedRel(rng, schema, joinAttrs[0], 1+rng.Intn(4), 8+rng.Intn(25))
				if rows := children[i].rows; shuffled && i > 0 {
					rng.Shuffle(len(rows), func(x, y int) { rows[x], rows[y] = rows[y], rows[x] })
				}
			} else {
				children[i] = randomRel(rng, schema, rng.Intn(12))
			}
			for _, s := range schema {
				if !contains(union, s) {
					union = append(union, s)
				}
			}
		}
		rng.Shuffle(len(union), func(x, y int) { union[x], union[y] = union[y], union[x] })
		attrs := union[:rng.Intn(len(union)+1)]
		sorts := a.sorts
		checkJoin(t, a, fmt.Sprintf("trial %d", trial), children, joinAttrs, attrs)
		if keyed && !shuffled && a.sorts != sorts {
			t.Fatalf("trial %d: the merge sorted children that arrived in key order", trial)
		}
	}
	if a.sorts == 0 {
		t.Fatal("no unordered child was ever sorted")
	}
}

// keyedRel draws n rows over schema as randomRel does, but with the key
// column over keys values, and sorts them on it, stably: runs of one key
// about n/keys long.
func keyedRel(rng *rand.Rand, schema []string, key string, keys, n int) rowRel {
	r := randomRel(rng, schema, n)
	k := slices.Index(schema, key)
	for _, row := range r.rows {
		row[k] = rdf.TermID(rng.Intn(keys))
	}
	slices.SortStableFunc(r.rows, func(x, y mapreduce.Row) int { return cmp.Compare(x[k], y[k]) })
	return r
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// TestNaryJoinEdgeShapes pins the shapes a width-strided block could
// get wrong: a zero-width child (a fully bound pattern's matches carry
// no cells but multiply the output), a zero-width output, an empty
// child, and a single child.
func TestNaryJoinEdgeShapes(t *testing.T) {
	a := &arena{mem: new(mapreduce.Arena)}
	rng := rand.New(rand.NewSource(7))
	xy := randomRel(rng, []string{"x", "y"}, 9)
	yz := randomRel(rng, []string{"y", "z"}, 9)
	bound := rowRel{rows: []mapreduce.Row{{}, {}, {}}} // three matches, no variables
	none := rowRel{schema: []string{"y", "w"}}

	checkJoin(t, a, "zero-width child last", []rowRel{xy, bound}, nil, []string{"x", "y"})
	checkJoin(t, a, "zero-width child first", []rowRel{bound, xy}, nil, []string{"y"})
	checkJoin(t, a, "two zero-width children", []rowRel{bound, bound}, nil, nil)
	checkJoin(t, a, "zero-width output", []rowRel{xy, yz}, []string{"y"}, nil)
	checkJoin(t, a, "empty child", []rowRel{xy, none, yz}, []string{"y"}, []string{"x", "z"})
	checkJoin(t, a, "empty first child", []rowRel{none, xy}, []string{"y"}, []string{"x", "w"})
	checkJoin(t, a, "single child", []rowRel{xy}, []string{"y"}, []string{"y", "x"})
	checkJoin(t, a, "repeated variable", []rowRel{xy, randomRel(rng, []string{"y", "x"}, 9)}, []string{"y"}, []string{"x", "y"})
}

// TestNaryJoinFillsArenaBottom runs joins as a lane does: into a block
// at the bottom of the lane's arena that already holds rows, with a
// second child out of key order, so that sortOn carves its room from
// the arena's top and cuts it back while the block is half filled. Two
// joins append to the one block in turn; its rows must be the
// nested-loop reference's, in child 0's order, join after join. On a
// warm arena the block never moves: it grows in place across the sorts.
func TestNaryJoinFillsArenaBottom(t *testing.T) {
	var bufs mapreduce.Bufs
	a := &arena{mem: bufs.Lane(0)}
	schemas := [][]string{{"k", "a"}, {"b", "k"}}
	jp := newJoinPlan(schemas, []string{"k"}, []string{"a", "k", "b"})
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(1)) // every round the same joins
		dst := mapreduce.NewBlock(a.mem)
		dst.Append(mapreduce.Row{7, 7, 7})
		first := &dst.Cells[0]
		want := []string{fmt.Sprint(dst.Row(0))}
		sorts := a.sorts
		for join := 0; join < 2; join++ {
			children := []rowRel{keyedRel(rng, schemas[0], "k", 5, 40), keyedRel(rng, schemas[1], "k", 5, 40)}
			rows := children[1].rows
			rng.Shuffle(len(rows), func(x, y int) { rows[x], rows[y] = rows[y], rows[x] })
			want = append(want, refJoin(children, []string{"a", "k", "b"})...)
			rels := []mapreduce.Block{children[0].flat(), children[1].flat()}
			a.naryJoinInto(&dst, rels, jp)
		}
		got := make([]string, dst.N)
		for i := range got {
			got[i] = fmt.Sprint(dst.Row(i))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: the block holds\n%v\nwant\n%v", round, got, want)
		}
		if a.sorts != sorts+2 {
			t.Fatalf("round %d: %d children sorted, want 2", round, a.sorts-sorts)
		}
		if round > 0 && &dst.Cells[0] != first {
			t.Fatalf("round %d: the block moved on a warm arena", round)
		}
		bufs.Reset() // the first round sizes the arena for the others
	}
}
