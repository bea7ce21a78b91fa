package cliquesquare

// The equivalence oracle of the result boundary. A finished result
// reaches its consumer in three forms — the borrowed source
// ExecContext.Run lends (the context's sorted parts, merged again as they
// are read from the nearest merge mark, or a cache entry's packed rows,
// decoded from the nearest restart), the materialised rows Execute
// returns, and the strings the facade decodes from the source on the
// context's lanes, each range from a mark of its own — and all three
// must be the same rows, with the same JobStats, at every lane count
// and whatever the result cache did.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/rescache"
	"cliquesquare/internal/sparql"
)

// renderedIDs inverts the dictionary: a decoded cell back to its id.
func renderedIDs(d *rdf.Dict) map[string]rdf.TermID {
	ids := make(map[string]rdf.TermID, d.Len())
	for id := rdf.TermID(1); int(id) <= d.Len(); id++ { // ids are dense from 1
		ids[d.Rendered(id)] = id
	}
	return ids
}

// encodeRows re-encodes a facade answer into the ids it was decoded
// from.
func encodeRows(t *testing.T, ids map[string]rdf.TermID, rows [][]string) []mapreduce.Row {
	t.Helper()
	out := make([]mapreduce.Row, len(rows))
	for i, row := range rows {
		out[i] = make(mapreduce.Row, len(row))
		for j, cell := range row {
			id, ok := ids[cell]
			if !ok {
				t.Fatalf("row %d: cell %q is no rendered term of the dictionary", i, cell)
			}
			out[i][j] = id
		}
	}
	return out
}

// sourceQueries is a seeded set of qgen shapes over qgenGraph's
// predicates: chains, stars, thin and dense random queries of 2 to 6
// patterns, half of them selecting every variable (wide rows), half the
// generator's single one (heavy duplication before the dedupe).
func sourceQueries() []*sparql.Query {
	rng := rand.New(rand.NewSource(23))
	var qs []*sparql.Query
	for _, sh := range qgen.Shapes {
		for _, n := range []int{2, 3, 4, 6} {
			q := qgen.Generate(sh, n, rng)
			if n%2 == 0 {
				q.Select = q.Vars()
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// answer is one reading of a result: its rows' digest and count, and
// the JobStats beside them.
type answer struct {
	hash string
	rows int
	jobs []mapreduce.JobStats
}

func (a answer) equal(b answer) bool {
	return a.hash == b.hash && a.rows == b.rows && reflect.DeepEqual(a.jobs, b.jobs)
}

// TestResultSourceEquivalence runs every flat and best-linear plan of
// the golden LUBM fixture and of a seeded set of qgen shapes at 1, 2 and
// 4 lanes with the result cache off, missing and hitting, and reads
// each result both ways: through the borrowed source and through
// Execute's materialised rows. Every reading must equal the reference,
// the one-lane uncached Execute — which, where there is a golden pin,
// must match it (pinDrift).
func TestResultSourceEquivalence(t *testing.T) {
	type fixture struct {
		name   string
		f      *lifetimeFixture
		golden bool
	}
	qq := sourceQueries()
	fixtures := []fixture{
		{"lubm", newLifetimeFixture(t), true},
		{"qgen", newPlanFixture(t, qgenGraph(), qq), false},
	}
	nonEmpty := 0
	for _, fx := range fixtures {
		f := fx.f
		for variant, plans := range map[string]map[string]*physical.Plan{"flat": f.flat, "linear": f.linear} {
			for name, pp := range plans {
				label := fmt.Sprintf("%s/%s/%s", fx.name, variant, name)
				r := f.execute(t, nil, nil, pp)
				want := answer{hashRows(r.Rows), len(r.Rows), r.Jobs}
				if fx.golden {
					pin := f.golden.Flat[name]
					if variant == "linear" {
						pin = f.golden.Linear[name]
					}
					var d pinDrift
					if err := d.check(want.jobs, pin.Jobs); err != nil || want.hash != pin.RowHash || want.rows != pin.Rows {
						t.Errorf("%s: the reference reads %d rows, golden %d, or other rows or JobStats (%v)", label, want.rows, pin.Rows, err)
					}
				} else if len(r.Rows) > 0 {
					nonEmpty++
				}
				for _, lanes := range []int{1, 2, 4} {
					ctx := physical.NewExecContext(lanes, f.cfg.Constants)
					// One cache per entrance, so that each sees a miss and
					// then a hit of its own; nil is the uncached reading.
					for _, rc := range []*rescache.Cache{nil, rescache.New(64 << 20)} {
						for pass := 0; pass < passes(rc); pass++ {
							var borrowed answer
							err := f.run(ctx, rc, pp, func(r *physical.Result, rows physical.Rows) error {
								if r.Rows != nil || r.N != rows.Len() {
									t.Errorf("%s: Run handed a Result with %d materialised rows and N = %d beside a source of %d", label, len(r.Rows), r.N, rows.Len())
								}
								borrowed = answer{hashSource(rows), rows.Len(), r.Jobs}
								return nil
							})
							if err != nil {
								t.Fatalf("%s: run: %v", label, err)
							}
							if !borrowed.equal(want) {
								t.Errorf("%s, lanes %d, cache %v, pass %d: the borrowed source reads %d rows, want %d, or other rows or JobStats",
									label, lanes, rc != nil, pass, borrowed.rows, want.rows)
							}
						}
					}
					for _, rc := range []*rescache.Cache{nil, rescache.New(64 << 20)} {
						for pass := 0; pass < passes(rc); pass++ {
							r := f.execute(t, ctx, rc, pp)
							if got := (answer{hashRows(r.Rows), len(r.Rows), r.Jobs}); !got.equal(want) || r.N != len(r.Rows) {
								t.Errorf("%s, lanes %d, cache %v, pass %d: Execute returns %d rows (N = %d), want %d, or other rows or JobStats",
									label, lanes, rc != nil, pass, len(r.Rows), r.N, want.rows)
							}
						}
					}
				}
			}
		}
	}
	if nonEmpty < len(qq)/2 {
		t.Errorf("only %d of the qgen plans answer any row: the shapes do not exercise the boundary", nonEmpty)
	}
}

// passes is how often the oracle repeats an execution: once without a
// result cache, three times with one — a miss, then hits.
func passes(rc *rescache.Cache) int {
	if rc == nil {
		return 1
	}
	return 3
}

// TestFacadeDecodesTheSource is the facade's side of the oracle: the
// [][]string an Engine.Query returns, re-encoded through the
// dictionary, is the rows the plan's Execute materialises — the golden
// ones for LUBM — with the same job count and simulated time, at 1, 2
// and 4 lanes, result cache off, missing and hitting.
func TestFacadeDecodesTheSource(t *testing.T) {
	lubmF := newLifetimeFixture(t)
	qq := sourceQueries()
	qgenF := newPlanFixture(t, qgenGraph(), qq)
	for _, fx := range []struct {
		f       *lifetimeFixture
		queries []*sparql.Query
	}{{lubmF, lubm.Queries()}, {qgenF, qq}} {
		ids := renderedIDs(fx.f.g.Dict)
		for _, lanes := range []int{1, 2, 4} {
			for _, cacheBytes := range []int64{0, 64 << 20} {
				eng, err := NewEngine(fx.f.g, Options{Parallelism: lanes, ResultCacheBytes: cacheBytes})
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range fx.queries {
					ref := fx.f.execute(t, nil, nil, fx.f.flat[q.Name])
					if pin, ok := fx.f.golden.Flat[q.Name]; ok && hashRows(ref.Rows) != pin.RowHash {
						t.Fatalf("%s: the reference execution is not the golden one", q.Name)
					}
					for pass := 0; pass < 3; pass++ { // with a cache: a miss, then hits
						res, err := eng.Run(q)
						if err != nil {
							t.Fatalf("%s: %v", q.Name, err)
						}
						if got := encodeRows(t, ids, res.Rows); hashRows(got) != hashRows(ref.Rows) || len(got) != len(ref.Rows) {
							t.Errorf("%s, lanes %d, cache %d, pass %d: the facade decoded %d rows, the plan answers %d, or other ones",
								q.Name, lanes, cacheBytes, pass, len(got), len(ref.Rows))
						}
						if res.Jobs != len(ref.Jobs) || res.SimulatedTime != time.Duration(ref.Time)*time.Microsecond {
							t.Errorf("%s, lanes %d, cache %d, pass %d: %d jobs in %v, the plan runs %d in %v",
								q.Name, lanes, cacheBytes, pass, res.Jobs, res.SimulatedTime, len(ref.Jobs), time.Duration(ref.Time)*time.Microsecond)
						}
					}
				}
				if st := eng.ResultCacheStats(); cacheBytes > 0 && st.Hits == 0 {
					t.Errorf("lanes %d: no request was served from the result cache", lanes)
				}
				eng.Close()
			}
		}
	}
}

// TestParallelDecodeIsPositional decodes an answer large enough for the
// lanes (Q1 at 6 universities: above parallelSortMin) on one lane and on
// four, executed and served from the result cache: a row's number fixes
// its place in the index and the slab, so the answers are deeply equal.
func TestParallelDecodeIsPositional(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(6))
	q1, _ := lubm.Query("Q1")
	var want [][]string
	for _, lanes := range []int{1, 4} {
		for _, cacheBytes := range []int64{0, 64 << 20} {
			eng, err := NewEngine(g, Options{Parallelism: lanes, ResultCacheBytes: cacheBytes})
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				res, err := eng.Run(q1)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) < 4096 {
					t.Fatalf("Q1 answers %d rows, the test needs a result the lanes share", len(res.Rows))
				}
				if want == nil {
					want = res.Rows
				} else if !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("lanes %d, cache %d, pass %d: the decoded answer differs from the one-lane uncached one", lanes, cacheBytes, pass)
				}
			}
			eng.Close()
		}
	}
}
