package csq

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/sparql"
)

// freshPrepare plans q on e sharing nothing with e's planners: an
// enumeration of its own (counted in e's Enumerations), priced under a
// snapshot of a fresh catalog filled from e's current view, the winner
// compiled and bound. It is the oracle of the tests that check the
// shared plan spaces, the catalog and the plan cache, so it uses none of
// them.
func freshPrepare(t *testing.T, e *Engine, q *sparql.Query) *Prepared {
	t.Helper()
	res, err := e.enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	v := e.part.Current()
	st := cost.NewCatalog(v, v.Version()).Snapshot(e.dict, q)
	sh := &shapePlans{space: res.Space()}
	idx, c := cost.NewModel(e.cfg.Constants, st).ChooseSpace(sh.space)
	pp, err := e.compiled(sh, q, idx)
	if err != nil {
		t.Fatal(err)
	}
	pp = pp.Bind(q)
	return &Prepared{
		Query: q, Logical: pp.Logical, Physical: pp, Height: pp.Logical.Height(),
		PlansExplored: sh.space.Explored, UniquePlans: sh.space.Candidates(),
		DataVersion: st.Version(), chosenIdx: idx, chosenCost: c, stats: st,
	}
}

// sameChoice requires got, prepared through shared plan spaces, to be the
// Prepared want freshPrepare built for the same query.
func sameChoice(t *testing.T, label string, got, want *Prepared) {
	t.Helper()
	if got.Logical.Signature() != want.Logical.Signature() || got.Physical.Key() != want.Physical.Key() ||
		got.PlansExplored != want.PlansExplored || got.UniquePlans != want.UniquePlans ||
		got.chosenIdx != want.chosenIdx || got.chosenCost != want.chosenCost {
		t.Errorf("%s: prepared candidate %d of %d/%d (%s), a fresh engine candidate %d of %d/%d (%s)", label,
			got.chosenIdx, got.UniquePlans, got.PlansExplored, got.Logical.Signature(),
			want.chosenIdx, want.UniquePlans, want.PlansExplored, want.Logical.Signature())
	}
}

// TestSpaceSharingOracle races the first requests of six templates over
// twenty universities on one engine: whichever query of a shape arrives
// first enumerates, once, and every other plans from its space — to the
// Prepared freshPrepare builds for the same query, with its rows and
// JobStats. Commits that move the statistics
// then re-price the same six spaces. Under -race this is also the check
// that a Space is never written after construction.
func TestSpaceSharingOracle(t *testing.T) {
	const lanes, universities = 8, 20
	lc := lubm.DefaultConfig(universities)
	lc.DeptsPerUniv, lc.Undergrads, lc.Grads = 1, 8, 4
	g := lubm.Generate(lc)
	eng := New(g, DefaultConfig())

	var qs []*sparql.Query
	for c := 0; c < universities; c++ {
		qs = append(qs, coldTemplates(t, c)...)
	}
	// check prepares every query on eng from each of the lanes, each
	// starting elsewhere so that first requests of one shape meet with
	// different constants, and compares the queries of the universities
	// in [from, to) — each lane executing its share of them — with
	// freshPrepare on a second engine over the same data.
	check := func(stage string, from, to int) {
		fresh := New(g, DefaultConfig())
		wantP, wantR := make([]*Prepared, len(qs)), make([]*physical.Result, len(qs))
		for i := 6 * from; i < 6*to; i++ {
			wantP[i] = freshPrepare(t, fresh, qs[i])
			r, err := fresh.ExecutePrepared(wantP[i])
			if err != nil {
				t.Fatal(err)
			}
			wantR[i] = r
		}
		if n := fresh.UpdateStats().Enumerations; n != uint64(6*(to-from)) {
			t.Fatalf("the fresh engine enumerated %d times for %d prepares", n, 6*(to-from))
		}
		var wg sync.WaitGroup
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range qs {
					i := (k + lane*len(qs)/lanes) % len(qs)
					p, _, err := eng.PrepareCached(qs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if wantP[i] == nil {
						continue
					}
					sameChoice(t, stage+" "+qs[i].Name, p, wantP[i])
					if i%lanes != lane {
						continue
					}
					r, err := eng.ExecutePrepared(p)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(r.Rows, wantR[i].Rows) || !reflect.DeepEqual(r.Jobs, wantR[i].Jobs) {
						t.Errorf("%s %s: rows or JobStats differ from a fresh prepare's (%d rows vs %d)",
							stage, qs[i].Name, len(r.Rows), len(wantR[i].Rows))
					}
				}
			}()
		}
		wg.Wait()
	}

	check("racing", 0, universities)
	us := eng.UpdateStats()
	if us.Enumerations != 6 || us.Spaces != 6 || us.SpaceBytes == 0 {
		t.Fatalf("after %d cold prepares of 6 shapes: %+v; want 6 enumerations and 6 resident spaces", len(qs), us)
	}
	if misses := eng.CacheStats().Misses; misses != uint64(len(qs)) {
		t.Errorf("%d plan-cache misses for %d distinct queries", misses, len(qs))
	}

	before := prepareAll(t, eng, qs)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		ins, dels := randomBatch(rng, g, round)
		if _, err := eng.ApplyBatch(ins, dels); err != nil {
			t.Fatal(err)
		}
		mutate(g, ins, dels)
		check("after a commit", 6*round, 6*round+6) // a third of the universities per round
	}
	repriced := 0
	for i, p := range prepareAll(t, eng, qs) {
		if p.stats != before[i].stats {
			repriced++
		}
	}
	us = eng.UpdateStats()
	if repriced == 0 || us.Revalidations == 0 || us.Enumerations != 6 {
		t.Errorf("after three commits: %d plans re-priced, %+v; want some, by revalidation, and still 6 enumerations", repriced, us)
	}
}

// TestSpaceCarriesEnumerationBudget: the optimizer's budgets govern the
// one enumeration a shape gets as they governed each per-key run — a
// second constant plans from the same truncated space, with the counts
// an enumeration of its own (freshPrepare) reports for it.
func TestSpaceCarriesEnumerationBudget(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := DefaultConfig()
	cfg.MaxPlans = 10
	eng := New(g, cfg)
	fresh := New(g, cfg)
	for c := 0; c < 2; c++ {
		q := coldTemplates(t, c)[5] // Q14: 935 plans unbounded
		p, _, err := eng.PrepareCached(q)
		if err != nil {
			t.Fatal(err)
		}
		want := freshPrepare(t, fresh, q)
		if p.PlansExplored != 10 || p.PlansExplored != want.PlansExplored || p.UniquePlans != want.UniquePlans {
			t.Errorf("university %d: %d plans explored, %d unique; a fresh prepare %d and %d; MaxPlans is 10",
				c, p.PlansExplored, p.UniquePlans, want.PlansExplored, want.UniquePlans)
		}
		sameChoice(t, q.Name, p, want)
		if sh, ok := eng.spaces.Get(core.WrittenShape(q)); !ok || !sh.space.Truncated {
			t.Errorf("university %d: the shape's space is resident %v, want resident and marked truncated", c, ok)
		}
	}
	if n := eng.UpdateStats().Enumerations; n != 1 {
		t.Errorf("%d enumerations for two constants of one shape", n)
	}
}
