package cliquesquare

// Pins of the cost-based choice: for the 14 LUBM queries at two scales
// and a seeded set of synthetic shapes, how many unique candidates the
// optimizer produced, which one the Section 5.4 model chose, the bits of
// its cost and its signature. The file was captured at commit d162105,
// when every candidate was a *core.Op tree classified into a map to be
// priced; pricing over an interned core.Space must reproduce it bit for
// bit, through both of its entrances.
//
// Regenerate (only when the cost model itself changes, never to paper
// over a pricing refactor) with:
//
//	go test -run TestChoicePins -update-choice-pins .

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
)

var updateChoicePins = flag.Bool("update-choice-pins", false, "rewrite testdata/choice_pins.json from the current optimizer and cost model")

const choicePinsPath = "testdata/choice_pins.json"

type choicePin struct {
	Unique    int    `json:"unique"`
	Chosen    int    `json:"chosen"`
	CostBits  uint64 `json:"cost_bits"`
	Signature string `json:"signature"`
}

// choiceCase is one pinned choice: a query, the graph its statistics
// come from, and the name it is pinned under.
type choiceCase struct {
	name string
	g    *rdf.Graph
	q    *sparql.Query
}

// qgenGraph is a seeded random graph over the ten predicates qgen's
// queries use, with a different size and fan-out per predicate so that
// candidates of one query price differently.
func qgenGraph() *rdf.Graph {
	rng := rand.New(rand.NewSource(7))
	g := rdf.NewGraph()
	for p := 0; p < 10; p++ {
		for i := 0; i < 20+13*p; i++ {
			g.AddSPO(fmt.Sprintf("n%d", rng.Intn(12+3*p)), fmt.Sprintf("http://qgen/p%d", p), fmt.Sprintf("n%d", rng.Intn(40-3*p)))
		}
	}
	return g
}

func choiceCases() []choiceCase {
	var cases []choiceCase
	for _, univ := range []int{1, 6} {
		g := lubm.Generate(lubm.DefaultConfig(univ))
		for _, q := range lubm.Queries() {
			cases = append(cases, choiceCase{fmt.Sprintf("lubm%d/%s", univ, q.Name), g, q})
		}
	}
	g := qgenGraph()
	rng := rand.New(rand.NewSource(11))
	for _, sh := range qgen.Shapes {
		for _, n := range []int{3, 5, 7, 9} {
			q := qgen.Generate(sh, n, rng)
			cases = append(cases, choiceCase{"qgen/" + q.Name, g, q})
		}
	}
	return cases
}

// choiceOptions are the engine's default optimizer bounds without the
// wall-clock one, so the candidate sets are reproducible.
func choiceOptions() core.Options {
	cfg := csq.DefaultConfig()
	return core.Options{Method: cfg.Method, MaxPlans: cfg.MaxPlans, MaxCoversPerStep: cfg.MaxCoversPerStep}
}

// TestChoicePins makes every pinned choice through both entrances of the
// one pricing walk — the slice of plan trees (interned into a transient
// space) and the space an engine would keep for the shape, its winner
// materialised — and requires both to reproduce the pin.
func TestChoicePins(t *testing.T) {
	got := make(map[string]choicePin)
	for _, tc := range choiceCases() {
		res, err := core.Optimize(tc.q, choiceOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := cost.NewModel(csq.DefaultConfig().Constants, cost.NewStats(tc.g, tc.q))
		best, idx, c := m.ChooseIndexed(res.Unique)
		got[tc.name] = choicePin{Unique: len(res.Unique), Chosen: idx, CostBits: math.Float64bits(c), Signature: best.Signature()}

		sp := res.Space()
		sidx, sc := m.ChooseSpace(sp)
		winner, err := sp.Plan(tc.q, sidx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if viaSpace := (choicePin{sp.Candidates(), sidx, math.Float64bits(sc), winner.Signature()}); viaSpace != got[tc.name] {
			t.Errorf("%s: %+v chosen from the space, %+v from the plans", tc.name, viaSpace, got[tc.name])
		}
	}
	if *updateChoicePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(choicePinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(choicePinsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]choicePin)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name, w := range want {
			if g := got[name]; g != w {
				t.Errorf("%s: chose %+v, pinned %+v", name, g, w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d choices made, %d pinned", len(got), len(want))
		}
	}
}
