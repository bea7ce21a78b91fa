// Social-network example: a synthetic follower graph with interests
// and locations, demonstrating why flat n-ary plans beat binary linear
// plans (Section 6.3 of the paper) on a non-LUBM workload. It executes
// the same 3-hop influence query under the MSC-chosen flat plan, the
// best binary bushy plan and the best binary linear plan, and prints
// the simulated response times side by side.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cliquesquare/internal/binplan"
	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
)

func buildGraph(users int, seed int64) *rdf.Graph {
	g := rdf.NewGraph()
	rng := rand.New(rand.NewSource(seed))
	interests := []string{"go", "databases", "semweb", "maps", "music"}
	cities := []string{"paris", "berlin", "lisbon"}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user%d", i)
		g.AddSPO(u, "type", "User")
		g.AddSPO(u, "livesIn", cities[rng.Intn(len(cities))])
		g.AddSPO(u, "interestedIn", interests[rng.Intn(len(interests))])
		for k := 0; k < 3+rng.Intn(4); k++ {
			g.AddSPO(u, "follows", fmt.Sprintf("user%d", rng.Intn(users)))
		}
		if rng.Intn(4) == 0 {
			p := fmt.Sprintf("post%d", i)
			g.AddSPO(u, "wrote", p)
			g.AddSPO(p, "about", interests[rng.Intn(len(interests))])
		}
	}
	return g
}

func main() {
	g := buildGraph(3000, 11)
	fmt.Printf("social graph: %d triples\n", g.Len())

	// Who in Paris follows someone who follows an author of a post
	// about databases?
	q, err := sparql.Parse(`SELECT ?reader ?author WHERE {
		?reader <livesIn> <paris> .
		?reader <follows> ?mid .
		?mid <follows> ?author .
		?author <wrote> ?post .
		?post <about> <databases> }`)
	if err != nil {
		log.Fatal(err)
	}
	q.Name = "influence"

	cfg := csq.DefaultConfig()
	cfg.Nodes = 7
	eng := csq.New(g, cfg)
	model := cost.NewModel(cfg.Constants, cost.NewStats(g, q))

	msc, err := eng.Prepare(q)
	if err != nil {
		log.Fatal(err)
	}
	bushy, err := binplan.BestBushy(q, model)
	if err != nil {
		log.Fatal(err)
	}
	linear, err := binplan.BestLinear(q, model)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MSC explored %d plans (%d unique), chose height %d\n\n",
		msc.PlansExplored, msc.UniquePlans, msc.Height)

	for _, entry := range []struct {
		name string
		plan *core.Plan
		pp   *physical.Plan
	}{
		{"CliqueSquare-MSC (flat n-ary)", nil, msc.Physical},
		{"best binary bushy", bushy, nil},
		{"best binary linear", linear, nil},
	} {
		pp := entry.pp
		if pp == nil {
			if pp, err = physical.Compile(entry.plan); err != nil {
				log.Fatal(err)
			}
		}
		r, err := eng.ExecuteStats(pp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-30s height %d, %s job(s), %5d rows, simulated %6.2f s\n",
			entry.name, pp.Logical.Height(), pp.JobLabel(), r.N, r.Time/1e6)
	}

	// The same engine answers ad-hoc queries; show one PWOC star.
	star := sparql.MustParse(`SELECT ?u WHERE {
		?u <livesIn> <berlin> . ?u <interestedIn> <go> . ?u <follows> ?v }`)
	star.Name = "star"
	r, err := eng.Run(star)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstar query: %d Berlin gophers, %s job(s) (PWOC, map-only)\n",
		r.Rows, r.JobLabel())
}
