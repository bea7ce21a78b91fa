// Planlab reproduces the paper's running example: query Q1 of Figure 1
// (11 triple patterns over join variables a, d, f, g, i, j). It runs
// all eight CliqueSquare decomposition variants, shows their plan-space
// sizes and flattest heights (Sections 4.3-4.4), and prints the
// height-3 MSC plan of Figure 4 with its MapReduce job layout
// (Figure 15).
package main

import (
	"fmt"
	"log"
	"time"

	"cliquesquare/internal/core"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

func main() {
	q := sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h .
		?g <p9> ?i . ?i <p10> ?j . ?j <p11> "C1" }`)
	q.Name = "Fig1-Q1"

	fmt.Println("query (Figure 1):", q)
	fmt.Println("join variables:", q.JoinVars())
	fmt.Println()

	fmt.Printf("%-6s %8s %8s %12s %10s\n", "option", "plans", "unique", "min height", "time")
	var msc *core.Result
	for _, m := range vargraph.AllMethods {
		res, err := core.Optimize(q, core.Options{Method: m, MaxPlans: 5000, MaxCoversPerStep: 2000})
		if err != nil {
			log.Fatal(err)
		}
		suffix := ""
		if res.Truncated {
			suffix = " (budget hit)"
		}
		fmt.Printf("%-6s %8d %8d %12d %10v%s\n",
			m, len(res.Plans), len(res.Unique), res.MinHeight(),
			res.Elapsed.Round(time.Microsecond), suffix)
		if m == vargraph.MSC {
			msc = res
		}
	}

	// Pick the flattest MSC plan — the shape of Figure 4.
	best := msc.Unique[0]
	for _, p := range msc.Unique {
		if p.Height() < best.Height() {
			best = p
		}
	}
	fmt.Printf("\nflattest MSC plan (height %d, cf. Figure 4):\n%s", best.Height(), best)

	pp, err := physical.Compile(best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMapReduce layout (cf. Figure 15), %s job(s):\n%s", pp.JobLabel(), pp.Describe())
}
