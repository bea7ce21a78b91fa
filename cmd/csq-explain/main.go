// Command csq-explain explores the plan spaces of the CliqueSquare
// optimizer variants for one query: for each variant it reports the
// number of plans, the minimum height, and optionally every unique
// plan. Data is not needed — this is pure logical optimization
// (Sections 3-4 of the paper).
//
// Usage:
//
//	csq-explain -query 'SELECT ?a WHERE { ?a <p> ?b . ?b <q> ?c }'
//	csq-explain -lubm Q12 -show MSC
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"cliquesquare/internal/core"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

func main() {
	query := flag.String("query", "", "BGP SPARQL query text")
	lubmName := flag.String("lubm", "", "use a workload query by name (Q1..Q14)")
	show := flag.String("show", "", "print every unique plan of this variant")
	maxPlans := flag.Int("maxplans", 20000, "plan budget per variant")
	flag.Parse()

	if err := run(*query, *lubmName, *show, *maxPlans); err != nil {
		fmt.Fprintln(os.Stderr, "csq-explain:", err)
		os.Exit(1)
	}
}

func run(query, lubmName, show string, maxPlans int) error {
	var q *sparql.Query
	var err error
	switch {
	case lubmName != "":
		if q, err = lubm.Query(lubmName); err != nil {
			return err
		}
	case query != "":
		if q, err = sparql.Parse(query); err != nil {
			return err
		}
	default:
		return fmt.Errorf("provide -query or -lubm")
	}
	fmt.Printf("query: %s\n\n", q)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Variant\tplans\tunique\tmin height\topt time\ttruncated")
	for _, m := range vargraph.AllMethods {
		res, err := core.Optimize(q, core.Options{Method: m, MaxPlans: maxPlans})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\t%v\n",
			m, len(res.Plans), len(res.Unique), res.MinHeight(), res.Elapsed.Round(time.Microsecond), res.Truncated)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if show == "" {
		return nil
	}
	m, err := vargraph.ParseMethod(show)
	if err != nil {
		return err
	}
	res, err := core.Optimize(q, core.Options{Method: m, MaxPlans: maxPlans})
	if err != nil {
		return err
	}
	for i, p := range res.Unique {
		pp, err := physical.Compile(p)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s plan %d (height %d, %s job(s)) ---\n%s%s",
			m, i+1, p.Height(), pp.JobLabel(), p, pp.Describe())
	}
	return nil
}
