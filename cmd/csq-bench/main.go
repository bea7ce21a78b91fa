// Command csq-bench regenerates the paper's evaluation tables and
// figures (Section 6) and prints them in the paper's layout.
//
// Usage:
//
//	csq-bench -exp=planspace   # Figures 16-19 (variant comparison)
//	csq-bench -exp=plans       # Figure 20 (MSC vs bushy vs linear)
//	csq-bench -exp=systems     # Figure 21 (CSQ vs SHAPE vs H2RDF+)
//	csq-bench -exp=workload    # Figure 22 (query characteristics)
//	csq-bench -exp=bounds      # Figure 8  (decomposition bounds)
//	csq-bench -exp=all
//
// Flags tune the scale (-univ), cluster size (-nodes), the synthetic
// workload size (-pershape) and the optimizer's plan budget (-maxplans,
// a count: Figures 16, 17 and 19 are the same on every machine, and a
// table after Figure 19 counts the queries a budget cut). Serving, caching,
// durable churn and their per-layer costs are the repo benchmark's to
// measure (bench/run.sh --workload exec_scale|serve_cached|plan_cold|
// churn_durable); this command only prints the paper's figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"cliquesquare/internal/experiments"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/vargraph"
)

func main() {
	exp := flag.String("exp", "all", "experiment: planspace|plans|systems|workload|bounds|all")
	univ := flag.Int("univ", 100, "LUBM scale (universities) for execution experiments")
	nodes := flag.Int("nodes", 7, "simulated cluster nodes")
	perShape := flag.Int("pershape", 30, "synthetic queries per shape (paper: 30)")
	maxPlans := flag.Int("maxplans", 5000, "plan budget per optimizer run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the experiments to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csq-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "csq-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csq-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // flush garbage so the profile shows live + cumulative allocation sites
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "csq-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}()

	cc := experiments.DefaultClusterConfig()
	cc.Universities = *univ
	cc.Nodes = *nodes

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "csq-bench: %s: %v\n", name, err)
			// os.Exit skips the deferred profile teardown: flush the CPU
			// profile so a failed run still leaves a readable file.
			pprof.StopCPUProfile()
			os.Exit(1)
		}
	}
	run("bounds", func() error { return bounds() })
	run("planspace", func() error { return planSpaces(*perShape, *maxPlans) })
	run("workload", func() error { return workload(cc) })
	run("plans", func() error { return plans(cc) })
	run("systems", func() error { return systemsCmp(cc) })
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func bounds() error {
	fmt.Println("== Figure 8: worst-case decomposition-count bounds D(n) ==")
	w := tw()
	fmt.Fprint(w, "n")
	for _, m := range vargraph.AllMethods {
		fmt.Fprintf(w, "\t%s", m)
	}
	fmt.Fprintln(w)
	for _, row := range experiments.Bounds(10) {
		fmt.Fprintf(w, "%d", row.N)
		for _, m := range vargraph.AllMethods {
			fmt.Fprintf(w, "\t%s", row.Bounds[m])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return w.Flush()
}

func planSpaces(perShape, maxPlans int) error {
	cfg := experiments.DefaultPlanSpaceConfig()
	cfg.PerShape = perShape
	cfg.MaxPlans = maxPlans
	cells := experiments.PlanSpaces(cfg)
	byKey := make(map[string]experiments.PlanSpaceCell)
	for _, c := range cells {
		byKey[c.Method.String()+"/"+c.Shape.String()] = c
	}
	print := func(title string, get func(experiments.PlanSpaceCell) string) error {
		fmt.Println(title)
		w := tw()
		fmt.Fprint(w, "Option")
		for _, sh := range qgen.Shapes {
			fmt.Fprintf(w, "\t%s", sh)
		}
		fmt.Fprintln(w)
		for _, m := range vargraph.AllMethods {
			fmt.Fprintf(w, "%s", m)
			for _, sh := range qgen.Shapes {
				fmt.Fprintf(w, "\t%s", get(byKey[m.String()+"/"+sh.String()]))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
		return w.Flush()
	}
	if err := print("== Figure 16: average number of plans per algorithm and query shape ==",
		func(c experiments.PlanSpaceCell) string { return fmt.Sprintf("%.1f", c.AvgPlans) }); err != nil {
		return err
	}
	if err := print("== Figure 17: average optimality ratio ==",
		func(c experiments.PlanSpaceCell) string { return fmt.Sprintf("%.1f%%", 100*c.OptimalityRatio) }); err != nil {
		return err
	}
	if err := print("== Figure 18: average optimization time (ms) ==",
		func(c experiments.PlanSpaceCell) string { return fmt.Sprintf("%.2f", c.AvgTimeMS) }); err != nil {
		return err
	}
	if err := print("== Figure 19: average uniqueness ratio ==",
		func(c experiments.PlanSpaceCell) string { return fmt.Sprintf("%.2f%%", 100*c.UniquenessRatio) }); err != nil {
		return err
	}
	return print(fmt.Sprintf("== Queries of %d per cell cut by a count budget (%d plans, %d covers per step) ==",
		cfg.PerShape, cfg.MaxPlans, cfg.CoversPerStep),
		func(c experiments.PlanSpaceCell) string { return fmt.Sprint(c.Truncated) })
}

func workload(cc experiments.ClusterConfig) error {
	rows, err := experiments.WorkloadCharacteristics(cc)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 22: workload characteristics (LUBM, %d universities) ==\n", cc.Universities)
	w := tw()
	fmt.Fprintln(w, "Query\t#tps\t#jv\t|Q|")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", r.Query, r.TPs, r.JVs, r.Card)
	}
	fmt.Fprintln(w)
	return w.Flush()
}

func plans(cc experiments.ClusterConfig) error {
	rows, err := experiments.PlanComparison(cc)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 20: plan execution time, MSC vs binary plans (LUBM, %d universities, %d nodes) ==\n",
		cc.Universities, cc.Nodes)
	w := tw()
	fmt.Fprintln(w, "Query\tMSC-Best (s)\tBest Bushy (s)\tBest Linear (s)\t|Q|")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%d\n",
			r.Annotation(), r.TimeSec[0], r.TimeSec[1], r.TimeSec[2], r.Rows)
	}
	fmt.Fprintln(w)
	return w.Flush()
}

func systemsCmp(cc experiments.ClusterConfig) error {
	rows, err := experiments.SystemComparison(cc)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 21: CSQ vs SHAPE-2f vs H2RDF+ (LUBM, %d universities, %d nodes) ==\n",
		cc.Universities, cc.Nodes)
	w := tw()
	fmt.Fprintln(w, "Query\tclass\tCSQ (s)\tSHAPE-2f (s)\tH2RDF+ (s)\t|Q|")
	var totals [3]float64
	// Selective queries first, as in the figure.
	for _, sel := range []bool{true, false} {
		for _, r := range rows {
			if r.Selective != sel {
				continue
			}
			class := "non-sel"
			if sel {
				class = "sel"
			}
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.2f\t%d\n",
				r.Annotation(), class, r.TimeSec[0], r.TimeSec[1], r.TimeSec[2], r.Rows)
			for i := range totals {
				totals[i] += r.TimeSec[i]
			}
		}
	}
	fmt.Fprintf(w, "TOTAL\t\t%.2f\t%.2f\t%.2f\t\n", totals[0], totals[1], totals[2])
	fmt.Fprintln(w)
	return w.Flush()
}
