package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cliquesquare"
	"cliquesquare/internal/systems/csq"
)

// metricSpec declares one metric; BENCHMARK.json is printed from these
// tables (-describe) and the smoke test holds the two together.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpec are the metrics an untraced run reports, with the share
// of the parent's median each may worsen by: 2% for the three that count
// bytes. Set-up time has to be an end-to-end metric whatever its noise,
// and takes the widest bound there is.
var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_query", "B", "lower", 0.02},
	{"resident_bytes_per_triple", "B", "lower", 0.02},
	{"write_amp", "ratio", "lower", 0.02},
}

// demotedSpec are the five timings ISSUE.md lists end to end with a 10%
// bound. On this sandbox none of them holds 10% from run to run (their
// quartile spreads over the runs of one binary are 3-10% when the host is
// quiet and 10-37% when it is busy; README.md has the trials), and the
// rule is that such a timing moves to the per-layer list under its name
// and gets no wider bound. An untraced run still measures and prints them.
var demotedSpec = []metricSpec{
	{Name: "qps", Unit: "1/s", Better: "higher"},
	{Name: "query_geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_s", Unit: "s", Better: "lower"},
}

// perLayerSpec are the metrics a traced run reports: the demoted timings,
// then the layers'.
var perLayerSpec = append(demotedSpec[:len(demotedSpec):len(demotedSpec)], []metricSpec{
	{Name: "sparql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sparql.canon_us", Unit: "us", Better: "lower"},
	{Name: "plancache.probe_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "core.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plans_explored", Unit: "count", Better: "lower"},
	{Name: "core.pushproj_us", Unit: "us", Better: "lower"},
	{Name: "cost.newstats_ms", Unit: "ms", Better: "lower"},
	{Name: "cost.choose_ms", Unit: "ms", Better: "lower"},
	{Name: "cost.apply_us", Unit: "us", Better: "lower"},
	{Name: "physical.compile_us", Unit: "us", Better: "lower"},
	{Name: "physical.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.jobs_per_query", Unit: "count", Better: "lower"},
	{Name: "mapreduce.job_ms", Unit: "ms", Better: "lower"},
	{Name: "mapreduce.shuffled_tuples_per_query", Unit: "count", Better: "lower"},
	{Name: "mapreduce.sim_response_s", Unit: "s", Better: "lower"},
	{Name: "mapreduce.real_over_sim", Unit: "ratio", Better: "lower"},
	{Name: "rescache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rescache.resident_bytes", Unit: "B", Better: "lower"},
	{Name: "rescache.evicted_bytes", Unit: "B", Better: "lower"},
	{Name: "rdf.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "rdf.decode_rows_per_query", Unit: "count", Better: "lower"},
	{Name: "rdf.encode_us", Unit: "us", Better: "lower"},
	{Name: "rdf.removebatch_ms", Unit: "ms", Better: "lower"},
	{Name: "rdf.generate_s", Unit: "s", Better: "lower"},
	{Name: "rdf.graph_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "partition.load_s", Unit: "s", Better: "lower"},
	{Name: "partition.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "dstore.tx_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "dstore.lookup_us", Unit: "us", Better: "lower"},
	{Name: "dstore.store_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_s", Unit: "s", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.syncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.live_bytes", Unit: "B", Better: "lower"},
	{Name: "csq.prepare_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "csq.revalidate_ms", Unit: "ms", Better: "lower"},
	{Name: "csq.revalidations_per_commit", Unit: "count", Better: "lower"},
	{Name: "csq.replans_per_commit", Unit: "count", Better: "lower"},
	{Name: "csq.commit_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "csq.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "csq.apply_mem_ms", Unit: "ms", Better: "lower"},
	{Name: "csq.group_size", Unit: "count", Better: "higher"},
	{Name: "csq.engine_build_s", Unit: "s", Better: "lower"},
	{Name: "csq.recover_s", Unit: "s", Better: "lower"},
	{Name: "csq.staleness_epochs", Unit: "count", Better: "lower"},
	{Name: "go.gc_cycles_per_query", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_inuse_bytes", Unit: "B", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.writer_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.round_spread", Unit: "ratio", Better: "lower"},
}...)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
	// Demoted holds, on an untraced run, the timings of demotedSpec.
	Demoted map[string]metricValue
	Notes   []string
	Info    runInfo
}

// runInfo is the environment record printed with every result.
type runInfo struct {
	Commit       string `json:"commit"`
	Go           string `json:"go"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOGC         int    `json:"gogc"`
	Workload     string `json:"workload"`
	Trace        bool   `json:"trace"`
	Seed         int64  `json:"seed"`
	Scale        string `json:"scale"`
	Universities int    `json:"universities"`
	Triples      int    `json:"triples"`
	Clients      int    `json:"clients"`
	Passes       int    `json:"passes"`
	Rounds       int    `json:"rounds"`
}

func (i *runInfo) fill(c config, univ, triples, rounds, perRound int) {
	i.Workload, i.Trace, i.Seed, i.Scale = c.w.name, c.trace, c.seed, scaleNames[c.scale]
	i.Universities, i.Triples, i.Clients = univ, triples, c.w.clients
	i.Passes, i.Rounds = rounds*perRound, rounds
}

// pinRuntime fixes the scheduler width and the collector's pacing so
// runs compare: two threads unless GOMAXPROCS is set in the
// environment (never more than the machine has), GOGC 100.
func pinRuntime() (runInfo, error) {
	nproc := runtime.NumCPU()
	procs := min(2, nproc)
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			return runInfo{}, fmt.Errorf("GOMAXPROCS=%q is not a thread count", env)
		}
		procs = n
	}
	if procs > nproc {
		return runInfo{}, fmt.Errorf("GOMAXPROCS %d exceeds the %d processors of this machine", procs, nproc)
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	info := runInfo{Commit: "unknown", Go: runtime.Version(), CPU: "unknown", NProc: nproc, GOMAXPROCS: procs, GOGC: 100}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				info.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				info.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return info, nil
}

// windowSummary condenses the samples of a query window.
type windowSummary struct {
	queries     int
	latMs       []float64   // every request
	perTemplate [][]float64 // latencies by template
	// Per-round throughput: for each round, the requests a client
	// completed per second of the round's wall time (first request sent
	// to last reply digested), summed over the clients.
	roundQPS, tracedQPS, plainQPS []float64
	staleMean                     float64
}

func windowStats(window [][]sample, clients int) windowSummary {
	var ws windowSummary
	rounds := 0
	for _, ss := range window {
		rounds = max(rounds, ss[len(ss)-1].round+1)
	}
	ws.roundQPS = make([]float64, rounds)
	var stale uint64
	for _, ss := range window {
		first := 0
		for i, s := range ss {
			for len(ws.perTemplate) <= s.tmpl {
				ws.perTemplate = append(ws.perTemplate, nil)
			}
			ws.perTemplate[s.tmpl] = append(ws.perTemplate[s.tmpl], ms(s.lat))
			ws.latMs = append(ws.latMs, ms(s.lat))
			stale += s.stale
			ws.queries++
			if i+1 == len(ss) || ss[i+1].round != s.round {
				ws.roundQPS[s.round] += float64(i+1-first) / s.done.Sub(ss[first].sent).Seconds()
				first = i + 1
			}
		}
	}
	for r, qps := range ws.roundQPS {
		if r%2 == 0 {
			ws.tracedQPS = append(ws.tracedQPS, qps)
		} else {
			ws.plainQPS = append(ws.plainQPS, qps)
		}
	}
	if ws.queries > 0 {
		ws.staleMean = float64(stale) / float64(ws.queries)
	}
	return ws
}

func mv(v float64, unit string) metricValue { return metricValue{Value: v, Unit: unit} }

// endToEnd assembles the nine metrics ISSUE.md defines from the phases of
// a run. windowAlloc is the window's allocation (the reader's part of it
// when a writer ran beside), resident the live heap per triple after each
// set-up.
func endToEnd(setups []time.Duration, sum windowSummary, commits *commitLog, recoveries []time.Duration,
	windowAlloc uint64, resident []float64, strm *stream) map[string]metricValue {
	var medians []float64
	for _, lat := range sum.perTemplate {
		medians = append(medians, median(lat))
	}
	return map[string]metricValue{
		"setup_s":                   mv(median(durationsMs(setups))/1e3, "s"),
		"qps":                       mv(median(sum.roundQPS), "1/s"),
		"query_geomean_ms":          mv(geomean(medians), "ms"),
		"query_p95_ms":              mv(quantile(sum.latMs, 0.95), "ms"),
		"commit_p50_ms":             mv(median(durationsMs(commits.lat)), "ms"),
		"recovery_s":                mv(median(durationsMs(recoveries))/1e3, "s"),
		"alloc_bytes_per_query":     mv(float64(windowAlloc)/float64(sum.queries), "B"),
		"resident_bytes_per_triple": mv(median(resident), "B"),
		"write_amp":                 mv(commits.writeAmp(strm), "ratio"),
	}
}

// layerInputs is everything perLayer draws on.
type layerInputs struct {
	rec                  *recorder
	spans                []span
	windowReq            []int // per client, the first request number of the window
	sum                  windowSummary
	commits              *commitLog
	ld                   *loaded
	before, after, final counters
	m0, m1, warm         runtime.MemStats
	plans                int
	shadow               writeShadow
	planHits, resultHits float64
}

// perLayer assembles the metrics of a traced run from the span log,
// the engine's counters, the commit stages and the shadow calls.
func perLayer(in layerInputs) map[string]metricValue {
	// Durations by span name: over every span, and over the spans of
	// window requests only.
	all := make(map[string][]float64)
	win := make(map[string][]float64)
	var reqTotal, childTotal float64
	spans := in.spans
	for _, s := range spans {
		d := float64(s.dur())
		all[s.Name] = append(all[s.Name], d)
		if s.Req < 0 || s.Client >= len(in.windowReq) || s.Req < in.windowReq[s.Client] {
			continue
		}
		win[s.Name] = append(win[s.Name], d)
		switch {
		case s.Name == "request":
			reqTotal += d
		case s.Parent >= 0 && spans[s.Parent].Name == "request":
			childTotal += d
		}
	}
	nsTo := func(xs []float64, per float64) float64 { return mean(xs) / per }
	requests := float64(len(win["request"]))
	var jobs, shuffled, rows int
	var simMicros float64
	for _, ct := range in.rec.clients {
		jobs += ct.jobs
		shuffled += ct.shuffled
		rows += ct.rows
		simMicros += ct.simMicros
	}
	perRequest := func(v float64) float64 {
		if requests == 0 {
			return 0
		}
		return v / requests
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	execNs := 0.0
	for _, d := range win["physical.execute"] {
		execNs += d
	}

	stage := func(f func(csq.CommitStats) time.Duration) []float64 {
		var out []float64
		for _, st := range in.commits.stages {
			out = append(out, float64(f(st)))
		}
		return out
	}
	var groups []float64
	for _, st := range in.commits.stages {
		groups = append(groups, float64(st.GroupSize))
	}
	log0, log1 := in.commits.start.dur.Log, in.commits.amp.dur.Log
	ampCommits := float64(in.commits.ampCommits)
	queries := float64(in.sum.queries)
	batches := float64(in.after.update.Batches - in.before.update.Batches)
	gcCycles := float64(in.m1.NumGC - in.m0.NumGC)

	return map[string]metricValue{
		"sparql.parse_us":                     mv(nsTo(win["sparql.parse"], 1e3), "us"),
		"sparql.canon_us":                     mv(nsTo(all["shadow.sparql.canon"], 1e3), "us"),
		"plancache.probe_us":                  mv(nsTo(all["shadow.plancache.probe"], 1e3), "us"),
		"plancache.hit_ratio":                 mv(in.planHits, "ratio"),
		"plancache.evictions_per_query":       mv(ratio(float64(in.after.plans.Evictions-in.before.plans.Evictions), queries), "count"),
		"core.optimize_ms":                    mv(nsTo(all["shadow.core.optimize"], 1e6), "ms"),
		"core.plans_explored":                 mv(float64(in.plans)/shadowCalls, "count"),
		"core.pushproj_us":                    mv(nsTo(all["shadow.core.pushproj"], 1e3), "us"),
		"cost.newstats_ms":                    mv(nsTo(all["shadow.cost.newstats"], 1e6), "ms"),
		"cost.choose_ms":                      mv(nsTo(all["shadow.cost.choose"], 1e6), "ms"),
		"cost.apply_us":                       mv(nsTo(all["shadow.cost.apply"], 1e3), "us"),
		"physical.compile_us":                 mv(nsTo(all["shadow.physical.compile"], 1e3), "us"),
		"physical.execute_ms":                 mv(nsTo(win["physical.execute"], 1e6), "ms"),
		"physical.jobs_per_query":             mv(perRequest(float64(jobs)), "count"),
		"mapreduce.job_ms":                    mv(nsTo(win["mapreduce.job"], 1e6), "ms"),
		"mapreduce.shuffled_tuples_per_query": mv(perRequest(float64(shuffled)), "count"),
		"mapreduce.sim_response_s":            mv(perRequest(simMicros/1e6), "s"),
		"mapreduce.real_over_sim":             mv(ratio(execNs/1e9, simMicros/1e6), "ratio"),
		"rescache.hit_ratio":                  mv(in.resultHits, "ratio"),
		"rescache.resident_bytes":             mv(float64(in.after.result.Bytes), "B"),
		"rescache.evicted_bytes":              mv(float64(in.after.result.EvictedBytes-in.before.result.EvictedBytes), "B"),
		"rdf.decode_ms":                       mv(nsTo(win["rdf.decode"], 1e6), "ms"),
		"rdf.decode_rows_per_query":           mv(perRequest(float64(rows)), "count"),
		"rdf.encode_us":                       mv(nsTo(all["rdf.encode"], 1e3), "us"),
		"rdf.removebatch_ms":                  mv(nsTo(all["shadow.rdf.removebatch"], 1e6), "ms"),
		"rdf.generate_s":                      mv(in.ld.generate.Seconds(), "s"),
		"rdf.graph_bytes_per_triple":          mv(ratio(float64(in.shadow.graphBytes), float64(in.shadow.triples)), "B"),
		"partition.load_s":                    mv(in.shadow.load.Seconds(), "s"),
		"partition.apply_ms":                  mv(nsTo(all["shadow.partition.apply"], 1e6), "ms"),
		"dstore.tx_commit_ms":                 mv(nsTo(all["shadow.dstore.txcommit"], 1e6), "ms"),
		"dstore.lookup_us":                    mv(nsTo(all["shadow.dstore.lookups"], 1e3)/lookupBlock, "us"),
		"dstore.store_bytes_per_triple":       mv(ratio(float64(in.shadow.storeBytes), float64(in.shadow.triples)), "B"),
		"wal.append_us":                       mv(nsTo(stage(func(s csq.CommitStats) time.Duration { return s.Append }), 1e3), "us"),
		"wal.sync_ms":                         mv(nsTo(stage(func(s csq.CommitStats) time.Duration { return s.Sync }), 1e6), "ms"),
		"wal.checkpoint_ms":                   mv(nsTo(all["wal.checkpoint"], 1e6), "ms"),
		"wal.replay_s":                        mv(nsTo(all["shadow.wal.replay"], 1e9), "s"),
		"wal.bytes_per_commit":                mv(ratio(float64(log1.AppendedBytes-log0.AppendedBytes), ampCommits), "B"),
		"wal.checkpoint_bytes":                mv(ratio(float64(log1.CheckpointBytes-log0.CheckpointBytes), float64(log1.Checkpoints-log0.Checkpoints)), "B"),
		"wal.syncs_per_commit":                mv(ratio(float64(log1.Syncs-log0.Syncs), ampCommits), "count"),
		"wal.live_bytes":                      mv(float64(in.final.dur.LiveBytes), "B"),
		"csq.prepare_cold_ms":                 mv(nsTo(all["csq.prepare.cold"], 1e6), "ms"),
		"csq.revalidate_ms":                   mv(nsTo(all["csq.prepare.revalidate"], 1e6), "ms"),
		"csq.revalidations_per_commit":        mv(ratio(float64(in.after.update.Revalidations-in.before.update.Revalidations), batches), "count"),
		"csq.replans_per_commit":              mv(ratio(float64(in.after.update.Replans-in.before.update.Replans), batches), "count"),
		"csq.commit_wait_ms":                  mv(nsTo(stage(func(s csq.CommitStats) time.Duration { return s.Wait }), 1e6), "ms"),
		"csq.apply_ms":                        mv(nsTo(stage(func(s csq.CommitStats) time.Duration { return s.Apply }), 1e6), "ms"),
		"csq.apply_mem_ms":                    mv(nsTo(all["shadow.csq.applymem"], 1e6), "ms"),
		"csq.group_size":                      mv(mean(groups), "count"),
		"csq.engine_build_s":                  mv(in.ld.build.Seconds(), "s"),
		"csq.recover_s":                       mv(nsTo(all["csq.recover"], 1e9), "s"),
		"csq.staleness_epochs":                mv(in.sum.staleMean, "count"),
		"go.gc_cycles_per_query":              mv(ratio(gcCycles, queries), "count"),
		"go.gc_pause_ms":                      mv(ratio(float64(in.m1.PauseTotalNs-in.m0.PauseTotalNs)/1e6, gcCycles), "ms"),
		"go.heap_inuse_bytes":                 mv(float64(in.warm.HeapInuse), "B"),
		"bench.trace_overhead_ratio":          mv(ratio(median(in.sum.tracedQPS), median(in.sum.plainQPS)), "ratio"),
		"bench.span_coverage":                 mv(ratio(childTotal, reqTotal), "ratio"),
		"bench.writer_lag_ms":                 mv(median(durationsMs(in.commits.lag)), "ms"),
		"bench.samples":                       mv(queries, "count"),
		"bench.round_spread":                  mv(ratio(quantile(in.sum.roundQPS, 0.75), quantile(in.sum.roundQPS, 0.25)), "ratio"),
	}
}

func hitRatio(a, b cliquesquare.CacheStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
