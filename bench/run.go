package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/systems/csq"
	"cliquesquare/internal/wal"
)

// config is one run of one workload.
type config struct {
	w       workload
	seed    int64
	seconds float64 // length of the query window
	trace   bool
	scale   int
	dir     string // scratch root; the run works in a fresh directory below it
	log     io.Writer
}

// tally counts operations attempted and failed; a wrong answer is a
// failed operation.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	notes             []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// generate builds the benchmark's dataset in state A (see stream) and the
// commit stream over it; both are drawn from dataSeed.
func generate(univ int) (*rdf.Graph, *stream) {
	cfg := lubm.DefaultConfig(univ)
	cfg.Seed = dataSeed
	g := lubm.Generate(cfg)
	s := newStream(g, rand.New(rand.NewSource(dataSeed+1)))
	g.RemoveBatch(s.d1)
	return g, s
}

// loaded is an engine at the end of set-up.
type loaded struct {
	g       *rdf.Graph
	strm    *stream
	eng     engine
	cfg     engineConfig
	triples int

	generate, build, elapsed time.Duration
	// passTime is how long the slowest client took over its last
	// warm-up pass; it sizes the window.
	passTime time.Duration
}

// setUp is everything before the query window: generate the data,
// build the durable engine, and run the warm-up passes that fill the
// plan and result caches and build the lazy indexes.
func setUp(c config, drv driver, mx *mix, rec *recorder, dir string) (*loaded, error) {
	ld := &loaded{cfg: engineConfig{w: c.w, dir: dir}}
	t0 := time.Now()
	ld.g, ld.strm = generate(c.w.univ[c.scale])
	ld.generate = time.Since(t0)
	ld.triples = ld.g.Len()
	var err error
	if ld.eng, err = drv.create(ld.g, ld.cfg); err != nil {
		return nil, err
	}
	ld.build = time.Since(t0) - ld.generate
	// With several clients the first of them makes a pass alone before
	// the warm-up proper: which reader executes a query and which finds
	// its result cached is then the same in every run, and so is the
	// scratch memory the engine keeps (resident_bytes_per_triple).
	var warm [][]sample
	if c.w.clients > 1 {
		warm = drive(ld.eng, mx, 1, 0, 1, 1, rec)
	}
	if err := firstError(warm); err == nil {
		warm = drive(ld.eng, mx, c.w.clients, 0, 1, warmupPasses, rec)
	}
	if err := firstError(warm); err != nil {
		ld.eng.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ld.passTime = lastPass(warm, len(mx.names))
	ld.elapsed = time.Since(t0)
	return ld, nil
}

// firstError is the first failed request of samples, if any.
func firstError(samples [][]sample) error {
	for _, ss := range samples {
		for _, s := range ss {
			if s.err != nil {
				return s.err
			}
		}
	}
	return nil
}

// lastPass is the wall time per pass of n requests over the slowest
// client's last two passes, digesting included: what one more pass will
// cost the window.
func lastPass(samples [][]sample, n int) time.Duration {
	var d time.Duration
	for _, ss := range samples {
		d = max(d, ss[len(ss)-1].done.Sub(ss[len(ss)-2*n-1].done)/2)
	}
	return d
}

// sample is one request of a reader.
type sample struct {
	tmpl    int
	key     string
	round   int
	sent    time.Time
	lat     time.Duration
	done    time.Time // when the reply had been digested
	version uint64    // data version the answer was computed from
	stale   uint64    // engine version at reply time minus version
	got     digest
	err     error
}

// drive runs the closed-loop readers: every client sends nRounds ×
// perRound passes starting at pass first, each request when the
// previous reply has arrived and been digested (digesting is outside
// the timed interval). Clients start a pass at different templates. On a
// traced run even rounds are traced and odd rounds are not.
func drive(eng engine, mx *mix, clients, first, nRounds, perRound int, rec *recorder) [][]sample {
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := len(mx.names)
			ss := make([]sample, 0, nRounds*perRound*n)
			for r := 0; r < nRounds; r++ {
				if rec != nil {
					rec.clients[c].on = r%2 == 0
				}
				for p := 0; p < perRound; p++ {
					reqs := mx.pass(first + r*perRound + p)
					for i := range reqs {
						rq := reqs[(i+c*n/clients)%n]
						t0 := time.Now()
						ans, err := eng.query(c, rq.src)
						s := sample{tmpl: rq.tmpl, key: rq.key, round: r, sent: t0, lat: time.Since(t0), err: err}
						if err == nil {
							s.version = ans.version
							s.stale = eng.version() - ans.version
							s.got = digestRows(ans.rows)
						}
						s.done = time.Now()
						ss = append(ss, s)
					}
				}
			}
			if rec != nil {
				rec.clients[c].on = false
			}
			out[c] = ss
		}()
	}
	wg.Wait()
	return out
}

// commitLog is the record of one commit stream.
type commitLog struct {
	lat, lag []time.Duration // acknowledgement and send time, from the due time
	acked    []time.Time
	stages   []csq.CommitStats
	// start and amp bracket the commits write amplification is taken
	// over: the whole compaction cycles of the stream (all of it when it
	// has none), so the checkpoint share does not depend on where the
	// stream happened to stop.
	start, amp counters
	ampCommits int
}

// runStream applies commits of the stream to eng, starting in state A
// and ending in it. With a period it is an open loop: commit i is due
// at start + i×period whatever happened to the ones before it, latency
// counts from the due time, and the stream lasts until stop closes.
// Without one, n commits are sent back to back.
func runStream(eng engine, strm *stream, n int, period time.Duration, stop <-chan struct{}, t *tally) *commitLog {
	cl := &commitLog{start: eng.counters()}
	ver := eng.version()
	apply := func(i int) (csq.BatchResult, error) {
		d := strm.commit(i)
		br, err := eng.apply(d)
		ver++
		t.check(err == nil && br.Inserted == len(d.ins) && br.Deleted == len(d.del) && br.DataVersion == ver,
			"commit %d: %v, %d inserted %d deleted as version %d, want %d/%d as %d", i, err, br.Inserted, br.Deleted, br.DataVersion, len(d.ins), len(d.del), ver)
		return br, err
	}
	start := time.Now()
	applied := 0
loop:
	for ; period > 0 || applied < n; applied++ {
		due := time.Now()
		if period > 0 {
			due = start.Add(time.Duration(applied) * period)
			select {
			case <-stop:
				break loop
			case <-time.After(time.Until(due)):
			}
		}
		sent := time.Now()
		br, err := apply(applied)
		if err != nil {
			break
		}
		acked := time.Now()
		cl.acked = append(cl.acked, acked)
		cl.lat = append(cl.lat, acked.Sub(due))
		cl.lag = append(cl.lag, sent.Sub(due))
		cl.stages = append(cl.stages, br.Commit)
		if (applied+1)%compactEvery == 0 {
			err := eng.compact()
			t.check(err == nil, "compact after commit %d: %v", applied, err)
			cl.amp, cl.ampCommits = eng.counters(), applied+1
		}
	}
	if cl.ampCommits == 0 {
		cl.amp, cl.ampCommits = eng.counters(), applied
	}
	if applied%2 == 1 {
		apply(applied) // back to state A; not part of the record
	}
	return cl
}

// writeAmp is (log bytes appended + checkpoint bytes written) per
// N-Triples byte of the effective delta, over the bracketed commits.
func (cl *commitLog) writeAmp(strm *stream) float64 {
	written := cl.amp.dur.Log.AppendedBytes - cl.start.dur.Log.AppendedBytes +
		cl.amp.dur.Log.CheckpointBytes - cl.start.dur.Log.CheckpointBytes
	var logical int64
	for i := 0; i < cl.ampCommits; i++ {
		logical += strm.commit(i).ntBytes
	}
	if logical == 0 {
		return 0
	}
	return float64(written) / float64(logical)
}

// observed is an answer taken outside the window, kept for the final
// comparison with the oracle.
type observed struct {
	what    string
	key     string
	version uint64
	got     digest
}

// ask sends one request outside the window and files its answer.
func ask(eng engine, what string, rq request, obs *[]observed, t *tally) {
	ans, err := eng.query(0, rq.src)
	if err != nil {
		t.check(false, "%s %s: %v", what, rq.key, err)
		return
	}
	*obs = append(*obs, observed{what: what, key: rq.key, version: ans.version, got: digestRows(ans.rows)})
}

// recoverCycles crashes and recovers the engine recoveryCycles times.
// Each cycle checkpoints, commits a few batches (so the log holds
// records past the checkpoint), abandons the engine without Close,
// reopens the log and times up to the first answer of a fixed selective
// query. The
// recovered engine must stand at the last acknowledged version; two
// further templates per cycle are answered for the oracle. The
// abandoned engine is closed afterwards, outside the timing, only to
// release its goroutines and file handle.
func recoverCycles(drv driver, ld *loaded, mx *mix, obs *[]observed, t *tally) ([]time.Duration, error) {
	reqs := mx.pass(0)
	probe := reqs[0]
	for _, rq := range reqs {
		if mx.names[rq.tmpl] == "Q2" {
			probe = rq
		}
	}
	var times []time.Duration
	for i := 0; i < recoveryCycles; i++ {
		// Checkpoint first, so every cycle replays the same number of
		// records whatever the stream before it left in the log.
		err := ld.eng.compact()
		t.check(err == nil, "compact before recovery %d: %v", i, err)
		runStream(ld.eng, ld.strm, commitsPerCycle, 0, nil, t)
		acked := ld.eng.version()
		old := ld.eng
		t0 := time.Now()
		eng, err := drv.reopen(ld.cfg)
		if err != nil {
			old.close()
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		ld.eng = eng
		ask(eng, "recovery", probe, obs, t)
		times = append(times, time.Since(t0))
		t.check(eng.version() == acked, "recovery %d: reopened at version %d, last acknowledged %d", i, eng.version(), acked)
		for k := 0; k < 2; k++ {
			ask(eng, "recovery", reqs[(2*i+k)%len(reqs)], obs, t)
		}
		old.close()
	}
	return times, nil
}

// crashDropsUnsynced is the durability check the real filesystem cannot
// give (killing a process leaves the OS cache intact): a small engine
// on wal.MemFS acknowledges a few commits, crashes inside the next one
// with every unsynced byte dropped, and must reopen at the last
// acknowledged version with the same answer.
func crashDropsUnsynced(seed int64, t *tally) {
	g, strm := generate(1)
	fs := wal.NewMemFS()
	cfg := csq.DefaultConfig()
	wo := wal.Options{Dir: "wal", FS: fs, CheckpointBytes: -1}
	eng, err := csq.NewDurable(g, cfg, wo)
	if err != nil {
		t.check(false, "memfs: %v", err)
		return
	}
	defer eng.Close()
	q := lubm.Queries()[0]
	answerOf := func(e *csq.Engine) (digest, error) {
		p, _, err := e.PrepareCached(q)
		if err != nil {
			return digest{}, err
		}
		r, err := e.ExecutePrepared(p)
		if err != nil {
			return digest{}, err
		}
		return digestRows(decode(e.Graph().Dict, r.Rows)), nil
	}
	commit := func(e *csq.Engine, i int) error {
		ins, del := encodeDelta(e.Graph().Dict, strm.commit(i))
		_, err := e.ApplyBatch(ins, del)
		return err
	}
	for i := 0; i < commitsPerCycle; i++ {
		if err := commit(eng, i); err != nil {
			t.check(false, "memfs commit %d: %v", i, err)
			return
		}
	}
	acked := eng.DataVersion()
	want, err := answerOf(eng)
	if err != nil {
		t.check(false, "memfs: %v", err)
		return
	}
	// A commit is a write then an fsync: crash in one or the other.
	fs.SetCrashAt(1+int(seed&1), wal.CrashDrop)
	if err := commit(eng, commitsPerCycle); err == nil {
		t.check(false, "memfs: commit acknowledged across the armed crash")
		return
	}
	fs.Reboot()
	rec, err := csq.OpenDurable(cfg, wo)
	if err != nil {
		t.check(false, "memfs reopen: %v", err)
		return
	}
	defer rec.Close()
	got, err := answerOf(rec)
	t.check(err == nil && rec.DataVersion() == acked && got == want,
		"memfs: reopened at version %d with %v (%v), acknowledged %d with %v", rec.DataVersion(), got, err, acked, want)
}

// run executes one workload and returns its metrics.
func run(c config) (*result, error) {
	info, err := pinRuntime()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(c.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	w := c.w
	univ := w.univ[c.scale]
	mx := newMix(w, univ, rand.New(rand.NewSource(c.seed+2)))
	t := &tally{}
	var rec *recorder
	var drv driver = facadeDriver{}
	repeats := setupRepeats
	if c.trace {
		rec = newRecorder(w.clients)
		drv = tracedDriver{rec}
		repeats = 1
	}

	// Set-up, several times over; the last engine is the one measured.
	// After each, two collections leave the live heap: the data, the
	// engine's stores, indexes and caches, and the scratch it keeps.
	var ld *loaded
	var setups []time.Duration
	var resident []float64
	var warm runtime.MemStats
	for i := 0; i < repeats; i++ {
		if ld != nil {
			ld.eng.close()
			ld = nil
			runtime.GC()
		}
		if ld, err = setUp(c, drv, mx, rec, filepath.Join(runDir, fmt.Sprintf("wal-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, ld.elapsed)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&warm)
		resident = append(resident, float64(warm.HeapAlloc)/float64(ld.triples))
	}
	defer func() { ld.eng.close() }()
	fmt.Fprintf(c.log, "set-up: %d triples, generate %.3fs build %.3fs, %v, live heap %.2f B/triple, warm pass %v\n",
		ld.triples, ld.generate.Seconds(), ld.build.Seconds(), setups, resident, ld.passTime)

	// The commit stream of a churn workload starts before the window
	// and a few settling passes re-size the window under it.
	var stopWriter chan struct{}
	var writer *commitLog
	var writerDone sync.WaitGroup
	firstPass := warmupPasses
	passTime := ld.passTime
	if w.beside {
		stopWriter = make(chan struct{})
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			writer = runStream(ld.eng, ld.strm, 0, commitPeriod, stopWriter, t)
		}()
		passTime = lastPass(drive(ld.eng, mx, w.clients, firstPass, 1, 3, nil), len(mx.names))
		firstPass += 3
	}
	// As many whole passes as fit the window, and at default scale no
	// fewer than the sample floor asks for, cut into at least minRounds
	// rounds of equal pass count.
	floor := 0
	if c.scale != scaleSmoke {
		perPass := len(mx.names) * w.clients
		floor = (minSamples + perPass - 1) / perPass
	}
	passes := max(minRounds, floor, int(c.seconds/passTime.Seconds()))
	perRound := passes / minRounds
	rounds := passes / perRound
	if rounds*perRound < floor {
		rounds++
	}

	// The query window.
	windowReq := make([]int, w.clients)
	if rec != nil {
		for i, ct := range rec.clients {
			windowReq[i] = ct.reqs
			ct.jobs, ct.shuffled, ct.rows, ct.simMicros = 0, 0, 0, 0
		}
	}
	before := ld.eng.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	window := drive(ld.eng, mx, w.clients, firstPass, rounds, perRound, rec)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	after := ld.eng.counters()
	windowAlloc := m1.TotalAlloc - m0.TotalAlloc
	fmt.Fprintf(c.log, "window: %d rounds x %d passes, %d requests in %.2fs\n",
		rounds, perRound, rounds*perRound*len(mx.names)*w.clients, t1.Sub(t0).Seconds())

	// The commit stream, unless it already ran beside the window. Then
	// the window's allocation includes the writer's, in a share that
	// grows when the reader is slow; ten more commits and their
	// checkpoint, with no reader beside them, measure what a commit
	// allocates, and the window is charged with the reader's part only.
	var commits *commitLog
	if w.beside {
		close(stopWriter)
		writerDone.Wait()
		commits = writer
		inWindow := 0
		for _, at := range commits.acked {
			if at.After(t0) && at.Before(t1) {
				inWindow++
			}
		}
		var a0, a1 runtime.MemStats
		runtime.ReadMemStats(&a0)
		runStream(ld.eng, ld.strm, compactEvery, 0, nil, t)
		runtime.ReadMemStats(&a1)
		windowAlloc -= min(windowAlloc, (a1.TotalAlloc-a0.TotalAlloc)/compactEvery*uint64(inWindow))
	} else {
		commits = runStream(ld.eng, ld.strm, streamCommits, 0, nil, t)
	}

	var obs []observed
	recoveries, err := recoverCycles(drv, ld, mx, &obs, t)
	if err != nil {
		return nil, err
	}
	// Fresh-engine equivalence: after all the commits and recoveries
	// the engine must answer every template as the oracle does.
	for _, rq := range mx.pass(0) {
		ask(ld.eng, "final", rq, &obs, t)
	}
	final := ld.eng.counters()
	crashDropsUnsynced(c.seed, t)

	// Per-layer attribution by shadow calls, outside every measured
	// phase (the oracle below is the only thing after it).
	var plans int
	var ws writeShadow
	if c.trace {
		var srcs []string
		for _, rq := range append(mx.pass(0), mx.pass(1)...) {
			srcs = append(srcs, rq.src)
		}
		if plans, err = shadowReads(rec.main, ld.g, srcs); err != nil {
			return nil, err
		}
		if ws, err = shadowWrites(rec.main, univ, srcs[:len(mx.names)]); err != nil {
			return nil, err
		}
	}

	// Check every answer against the oracle.
	orc, err := buildOracle(w, univ, c.seed, mx, t)
	if err != nil {
		return nil, err
	}
	for _, ss := range window {
		for _, s := range ss {
			want := orc.state[stateOf(s.version)][s.key]
			t.check(s.err == nil && s.got == want, "window %s at version %d: %v, got %v want %v", s.key, s.version, s.err, s.got, want)
		}
	}
	for _, o := range obs {
		want := orc.state[stateOf(o.version)][o.key]
		t.check(o.got == want, "%s %s at version %d: got %v want %v", o.what, o.key, o.version, o.got, want)
	}

	// The workloads must do what they claim and the percentiles must rest
	// on enough samples (not at smoke scale, where two universities cannot
	// give 600 distinct cache keys and a window lasts a second).
	sum := windowStats(window, w.clients)
	planHits := hitRatio(before.plans, after.plans)
	resultHits := hitRatio(before.result, after.result)
	lag := median(durationsMs(commits.lag))
	if c.scale != scaleSmoke {
		if w.cold {
			t.check(planHits <= 0.05, "plan cache hit ratio %.3f on the cold workload, want <= 0.05", planHits)
		}
		if w.resultCacheBytes > 0 {
			t.check(resultHits >= 0.95, "result cache hit ratio %.3f on the cached workload, want >= 0.95", resultHits)
		}
		t.check(sum.queries >= minSamples, "%d latency samples in the window, want >= %d", sum.queries, minSamples)
		t.check(len(sum.roundQPS) >= minRounds, "%d rounds in the window, want >= %d", len(sum.roundQPS), minRounds)
		t.check(len(commits.lat) >= streamCommits, "%d commits in the stream, want >= %d", len(commits.lat), streamCommits)
		if w.beside {
			t.check(lag < ms(maxWriterLag), "the open-loop writer ran %.1f ms late (median), want < %.0f ms", lag, ms(maxWriterLag))
		}
	}
	fmt.Fprintf(c.log, "round qps: %.1f\ncommits: %d, writer lag %.2f ms\n", sum.roundQPS, len(commits.lat), lag)

	res := &result{Info: info, Metrics: make(map[string]metricValue)}
	res.Info.fill(c, univ, ld.triples, rounds, perRound)
	nine := endToEnd(setups, sum, commits, recoveries, windowAlloc, resident, ld.strm)
	if c.trace {
		spansPath := filepath.Join(c.dir, "spans-"+w.name+".json")
		spans := rec.all()
		if err := dumpSpans(spansPath, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.log, "spans: %s\n", spansPath)
		res.Metrics = perLayer(layerInputs{
			rec: rec, spans: spans, windowReq: windowReq, sum: sum, commits: commits,
			ld: ld, before: before, after: after, final: final, m0: m0, m1: m1, warm: warm,
			plans: plans, shadow: ws, planHits: planHits, resultHits: resultHits,
		})
		cov := res.Metrics["bench.span_coverage"].Value
		t.check(cov >= 0.9, "the children of request cover %.3f of its time, want >= 0.9", cov)
		for _, m := range demotedSpec {
			res.Metrics[m.Name] = nine[m.Name]
		}
	} else {
		res.Demoted = make(map[string]metricValue)
		for _, m := range endToEndSpec {
			res.Metrics[m.Name] = nine[m.Name]
		}
		for _, m := range demotedSpec {
			res.Demoted[m.Name] = nine[m.Name]
		}
	}
	res.Attempted, res.Failed, res.Correct, res.Notes = t.attempted, t.failed, t.failed == 0, t.notes
	return res, nil
}
