package main

import (
	"fmt"
	"math/rand"
	"strings"

	"cliquesquare"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
)

// workload is one traffic mix against one engine configuration. Every
// workload runs the same phases (set-up, query window, commit stream,
// crash-reopen cycles); they differ in which layers the window leans on.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why string
	// univ is the LUBM scale at -scale smoke / default / full.
	univ [3]int
	// clients is the number of closed-loop readers; each waits for its
	// reply before sending the next request.
	clients int
	// parallelism is Options.Parallelism of the engine under test.
	parallelism int
	// resultCacheBytes is Options.ResultCacheBytes (0 = off).
	resultCacheBytes int64
	// cold selects the constant-bearing templates with a fresh constant
	// per pass (every request a plan-cache miss) instead of the 14
	// LUBM queries.
	cold bool
	// beside runs the commit stream during the window on a fixed
	// schedule (open loop) instead of after it (closed loop).
	beside bool
}

const (
	scaleSmoke = iota
	scaleDefault
	scaleFull
)

var scaleNames = []string{"smoke", "default", "full"}

// workloads is the benchmark. BENCHMARK.json names the same four, each
// with the reason it exists; README.md has the long form.
var workloads = []workload{
	{
		name: "exec_scale", univ: [3]int{2, 200, 1000}, clients: 1, parallelism: 2,
		why: "14 LUBM queries at twice the data of the others, plans cached, no result cache: execution, shuffle and row decoding do the work; planner and caches are bypassed",
	},
	{
		name: "serve_cached", univ: [3]int{2, 100, 100}, clients: 2, parallelism: 1, resultCacheBytes: 256 << 20,
		why: "same mix, 2 clients, result cache holds the working set: a request is parse, cache probes, replay and decode; the execution layers are bypassed",
	},
	{
		name: "plan_cold", univ: [3]int{2, 100, 100}, clients: 1, parallelism: 2, cold: true,
		why: "6 selective templates with a new university constant each pass: every request misses the plan cache, so optimizer, statistics scan and cost choice dominate",
	},
	{
		name: "churn_durable", univ: [3]int{2, 100, 100}, clients: 1, parallelism: 1, beside: true,
		why: "reader beside a writer committing every 250 ms: each epoch change forces plan revalidation and commits hold the state lock, so read/write trade-offs show",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	nodes = 7 // the paper's cluster size

	// batchSize is the number of deletes and of inserts in one commit.
	batchSize = 200
	// streamCommits is the length of a commit stream that runs after
	// the window; one that runs beside it lasts as long as the window.
	streamCommits = 40
	// compactEvery is the checkpoint policy: automatic checkpoints are
	// off and Engine.Compact is called after every 10th commit, so the
	// checkpoint bytes of a stream repeat exactly.
	compactEvery = 10
	// commitPeriod is the open-loop writer's schedule.
	commitPeriod = 250_000_000 // ns

	recoveryCycles  = 7
	commitsPerCycle = 2 // log records a recovery replays after its checkpoint
	setupRepeats    = 3
	warmupPasses    = 3
	refevalVariants = 12

	// What a query window and a commit stream must hold at default scale
	// for their percentiles to rest on enough samples; the run fails below
	// them. The window is sized to reach the first two whatever the
	// machine's speed.
	minRounds    = 10
	minSamples   = 400
	maxWriterLag = 25_000_000 // ns, median lateness of the open-loop writer

	// dataSeed draws the dataset and the commit stream's pools. The data
	// is a constant of the benchmark: the byte and allocation metrics are
	// exact for one dataset but move 1-6% from one draw to the next (the
	// LUBM queries name single entities, and the engine's pooled scratch
	// grows by doubling), which a 2% bound cannot absorb. The run's seed
	// draws the request order, the cold mix's constants, the reference
	// sample and the crash point.
	dataSeed = 42
)

// coldTemplates are the LUBM queries that carry a university constant.
var coldTemplates = map[string]bool{"Q2": true, "Q3": true, "Q4": true, "Q11": true, "Q13": true, "Q14": true}

// request is one query of a pass.
type request struct {
	// tmpl indexes mix.names (per-template latency bookkeeping).
	tmpl int
	// key names the expected answer in the oracle.
	key string
	src string
}

// mix generates the request sequence of a workload from the seed. The
// warm-up passes are the same for every seed (the templates in the LUBM
// workload's own order, the cold mix's first constants in numeric order),
// so the engine's state at the end of set-up does not depend on it: what
// is cached, and how far the pooled scratch has grown, which moved
// resident_bytes_per_triple by 1.5% from one template order to the next.
type mix struct {
	names []string // template names, in the LUBM workload's order
	srcs  []string // SPARQL text per template
	// order is the seeded order of the templates in a pass of the window.
	order []int
	// consts are the university constants the cold mix walks, one per
	// pass: the warm-up's in numeric order, then a seeded permutation of
	// the rest; nil for the fixed 14-query mix.
	consts []int
}

// newMix builds the workload's request generator. The template texts
// come from the LUBM workload package; the cold mix keeps the six
// templates that carry a university constant.
func newMix(w workload, univ int, rng *rand.Rand) *mix {
	m := &mix{}
	for _, q := range lubm.Queries() {
		if w.cold && !coldTemplates[q.Name] {
			continue
		}
		m.names = append(m.names, q.Name)
		m.srcs = append(m.srcs, q.String())
	}
	m.order = rng.Perm(len(m.names))
	if w.cold {
		m.consts = make([]int, univ)
		for i := range m.consts {
			m.consts[i] = i
		}
		rest := m.consts[min(warmupPasses, univ):]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	}
	return m
}

// variant rewrites a constant-bearing template to university c. The
// templates name their university either by IRI (University0) or by
// name literal ("University3").
func variant(src string, c int) string {
	src = strings.ReplaceAll(src, "<"+lubm.UniversityIRI(0)+">", "<"+lubm.UniversityIRI(c)+">")
	return strings.ReplaceAll(src, `"University3"`, fmt.Sprintf(`"University%d"`, c))
}

// pass returns the requests of pass p: one per template, in the mix's
// order from the first pass of the window on. Cold passes take
// successive constants, so no cache key repeats until they wrap.
func (m *mix) pass(p int) []request {
	out := make([]request, len(m.names))
	for i := range out {
		t := i
		if p >= warmupPasses {
			t = m.order[i]
		}
		if m.consts == nil {
			out[i] = request{tmpl: t, key: m.names[t], src: m.srcs[t]}
			continue
		}
		c := m.consts[p%len(m.consts)]
		out[i] = request{tmpl: t, key: variantKey(m.names[t], c), src: variant(m.srcs[t], c)}
	}
	return out
}

func variantKey(name string, c int) string { return fmt.Sprintf("%s/%d", name, c) }

// delta is one commit of the stream: batchSize deletes and batchSize
// inserts of triples, as terms.
type delta struct {
	ins, del [][3]rdf.Term
	// batch is the same delta prebuilt for the facade.
	batch *cliquesquare.Batch
	// ntBytes is the N-Triples size of the delta, the denominator of
	// write amplification.
	ntBytes int64
}

// stream holds the two alternating commits. Two disjoint seeded
// samples D0, D1 of the generated triples are chosen and D1 is removed
// before the engine is built (state A = G − D1). Odd commits delete D0
// and insert D1 (state B = G − D0), even commits revert, so every
// commit has the same shape, the dataset size never changes, no commit
// mints a dictionary term, and the data is in state A whenever an even
// number of commits has been applied: answers can be checked exactly
// against two oracle passes.
type stream struct {
	toB, toA *delta
	d1       []rdf.Triple
}

// newStream samples the pools from g (before D1 is removed).
func newStream(g *rdf.Graph, rng *rand.Rand) *stream {
	triples := g.Triples()
	n := batchSize
	if 2*n > len(triples) {
		n = len(triples) / 2
	}
	idx := rng.Perm(len(triples))[:2*n]
	terms := func(ids []int) ([][3]rdf.Term, []rdf.Triple) {
		ts := make([][3]rdf.Term, len(ids))
		enc := make([]rdf.Triple, len(ids))
		for i, k := range ids {
			t := triples[k]
			enc[i] = t
			ts[i] = [3]rdf.Term{g.Dict.Term(t.S), g.Dict.Term(t.P), g.Dict.Term(t.O)}
		}
		return ts, enc
	}
	d0, _ := terms(idx[:n])
	d1, d1enc := terms(idx[n:])
	return &stream{toB: newDelta(d1, d0), toA: newDelta(d0, d1), d1: d1enc}
}

func newDelta(ins, del [][3]rdf.Term) *delta {
	d := &delta{ins: ins, del: del, batch: new(cliquesquare.Batch)}
	for _, t := range del {
		d.batch.Delete(t[0], t[1], t[2])
		d.ntBytes += ntLen(t)
	}
	for _, t := range ins {
		d.batch.Insert(t[0], t[1], t[2])
		d.ntBytes += ntLen(t)
	}
	return d
}

// ntLen is the length of the triple's N-Triples line.
func ntLen(t [3]rdf.Term) int64 {
	return int64(len(t[0].String()) + len(t[1].String()) + len(t[2].String()) + len("   .\n"))
}

// commit returns the i-th commit (0-based) of a stream that starts in
// state A.
func (s *stream) commit(i int) *delta {
	if i%2 == 0 {
		return s.toB
	}
	return s.toA
}
