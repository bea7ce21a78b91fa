package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"cliquesquare"
	"cliquesquare/internal/core"
	"cliquesquare/internal/cost"
	"cliquesquare/internal/dstore"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
	"cliquesquare/internal/wal"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // request number within its client; -1 outside a request
	Client int    `json:"client"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// clientTrace is one client's span log. Only that client's goroutine
// writes it, so recording takes no lock.
type clientTrace struct {
	id    int
	tag   string // query name the client stamps on its requests, e.g. "c0"
	on    bool   // whether this client's current round is traced
	t0    time.Time
	spans []span
	reqs  int

	// State of the request in flight: the execute span jobs hang under,
	// and when the previous job ended.
	jobParent int
	jobStart  int64

	// Counts over traced requests, from physical.Result.
	jobs, shuffled, rows int
	simMicros            float64
}

func (ct *clientTrace) now() int64 { return time.Since(ct.t0).Nanoseconds() }

func (ct *clientTrace) begin(name string, parent, req int) int {
	ct.spans = append(ct.spans, span{Parent: parent, Req: req, Client: ct.id, Name: name, Start: ct.now()})
	return len(ct.spans) - 1
}

func (ct *clientTrace) end(i int) { ct.spans[i].End = ct.now() }

// timed records fn as a root span outside any request (a shadow call)
// and returns its duration.
func (ct *clientTrace) timed(name string, fn func()) time.Duration {
	i := ct.begin(name, -1, -1)
	fn()
	ct.end(i)
	return ct.spans[i].dur()
}

// recorder owns the span logs of a traced run: one per reader client
// plus one for everything the main goroutine times (shadow calls,
// commits, recoveries).
type recorder struct {
	clients []*clientTrace
	main    *clientTrace
	byTag   map[string]*clientTrace
}

func newRecorder(clients int) *recorder {
	t0 := time.Now()
	r := &recorder{byTag: make(map[string]*clientTrace)}
	for c := 0; c <= clients; c++ {
		ct := &clientTrace{id: c, tag: "c" + string(rune('0'+c)), t0: t0}
		r.byTag[ct.tag] = ct
		if c < clients {
			r.clients = append(r.clients, ct)
		} else {
			r.main = ct
		}
	}
	return r
}

// sink is the engine's Config.StatsSink. Jobs run on the goroutine of
// the request that executes them and are named "<query name>-...", so
// the client's tag leads back to its log; the gap since the previous
// callback is the job's wall time.
func (r *recorder) sink(js mapreduce.JobStats) {
	tag, _, _ := strings.Cut(js.Name, "-")
	ct := r.byTag[tag]
	if ct == nil || !ct.on {
		return
	}
	now := ct.now()
	ct.spans = append(ct.spans, span{Parent: ct.jobParent, Req: ct.reqs, Client: ct.id, Name: "mapreduce.job", Start: ct.jobStart, End: now})
	ct.jobStart = now
}

// all returns every span with run-wide ids.
func (r *recorder) all() []span {
	var out []span
	for _, ct := range append(append([]*clientTrace(nil), r.clients...), r.main) {
		base := len(out)
		for i, s := range ct.spans {
			s.ID = base + i
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// dumpSpans writes the span log as one JSON array.
func dumpSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedDriver builds csq engines directly (the facade cannot install
// a stats sink) with the configuration the facade would derive.
type tracedDriver struct{ rec *recorder }

func (d tracedDriver) config(c engineConfig) (csq.Config, wal.Options) {
	opts := c.options()
	cfg := csq.DefaultConfig()
	cfg.Nodes = opts.Nodes
	cfg.Parallelism = opts.Parallelism
	cfg.ResultCacheBytes = opts.ResultCacheBytes
	cfg.StatsSink = d.rec.sink
	return cfg, wal.Options{
		Dir:             opts.Durable.Dir,
		GroupMaxWait:    opts.Durable.GroupMaxWait,
		CheckpointBytes: opts.Durable.CheckpointBytes,
	}
}

func (d tracedDriver) create(g *cliquesquare.Graph, c engineConfig) (engine, error) {
	cfg, wo := d.config(c)
	e, err := csq.NewDurable(g, cfg, wo)
	if err != nil {
		return nil, err
	}
	return &tracedEngine{e: e, rec: d.rec}, nil
}

func (d tracedDriver) reopen(c engineConfig) (engine, error) {
	cfg, wo := d.config(c)
	// Shadow: the log's own share of a recovery (checkpoint decode and
	// record replay into no-op callbacks), before the engine's.
	d.rec.main.timed("shadow.wal.replay", func() {
		l, _, err := wal.Open(wo, func(*wal.Checkpoint) error { return nil }, func(*wal.Record) error { return nil })
		if err == nil {
			l.Close()
		}
	})
	var e *csq.Engine
	var err error
	d.rec.main.timed("csq.recover", func() { e, err = csq.OpenDurable(cfg, wo) })
	if err != nil {
		return nil, err
	}
	return &tracedEngine{e: e, rec: d.rec}, nil
}

// tracedEngine answers a query with the calls Engine.Query makes, each
// timed from here.
type tracedEngine struct {
	e   *csq.Engine
	rec *recorder
}

func (t *tracedEngine) query(client int, src string) (answer, error) {
	ct := t.rec.clients[client]
	if !ct.on {
		return t.plain(ct, src)
	}
	req := ct.begin("request", -1, ct.reqs)
	defer func() { ct.end(req); ct.reqs++ }()

	s := ct.begin("sparql.parse", req, ct.reqs)
	q, err := sparql.Parse(src)
	ct.end(s)
	if err != nil {
		return answer{}, err
	}
	q.Name = ct.tag

	revalidated := t.e.UpdateStats().Revalidations
	s = ct.begin("csq.prepare", req, ct.reqs)
	p, hit, err := t.e.PrepareCached(q)
	ct.end(s)
	if err != nil {
		return answer{}, err
	}
	switch {
	case !hit:
		ct.spans[s].Name = "csq.prepare.cold"
	case t.e.UpdateStats().Revalidations != revalidated:
		ct.spans[s].Name = "csq.prepare.revalidate"
	default:
		ct.spans[s].Name = "csq.prepare.hit"
	}

	s = ct.begin("physical.execute", req, ct.reqs)
	ct.jobParent, ct.jobStart = s, ct.spans[s].Start
	r, err := t.e.ExecutePrepared(p)
	ct.end(s)
	if err != nil {
		return answer{}, err
	}
	ct.jobs += len(r.Jobs)
	for _, j := range r.Jobs {
		ct.shuffled += j.Shuffled
	}
	ct.rows += len(r.Rows)
	ct.simMicros += r.Time

	s = ct.begin("rdf.decode", req, ct.reqs)
	rows := decode(t.e.Graph().Dict, r.Rows)
	ct.end(s)
	return answer{rows: rows, version: r.DataVersion}, nil
}

// plain is the same request with nothing recorded: the untraced half of
// the overhead comparison.
func (t *tracedEngine) plain(ct *clientTrace, src string) (answer, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return answer{}, err
	}
	q.Name = ct.tag
	p, _, err := t.e.PrepareCached(q)
	if err != nil {
		return answer{}, err
	}
	r, err := t.e.ExecutePrepared(p)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: decode(t.e.Graph().Dict, r.Rows), version: r.DataVersion}, nil
}

// decode turns result rows into term strings the way Prepared.Run
// does: one row index, one slab of cells.
func decode(dict *rdf.Dict, in []mapreduce.Row) [][]string {
	out := make([][]string, len(in))
	cells := 0
	for _, row := range in {
		cells += len(row)
	}
	slab := make([]string, cells)
	for ri, row := range in {
		dec := slab[:len(row):len(row)]
		slab = slab[len(row):]
		for i, id := range row {
			dec[i] = dict.Term(id).String()
		}
		out[ri] = dec
	}
	return out
}

func (t *tracedEngine) apply(d *delta) (csq.BatchResult, error) {
	m := t.rec.main
	dict := t.e.Graph().Dict
	var ins, del []rdf.Triple
	m.timed("rdf.encode", func() { ins, del = encodeDelta(dict, d) })
	var br csq.BatchResult
	var err error
	m.timed("csq.commit", func() { br, err = t.e.ApplyBatch(ins, del) })
	return br, err
}

// encodeDelta is the facade's ApplyBatch preamble: inserts are encoded
// (minting ids as needed), deletes looked up.
func encodeDelta(dict *rdf.Dict, d *delta) (ins, del []rdf.Triple) {
	ins = make([]rdf.Triple, 0, len(d.ins))
	for _, t := range d.ins {
		ins = append(ins, rdf.Triple{S: dict.Encode(t[0]), P: dict.Encode(t[1]), O: dict.Encode(t[2])})
	}
	for _, t := range d.del {
		s, ok1 := dict.Lookup(t[0])
		p, ok2 := dict.Lookup(t[1])
		o, ok3 := dict.Lookup(t[2])
		if ok1 && ok2 && ok3 {
			del = append(del, rdf.Triple{S: s, P: p, O: o})
		}
	}
	return ins, del
}

func (t *tracedEngine) compact() error {
	var err error
	t.rec.main.timed("wal.checkpoint", func() { err = t.e.Compact() })
	return err
}

func (t *tracedEngine) close() error       { return t.e.Close() }
func (t *tracedEngine) version() uint64    { return t.e.DataVersion() }
func (t *tracedEngine) counters() counters { return countersOf(t.e) }

// shadowCalls is how many times each shadowed function is timed.
const shadowCalls = 24

// shadowReads times, outside any request, the public functions a cold
// PrepareCached runs in sequence, over the workload's own queries.
// plans reports the optimizer's plan count summed over the calls.
func shadowReads(m *clientTrace, g *rdf.Graph, srcs []string) (plans int, err error) {
	cfg := csq.DefaultConfig()
	probe := plancache.New[int](0)
	for k := 0; k < shadowCalls; k++ {
		q, err := sparql.Parse(srcs[k%len(srcs)])
		if err != nil {
			return 0, err
		}
		var key string
		m.timed("shadow.sparql.canon", func() { key = sparql.Canonicalize(q).Key })
		fill := func() (int, error) { return k, nil }
		if _, _, err := probe.Do(key, fill); err != nil {
			return 0, err
		}
		m.timed("shadow.plancache.probe", func() { _, _, err = probe.Do(key, fill) })
		if err != nil {
			return 0, err
		}
		var res *core.Result
		m.timed("shadow.core.optimize", func() {
			res, err = core.Optimize(q, core.Options{
				Method: cfg.Method, MaxPlans: cfg.MaxPlans, MaxCoversPerStep: cfg.MaxCoversPerStep, Timeout: cfg.Timeout,
			})
		})
		if err != nil {
			return 0, err
		}
		plans += len(res.Plans)
		var st *cost.Stats
		m.timed("shadow.cost.newstats", func() { st = cost.NewStats(g, q) })
		var best *core.Plan
		m.timed("shadow.cost.choose", func() { best, _, _ = cost.NewModel(cfg.Constants, st).ChooseIndexed(res.Unique) })
		m.timed("shadow.core.pushproj", func() { best = core.PushProjections(best) })
		m.timed("shadow.physical.compile", func() { _, err = physical.CompileWith(best, nil) })
		if err != nil {
			return 0, err
		}
	}
	return plans, nil
}

// writeShadow is the outcome of shadowWrites beyond its spans.
type writeShadow struct {
	generate, load         time.Duration
	graphBytes, storeBytes uint64
	triples                int
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// shadowWrites replays the stream's two commits on scratch copies of
// the data, timing each stage an engine commit hides inside
// ApplyBatch: the graph's RemoveBatch, the partitioner's ApplyBatch,
// a bare store transaction's Commit, the statistics' Apply, and the
// whole of a non-durable engine's ApplyBatch (the second commit path).
// Building the copies also times data generation and the partitioned
// load, and sizes graph and store by the live heap they add.
func shadowWrites(m *clientTrace, univ int, srcs []string) (writeShadow, error) {
	var ws writeShadow
	before := heapAlloc()
	var g *rdf.Graph
	var strm *stream
	ws.generate = m.timed("shadow.rdf.generate", func() { g, strm = generate(univ) })
	ws.triples = g.Len()
	afterGraph := heapAlloc()
	ws.graphBytes = afterGraph - before

	var part *partition.Partitioner
	ws.load = m.timed("shadow.partition.load", func() {
		part = partition.LoadWithPolicy(dstore.NewStore(nodes), g, partition.ThreeReplica, partition.ModuloPolicy)
	})
	ws.storeBytes = heapAlloc() - afterGraph
	bare := dstore.NewStore(nodes)
	partition.LoadWithPolicy(bare, g, partition.ThreeReplica, partition.ModuloPolicy)
	place := partition.ModuloPolicy(nodes)
	typeID, _ := g.Dict.Lookup(rdf.NewIRI(sparql.RDFType))
	// replicas calls f with the node and file of each of t's three copies.
	replicas := func(t rdf.Triple, f func(node int, file string)) {
		f(place.NodeFor(t.S), partition.FileName(rdf.SPos, t.P, 0))
		f(place.NodeFor(t.O), partition.FileName(rdf.OPos, t.P, 0))
		class := rdf.NoTerm
		if t.P == typeID {
			class = t.O
		}
		f(place.NodeFor(t.P), partition.FileName(rdf.PPos, t.P, class))
	}

	var stats []*cost.Stats
	for _, src := range srcs {
		q, err := sparql.Parse(src)
		if err != nil {
			return ws, err
		}
		stats = append(stats, cost.NewStats(g, q))
	}

	memGraph, _ := generate(univ)
	memCfg := csq.DefaultConfig()
	memCfg.Nodes = nodes
	mem := csq.New(memGraph, memCfg)
	defer mem.Close()

	for k := 0; k < shadowCalls; k++ {
		d := strm.commit(k)
		ins, del := encodeDelta(g.Dict, d)
		m.timed("shadow.rdf.removebatch", func() { g.RemoveBatch(del) })
		for _, t := range ins {
			g.Add(t)
		}
		m.timed("shadow.partition.apply", func() { part.ApplyBatch(ins, del, g.Dict) })

		tx := bare.Begin()
		for _, t := range del {
			replicas(t, func(node int, file string) { tx.DeleteRow(node, file, dstore.Row{t.S, t.P, t.O}) })
		}
		for _, t := range ins {
			replicas(t, func(node int, file string) { tx.AppendCells(node, file, partition.TripleSchema, t.S, t.P, t.O) })
		}
		m.timed("shadow.dstore.txcommit", func() { tx.Commit() })

		for _, st := range stats {
			m.timed("shadow.cost.apply", func() { st.Apply(g.Dict, ins, del) })
		}

		mins, mdel := encodeDelta(memGraph.Dict, d)
		var err error
		m.timed("shadow.csq.applymem", func() { _, err = mem.ApplyBatch(mins, mdel) })
		if err != nil {
			return ws, err
		}
	}

	// Index lookups on the partitioned copy: on each node's first file
	// of at least lookupBlock rows, one span over lookupBlock probes of
	// the subject column (a probe is too short to time alone), after an
	// untimed probe has built the lazy index.
	snap := part.Current().Snap()
	for n := 0; n < snap.N(); n++ {
		node := snap.Node(n)
		for _, name := range node.Names() {
			f, _ := node.Get(name)
			if f.NumRows() < lookupBlock {
				continue
			}
			f.Lookup(0, f.Row(0)[0])
			m.timed("shadow.dstore.lookups", func() {
				for i := 0; i < lookupBlock; i++ {
					f.Lookup(0, f.Row(i)[0])
				}
			})
			break
		}
	}
	return ws, nil
}

// lookupBlock is the number of index probes one lookup span covers.
const lookupBlock = 200
