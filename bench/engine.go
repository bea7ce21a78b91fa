package main

import (
	"cliquesquare"
	"cliquesquare/internal/systems/csq"
)

// answer is one decoded query reply.
type answer struct {
	rows    [][]string
	version uint64
}

// counters is one snapshot of the engine's own statistics.
type counters struct {
	plans  cliquesquare.CacheStats
	result cliquesquare.CacheStats
	update cliquesquare.UpdateStats
	dur    cliquesquare.DurabilityStats
}

// statSource is the statistics surface the facade and the csq engine
// share.
type statSource interface {
	CacheStats() cliquesquare.CacheStats
	ResultCacheStats() cliquesquare.CacheStats
	UpdateStats() cliquesquare.UpdateStats
	DurabilityStats() cliquesquare.DurabilityStats
}

func countersOf(s statSource) counters {
	return counters{plans: s.CacheStats(), result: s.ResultCacheStats(), update: s.UpdateStats(), dur: s.DurabilityStats()}
}

// engine is what the load generator drives. The untraced runs use the
// public facade; the traced runs walk the same pipeline call by call
// (trace.go), so one generator serves both.
type engine interface {
	// query answers src for the given client (clients are numbered so a
	// traced engine can keep per-client span logs without locking).
	query(client int, src string) (answer, error)
	apply(d *delta) (csq.BatchResult, error)
	compact() error
	close() error
	version() uint64
	counters() counters
}

// engineConfig is what both engine variants are built from.
type engineConfig struct {
	w   workload
	dir string // write-ahead-log directory
}

// options are the facade options of the engine under test: durable on
// the real filesystem, fsync per group commit, no added group wait,
// automatic checkpoints off (the harness calls Compact on a fixed
// schedule instead).
func (c engineConfig) options() cliquesquare.Options {
	return cliquesquare.Options{
		Nodes:            nodes,
		Parallelism:      c.w.parallelism,
		ResultCacheBytes: c.w.resultCacheBytes,
		Durable: &cliquesquare.DurableOptions{
			Dir:             c.dir,
			GroupMaxWait:    0,
			CheckpointBytes: -1,
		},
	}
}

// driver builds and recovers engines of one variant.
type driver interface {
	create(g *cliquesquare.Graph, c engineConfig) (engine, error)
	// reopen recovers from the log in c.dir, as after a crash.
	reopen(c engineConfig) (engine, error)
}

type facadeDriver struct{}

func (facadeDriver) create(g *cliquesquare.Graph, c engineConfig) (engine, error) {
	e, err := cliquesquare.NewEngine(g, c.options())
	if err != nil {
		return nil, err
	}
	return facadeEngine{e}, nil
}

func (facadeDriver) reopen(c engineConfig) (engine, error) {
	e, err := cliquesquare.Open(c.options())
	if err != nil {
		return nil, err
	}
	return facadeEngine{e}, nil
}

type facadeEngine struct{ e *cliquesquare.Engine }

func (f facadeEngine) query(_ int, src string) (answer, error) {
	r, err := f.e.Query(src)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: r.Rows, version: r.DataVersion}, nil
}

func (f facadeEngine) apply(d *delta) (csq.BatchResult, error) { return f.e.ApplyBatch(d.batch) }
func (f facadeEngine) compact() error                          { return f.e.Compact() }
func (f facadeEngine) close() error                            { return f.e.Close() }
func (f facadeEngine) version() uint64                         { return f.e.DataVersion() }
func (f facadeEngine) counters() counters                      { return countersOf(f.e) }
