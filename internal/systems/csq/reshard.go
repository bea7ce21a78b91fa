package csq

import (
	"fmt"
	"time"

	"cliquesquare/internal/partition"
	"cliquesquare/internal/wal"
)

// ReshardResult reports what a completed AddNodes/RemoveNodes did.
type ReshardResult struct {
	// From and To are the cluster sizes on either side of the resize.
	From, To int
	// Steps is the number of epochs the move-set committed as.
	Steps int
	// MovedRows / TotalRows is the data that physically relocated
	// (MovedFraction precomputes the ratio); an elastic placement keeps
	// it near the ideal |To-From|/max(From,To), where the paper's
	// modulo placement reshuffles nearly everything.
	MovedRows, TotalRows int
	MovedFraction        float64
	// MovedCells counts relocated TermID cells (rows × width).
	MovedCells int
	// DataVersion is the epoch after the last step; TopologyVersion the
	// post-resize topology counter (0 at load, +1 per resize).
	DataVersion     uint64
	TopologyVersion uint64
	// Wall is the end-to-end reshard duration as seen by the caller's
	// request (planning plus every step commit).
	Wall time.Duration
}

// Nodes reports the current cluster size (Config.Nodes until the first
// resize).
func (e *Engine) Nodes() int { return e.part.Current().Nodes() }

// TopologyVersion reports how many resizes have completed: 0 at load,
// incremented by every AddNodes/RemoveNodes.
func (e *Engine) TopologyVersion() uint64 { return e.part.TopologyVersion() }

// AddNodes grows the cluster by k nodes, relocating only the rows whose
// placement changed. In-flight queries keep serving from their pinned
// views throughout; each intermediate epoch preserves the co-location
// invariant, so a query pinned mid-reshard is as correct as one pinned
// before or after. On a durable engine every step is WAL-logged (as a
// topology record) before it applies, so a crash mid-reshard recovers
// to a consistent topology.
func (e *Engine) AddNodes(k int) (ReshardResult, error) {
	if k <= 0 {
		return ReshardResult{}, fmt.Errorf("csq: AddNodes(%d): k must be positive", k)
	}
	return e.reshard(k)
}

// RemoveNodes shrinks the cluster by k nodes (the highest-numbered
// ones), draining their rows to the survivors first. Semantics
// otherwise match AddNodes.
func (e *Engine) RemoveNodes(k int) (ReshardResult, error) {
	if k <= 0 {
		return ReshardResult{}, fmt.Errorf("csq: RemoveNodes(%d): k must be positive", k)
	}
	return e.reshard(-k)
}

// reshard hands a resize by delta nodes to the commit pipeline, where
// it serializes with every other write.
func (e *Engine) reshard(delta int) (ReshardResult, error) {
	r := e.submit(&request{reshard: delta})
	return r.shard, r.err
}

// planResize turns a node-count delta into a reshard plan against the
// current topology.
func (e *Engine) planResize(delta int) (*partition.ReshardPlan, error) {
	cur := e.part.Current().Nodes()
	target := cur + delta
	if target < 1 {
		return nil, fmt.Errorf("csq: resize %d%+d leaves no nodes", cur, delta)
	}
	return e.part.PlanReshard(target)
}

// stepTopology is the cluster size after step i of the plan commits —
// the value the step's WAL topology record carries. Growing resizes in
// the first step (new nodes must exist to receive rows); shrinking in
// the last (dropped nodes are empty only then).
func stepTopology(rp *partition.ReshardPlan, i int) int {
	if rp.NewN > rp.OldN || i == rp.Steps()-1 {
		return rp.NewN
	}
	return rp.OldN
}

// flushReshard executes one resize. It runs on the engine's only
// writer, so planning needs no lock and writes submitted behind it wait
// their turn, exactly like a long group. Each step is one epoch and,
// like a batch, WAL-first — a topology record (empty triple delta,
// Topology = post-step size) is fsynced before the step applies — so a
// crash at any point recovers to the topology of the last durable
// record, a consistent placement of the full (unchanged) graph. stateMu
// is held per step, not across the resize: every intermediate epoch
// preserves co-location, so planners need not wait the whole move out.
// A log failure aborts between steps; the engine keeps serving the last
// committed epoch, and the log's sticky error fails later writes.
func (e *Engine) flushReshard(req *request) {
	start := time.Now()
	rp, err := e.planResize(req.reshard)
	for i := 0; err == nil && i < rp.Steps(); i++ {
		if _, _, err = e.logStep(&wal.Record{Topology: uint32(stepTopology(rp, i))}); err == nil {
			e.stateMu.Lock()
			e.part.ApplyStep(rp, i)
			e.invalidate(nil, nil)
			e.stateMu.Unlock()
		}
	}
	if err != nil {
		req.answer(response{err: err})
		return
	}
	req.answer(response{shard: ReshardResult{
		From: rp.OldN, To: rp.NewN,
		Steps:     rp.Steps(),
		MovedRows: rp.MovedRows, TotalRows: rp.TotalRows,
		MovedFraction:   rp.MovedFraction(),
		MovedCells:      rp.MovedCells,
		DataVersion:     e.DataVersion(),
		TopologyVersion: e.TopologyVersion(),
		Wall:            time.Since(start),
	}})
}
