package csq

import (
	"fmt"
	"time"

	"cliquesquare/internal/wal"
)

// ReshardResult reports what a completed AddNodes/RemoveNodes did.
type ReshardResult struct {
	// From and To are the cluster sizes on either side of the resize.
	From, To int
	// MovedRows / TotalRows is the data that relocated in the simulated
	// cluster, its three replicas counted (MovedFraction precomputes the
	// ratio): a property-replica file's rows move when its node does,
	// though the store holds their cells in the other two. An elastic
	// placement keeps it near the ideal |To-From|/max(From,To), where
	// the paper's modulo placement reshuffles nearly everything.
	MovedRows, TotalRows int
	MovedFraction        float64
	// MovedCells counts relocated TermID cells: rows × their file's
	// width, 2 cells a row and 1 in an rdf:type class file.
	MovedCells int
	// DataVersion is the epoch the resize committed (one past the one
	// before it); TopologyVersion the post-resize topology counter (0 at
	// load, +1 per resize).
	DataVersion     uint64
	TopologyVersion uint64
	// Wall is the end-to-end reshard duration as seen by the caller's
	// request (the scan of the store and the commit).
	Wall time.Duration
}

// Nodes reports the current cluster size (Config.Nodes until the first
// resize).
func (e *Engine) Nodes() int { return e.part.Current().Nodes() }

// TopologyVersion reports how many resizes have completed: 0 at load,
// incremented by every AddNodes/RemoveNodes.
func (e *Engine) TopologyVersion() uint64 { return e.part.TopologyVersion() }

// AddNodes grows the cluster by k nodes, relocating only the rows whose
// placement changed. The resize commits as one epoch, like a batch: a
// query pinned before it keeps reading the old placement, one pinned
// after reads the new one. On a durable engine it is one topology record
// in the WAL, fsynced before the epoch applies, so a crash at any point
// recovers at the old size or the new one.
func (e *Engine) AddNodes(k int) (ReshardResult, error) {
	if k <= 0 {
		return ReshardResult{}, fmt.Errorf("csq: AddNodes(%d): k must be positive", k)
	}
	return e.reshard(k)
}

// RemoveNodes shrinks the cluster by k nodes (the highest-numbered
// ones), moving their rows to the survivors in the same epoch.
// Semantics otherwise match AddNodes.
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

// flushReshard executes one resize exactly as flushGroup commits a
// batch: WAL-first — one topology record (empty triple delta, Topology =
// the new size) is fsynced before anything moves — then one epoch that
// moves every row the new placement puts elsewhere and changes the size,
// and one cache invalidation. Planners keep reading the catalog at the
// epoch before while the resize scans and commits. A crash at any point
// recovers at the old size or the new one, each a consistent placement
// of the full (unchanged) graph. On a log failure nothing moved: the
// engine keeps serving the last committed epoch, and the log's sticky
// error fails later writes.
func (e *Engine) flushReshard(req *request) {
	start := time.Now()
	from := e.Nodes()
	to := from + req.reshard
	if to < 1 {
		req.answer(response{err: fmt.Errorf("csq: resize %d%+d leaves no nodes", from, req.reshard)})
		return
	}
	if _, _, err := e.logStep(&wal.Record{Topology: uint32(to)}); err != nil {
		req.answer(response{err: err})
		return
	}
	st, err := e.part.Resize(to)
	e.invalidate(nil, nil)
	if err != nil {
		req.answer(response{err: err})
		return
	}
	req.answer(response{shard: ReshardResult{
		From: from, To: to,
		MovedRows: st.MovedRows, TotalRows: st.TotalRows,
		MovedFraction:   st.MovedFraction(),
		MovedCells:      st.MovedCells,
		DataVersion:     e.DataVersion(),
		TopologyVersion: e.TopologyVersion(),
		Wall:            time.Since(start),
	}})
}
