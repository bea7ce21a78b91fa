// Live resharding: changing the cluster size without reloading.
//
// A resize is one epoch, committed like a batch: every row whose
// placement key the policy puts on another node at the target size is
// deleted from its node and appended to its new one, the cluster size
// changes, and the new view publishes, all in one Tx. A view pinned
// before the resize keeps reading the old placement; the next one reads
// the new placement complete, so no view ever sees a key's rows split
// across nodes. Only the stored rows move: the property replica's files
// are placed by the view's placement (View.Open), so they change node
// with the view that publishes.
package partition

import (
	"fmt"

	"cliquesquare/internal/dstore"
)

// ResizeStats is the bookkeeping of one Resize.
type ResizeStats struct {
	// MovedRows counts row relocations (replicas counted separately);
	// TotalRows is the full row count of the three replicas, so
	// MovedRows/TotalRows is the moved fraction an elastic placement
	// keeps near the ideal |ΔN|/max(N). A property file's rows count as
	// moved when its node changes.
	MovedRows, TotalRows int
	// MovedCells counts the TermID cells relocated: rows × the width of
	// their file, 2 for an (s, o) file and 1 for a class file, whose
	// name fixes the object too.
	MovedCells int
}

// MovedFraction is MovedRows / TotalRows (0 for an empty store).
func (s ResizeStats) MovedFraction() float64 {
	if s.TotalRows == 0 {
		return 0
	}
	return float64(s.MovedRows) / float64(s.TotalRows)
}

// Resize re-places the current view at newN nodes under the policy and
// commits it as one epoch with the next topology version. It walks the
// view's stored files node by node, in name and row order, and moves
// each row whose placed cell the new placement puts elsewhere; the
// commit merges the moved rows into their destination files in order.
// The property replica's part of the stats comes from the view's
// counters: its files hold no rows to walk.
func (p *Partitioner) Resize(newN int) (ResizeStats, error) {
	var st ResizeStats
	if newN <= 0 {
		return st, fmt.Errorf("partition: reshard to %d nodes", newN)
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	old := p.cur.Load()
	oldN := old.snap.N()
	if newN == oldN {
		return st, fmt.Errorf("partition: reshard to current size %d", newN)
	}
	v := &View{
		p:           p,
		place:       p.policy(newN),
		topo:        old.topo + 1,
		typeID:      old.typeID,
		properties:  old.properties,
		typeObjects: old.typeObjects,
	}
	tx := p.store.Begin()
	defer tx.Abort()
	tx.SetN(newN)
	if p.mode == ThreeReplica {
		for prop, n := range old.properties {
			st.TotalRows += n
			if old.place.NodeFor(prop) != v.place.NodeFor(prop) {
				w := 2
				if prop == old.typeID {
					w = 1
				}
				st.MovedRows += n
				st.MovedCells += n * w
			}
		}
	}
	for node := 0; node < oldN; node++ {
		nd := old.snap.Node(node)
		for _, name := range nd.Names() {
			f, _ := nd.Get(name)
			st.TotalRows += f.NumRows()
			for _, k := range f.Keys() {
				// A row is placed by its key's placed cell.
				placed, _ := dstore.Cells(k)
				if dest := v.place.NodeFor(placed); dest != node {
					tx.Delete(node, name, k)
					tx.Insert(dest, name, k)
					st.MovedRows++
					st.MovedCells += 2
				}
			}
		}
	}
	v.snap = tx.Commit()
	p.cur.Store(v)
	return st, nil
}
