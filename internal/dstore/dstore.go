// Package dstore simulates the distributed file system underneath
// CliqueSquare: every compute node holds a set of named partition files,
// each a sorted array of packed two-cell rows (an HDFS-like layout; the
// partition package places Section 5.1's replicas).
//
// The store is versioned with copy-on-write snapshot isolation. All
// reads go through an immutable Snapshot: Store.Current pins the latest
// published epoch, and a pinned Snapshot never changes — readers observe
// a consistent cut of every node's files for as long as they hold it,
// while writers build the next epoch. Writes are batched in a Tx
// (Store.Begin / Tx.Commit): a commit rewrites only the touched files,
// shares every untouched *File pointer with the previous epoch, and
// publishes the new Snapshot atomically, so a batch is either invisible
// or fully visible — never torn.
//
// A stored row is two cells, the one its file is placed by first, kept
// as one key placed<<32 | other (Key), and a File is its keys in
// ascending order — the order RDF-3X and Hexastore keep their
// permutations in. A scan walks one flat array; the rows of a placed
// cell are one contiguous run that Range finds by binary search, a row
// the point inside it; and a commit sorts the keys it inserts and
// deletes and merges them in, finding each delete by the same search.
// Files are immutable once published and carry no index: what a file
// holds is its keys.
package dstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"cliquesquare/internal/rdf"
)

// Row is a flat tuple of dictionary-encoded terms.
type Row []rdf.TermID

// Key packs a stored row: its placed cell high, its other cell low, so
// keys order as the rows do.
func Key(placed, other rdf.TermID) uint64 { return uint64(placed)<<32 | uint64(other) }

// Cells unpacks a key into its placed and other cells.
func Cells(k uint64) (placed, other rdf.TermID) { return rdf.TermID(k >> 32), rdf.TermID(k) }

// File is a named partition file: its rows' keys in ascending order. A
// File is immutable once it is part of a published Snapshot — mutations
// produce a successor File in the next epoch; readers holding this one
// keep an unchanging view.
type File struct {
	Name string
	keys []uint64
}

// NumRows reports the number of rows in the file.
func (f *File) NumRows() int { return len(f.keys) }

// Keys exposes the file's keys in ascending order. It must not be
// modified.
func (f *File) Keys() []uint64 { return f.keys }

// Row returns row i's cells, placed first.
func (f *File) Row(i int) Row {
	placed, other := Cells(f.keys[i])
	return Row{placed, other}
}

// Range returns the run of rows [lo, hi) whose placed cell is placed
// and whose other cell is other (NoTerm: any) — a run of the sorted
// file, or the point of one row's copies. It is two binary searches and
// allocates nothing.
func (f *File) Range(placed, other rdf.TermID) (lo, hi int) {
	first, last := Key(placed, other), Key(placed, other)
	if other == rdf.NoTerm {
		last = Key(placed, ^rdf.NoTerm)
	}
	lo = search(f.keys, first, false)
	return lo, lo + search(f.keys[lo:], last, true)
}

// search returns the number of leading keys below k — or, when after is
// set, at or below it.
func search(keys []uint64, k uint64, after bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k || after && keys[m] == k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Lookup returns the ids (row indexes) of the rows whose cell col (0:
// placed, 1: other) equals id, in ascending order: the placed cell's
// run, or a scan of the keys for the other. It builds and keeps
// nothing; readers of a run call Range.
func (f *File) Lookup(col int, id rdf.TermID) []int32 {
	lo, hi := 0, len(f.keys)
	if col == 0 {
		lo, hi = f.Range(id, rdf.NoTerm)
	}
	var ids []int32
	for i := lo; i < hi; i++ {
		if _, other := Cells(f.keys[i]); col == 0 || other == id {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// NodeView is one node's file set within a Snapshot: an immutable
// point-in-time read view.
type NodeView struct {
	id    int
	files map[string]*File
}

// ID is the node's index in the cluster.
func (v NodeView) ID() int { return v.id }

// Get returns the named file if present in this snapshot.
func (v NodeView) Get(name string) (*File, bool) {
	f, ok := v.files[name]
	return f, ok
}

// Names returns all file names on the node in this snapshot, sorted.
func (v NodeView) Names() []string {
	out := make([]string, 0, len(v.files))
	for k := range v.files {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot is one published epoch of the whole store: an immutable,
// consistent view of every node's files. Snapshots are cheap to pin
// (one atomic load) and never change once obtained.
type Snapshot struct {
	version uint64
	nodes   []map[string]*File
	// copied counts the cells the commit that published the snapshot
	// wrote into successor files (see Copied).
	copied int
	// bytes is what the snapshot's files hold (see Bytes), moved by
	// each commit by what it replaced.
	bytes int64
}

// Version is the epoch number: 0 for the empty store, incremented by
// every committed transaction.
func (s *Snapshot) Version() uint64 { return s.version }

// N reports the number of nodes.
func (s *Snapshot) N() int { return len(s.nodes) }

// Node returns node i's read view within this snapshot.
func (s *Snapshot) Node(i int) NodeView { return NodeView{id: i, files: s.nodes[i]} }

// Copied reports the cells the commit that published the snapshot wrote
// into the files it rewrote or created: two for every surviving and
// inserted key of each, the keys it kept included (0 for a store's
// first snapshot). It is the commit's copying cost, whatever it changed.
func (s *Snapshot) Copied() int { return s.copied }

// Bytes is what the snapshot's files hold, counted from capacities:
// each file's keys, header and name, and one map slot per file. Files a
// later or earlier snapshot shares are counted in each. Files never
// change once published, so the commit that publishes the snapshot
// sums it once.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// fileSlot is a File's header plus its entry in a node's file map (key
// string header, value pointer, tophash byte, rounded up).
const fileSlot = int64(unsafe.Sizeof(File{})) + 32

// bytes is what the file adds to its snapshot's Bytes: its keys, its
// header and map slot, and its name.
func (f *File) bytes() int64 {
	if f == nil {
		return 0
	}
	return fileSlot + int64(len(f.Name)) + int64(cap(f.keys))*8
}

// Store is the cluster-wide versioned file store: a current Snapshot
// of every compute node's files, published atomically, and a
// single-writer transaction log of epochs. The cluster size lives in
// the snapshot, so a Tx.SetN resize takes effect the instant its epoch
// publishes.
type Store struct {
	writeMu sync.Mutex // serializes Begin..Commit writer critical sections
	cur     atomic.Pointer[Snapshot]
	keyOf   func(name string, row Row) (uint64, bool) // see KeyBy
}

// KeyBy sets the rule by which AppendCells and DeleteRow turn a row
// given whole into the named file's key, held reporting false for a
// file the store does not hold, which drops the row. Call it before the
// first Begin.
func (s *Store) KeyBy(rule func(name string, row Row) (k uint64, held bool)) { s.keyOf = rule }

// NewStore creates a store with n empty nodes at version 0.
func NewStore(n int) *Store {
	return NewStoreAt(n, 0)
}

// NewStoreAt creates a store with n empty nodes whose initial snapshot
// carries the given version. Crash recovery uses it to re-load a
// reconstructed graph so the first commit lands on the exact epoch the
// durable log recovered through, keeping epoch numbers continuous
// across restarts.
func NewStoreAt(n int, version uint64) *Store {
	if n <= 0 {
		panic("dstore: store needs at least one node")
	}
	s := &Store{}
	snap := &Snapshot{version: version, nodes: make([]map[string]*File, n)}
	for i := range snap.nodes {
		snap.nodes[i] = make(map[string]*File)
	}
	s.cur.Store(snap)
	return s
}

// N reports the number of nodes in the current snapshot. It can change
// across a committed Tx.SetN; size-dependent work should read N once
// from a pinned Snapshot instead.
func (s *Store) N() int { return len(s.cur.Load().nodes) }

// Current pins the latest published snapshot (one atomic load).
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// fileMut buffers one file's pending mutations within a Tx.
type fileMut struct {
	inserts, deletes []uint64
}

// Tx is a write transaction: it buffers inserts and deletes across any
// number of nodes and files, then Commit builds epoch N+1 by rewriting
// only the touched files and publishes it atomically. A Tx holds the
// store's writer lock from Begin until Commit or Abort; readers are
// never blocked — they keep their pinned snapshots.
type Tx struct {
	s    *Store
	base *Snapshot
	muts map[int]map[string]*fileMut
	newN int // 0 = keep the base size; else resize the cluster at commit
	done bool
}

// Begin starts a write transaction against the current snapshot,
// blocking until any in-flight writer commits or aborts. Every Begin
// must be paired with Commit or Abort.
func (s *Store) Begin() *Tx {
	s.writeMu.Lock()
	return &Tx{s: s, base: s.cur.Load(), muts: make(map[int]map[string]*fileMut)}
}

// SetN resizes the cluster to n nodes when this transaction commits.
// Growing adds empty nodes (call SetN before inserting into them);
// shrinking drops the highest-numbered nodes, and Commit panics if any
// dropped node still holds files after the transaction's own mutations
// — a resize must drain them first. The resize and the buffered file
// mutations publish in the same epoch, atomically.
func (tx *Tx) SetN(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("dstore: resize to %d nodes", n))
	}
	tx.newN = n
}

// mut returns (creating if needed) the buffered mutation of a file.
func (tx *Tx) mut(node int, name string) *fileMut {
	lim := max(len(tx.base.nodes), tx.newN)
	if node < 0 || node >= lim {
		panic(fmt.Sprintf("dstore: tx touches node %d of %d", node, lim))
	}
	nm := tx.muts[node]
	if nm == nil {
		nm = make(map[string]*fileMut)
		tx.muts[node] = nm
	}
	m := nm[name]
	if m == nil {
		m = &fileMut{}
		nm[name] = m
	}
	return m
}

// Insert buffers key k for the named file on a node, creating the file
// at commit if it does not exist.
func (tx *Tx) Insert(node int, name string, k uint64) {
	m := tx.mut(node, name)
	m.inserts = append(m.inserts, k)
}

// Delete buffers the removal of one copy of key k from the named file
// on a node. The key may come from the base snapshot or from an earlier
// Insert in this same transaction (the pair nets out); Commit panics if
// it is neither — the caller deleting a triple that was never stored
// indicates a partitioning bug.
func (tx *Tx) Delete(node int, name string, k uint64) {
	m := tx.mut(node, name)
	m.deletes = append(m.deletes, k)
}

// AppendCells inserts rows given whole, as flattened cells, len(schema)
// cells a row: each becomes the named file's key by the store's rule
// (KeyBy), or is dropped for a file the store does not hold. It serves
// writers that address the files with whole triples.
func (tx *Tx) AppendCells(node int, name string, schema []string, cells ...rdf.TermID) {
	if len(schema) == 0 || len(cells)%len(schema) != 0 {
		panic(fmt.Sprintf("dstore: file %q: %d cells is not a multiple of width %d", name, len(cells), len(schema)))
	}
	for ; len(cells) > 0; cells = cells[len(schema):] {
		if k, held := tx.s.keyOf(name, cells[:len(schema)]); held {
			tx.Insert(node, name, k)
		}
	}
}

// DeleteRow deletes a row given whole, as AppendCells inserts one.
func (tx *Tx) DeleteRow(node int, name string, row Row) {
	if k, held := tx.s.keyOf(name, row); held {
		tx.Delete(node, name, k)
	}
}

// Abort discards the transaction and releases the writer lock. Aborting
// after Commit is a no-op, so `defer tx.Abort()` is a safe pattern.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.s.writeMu.Unlock()
}

// Commit materializes the buffered mutations as epoch base+1: touched
// files are rewritten, sorted (copy-on-write; untouched files are shared
// by pointer), the snapshot's Bytes is moved by what they replaced, and
// the new snapshot is published atomically. It returns the published
// snapshot and releases the writer lock.
func (tx *Tx) Commit() *Snapshot {
	if tx.done {
		panic("dstore: commit on a finished tx")
	}
	n := len(tx.base.nodes)
	if tx.newN > 0 {
		n = tx.newN
	}
	// Build over the union of old and new widths: a shrink's own
	// mutations may drain nodes that are about to be dropped.
	wide := max(n, len(tx.base.nodes))
	nodes := make([]map[string]*File, wide)
	copy(nodes, tx.base.nodes)
	for i := len(tx.base.nodes); i < wide; i++ {
		nodes[i] = make(map[string]*File)
	}
	next := &Snapshot{version: tx.base.version + 1, nodes: nodes, bytes: tx.base.bytes}
	for node, nm := range tx.muts {
		files := make(map[string]*File, len(nodes[node])+len(nm))
		for k, v := range nodes[node] {
			files[k] = v
		}
		// Apply in sorted file order for reproducible panics.
		names := make([]string, 0, len(nm))
		for name := range nm {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			nf := applyMut(files[name], name, nm[name])
			next.bytes += nf.bytes() - files[name].bytes()
			if nf == nil {
				delete(files, name)
			} else {
				files[name] = nf
				next.copied += 2 * len(nf.keys)
			}
		}
		next.nodes[node] = files
	}
	for i := n; i < wide; i++ {
		if len(next.nodes[i]) != 0 {
			panic(fmt.Sprintf("dstore: shrink to %d nodes drops non-empty node %d (%d files)", n, i, len(next.nodes[i])))
		}
	}
	next.nodes = next.nodes[:n:n]
	tx.s.cur.Store(next)
	tx.done = true
	tx.s.writeMu.Unlock()
	return next
}

// applyMut builds the successor of old under mutation m, or nil when
// the file ends (or stays) empty after deletions. It sorts the inserted
// keys and the deletes; each delete, in ascending order, is a binary
// search of the base keys past the previous match, then of the inserted
// ones (insert+delete of one key in one Tx nets out), and one that
// matches neither panics. The successor merges the surviving base keys
// with the surviving inserted ones, so it is sorted too.
func applyMut(old *File, name string, m *fileMut) *File {
	var base []uint64
	if old != nil {
		base = old.keys
	}
	ins := m.inserts
	slices.Sort(ins)
	slices.Sort(m.deletes)
	// gone and netted list, ascending, the base and inserted keys the
	// deletes remove; from and fromIns are where the next search starts.
	var gone, netted []int
	from, fromIns := 0, 0
	for _, d := range m.deletes {
		if i := from + search(base[from:], d, false); i < len(base) && base[i] == d {
			gone, from = append(gone, i), i+1
		} else if j := fromIns + search(ins[fromIns:], d, false); j < len(ins) && ins[j] == d {
			netted, fromIns = append(netted, j), j+1
		} else {
			panic(fmt.Sprintf("dstore: delete of absent row from file %q", name))
		}
	}
	rows := len(base) + len(ins) - len(gone) - len(netted)
	if rows == 0 && len(m.deletes) > 0 {
		return nil // emptied files disappear, like never-loaded ones
	}
	// Grown, not made: the capacity then shows the allocation's size
	// class, which Bytes counts.
	keys := slices.Grow([]uint64(nil), rows)
	// keep copies the base keys [i, k) but those gone lists, in runs.
	i := 0
	keep := func(k int) {
		for ; len(gone) > 0 && gone[0] < k; gone = gone[1:] {
			keys, i = append(keys, base[i:gone[0]]...), gone[0]+1
		}
		keys, i = append(keys, base[i:k]...), k
	}
	for j, k := range ins {
		if len(netted) > 0 && netted[0] == j {
			netted = netted[1:]
			continue
		}
		if i == len(base) && len(netted) == 0 { // the rest follows the base
			keys = append(keys, ins[j:]...)
			break
		}
		keep(i + search(base[i:], k, true))
		keys = append(keys, k)
	}
	keep(len(base))
	return &File{Name: name, keys: keys}
}
