// Package dstore simulates the distributed file system underneath
// CliqueSquare: every compute node holds a table of partition files keyed
// by an integer FileKey, each file a sorted array of packed two-cell rows
// (an HDFS-like layout; the partition package places Section 5.1's
// replicas and builds their keys).
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
	"cmp"
	"fmt"
	"maps"
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

// FileKey identifies a file among its node's. What its bits mean is the
// writer's: the partition package packs a file's replica and property.
type FileKey uint64

// File is a partition file: its key in its node's table and its rows'
// keys in ascending order. A File is immutable once it is part of a
// published Snapshot — mutations produce a successor File in the next
// epoch; readers holding this one keep an unchanging view.
type File struct {
	key  FileKey
	keys []uint64
}

// Key is the file's key in its node's table.
func (f *File) Key() FileKey { return f.key }

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

// NodeView is one node's file table within a Snapshot: an immutable
// point-in-time read view.
type NodeView struct {
	files []*File // ascending by key
	s     *Store
}

// File returns the file keyed k if present in this snapshot: a binary
// search of the node's table, which allocates nothing.
func (v NodeView) File(k FileKey) (*File, bool) {
	if i, ok := slices.BinarySearchFunc(v.files, k, byKey); ok {
		return v.files[i], true
	}
	return nil, false
}

// byKey orders a file against a key.
func byKey(f *File, k FileKey) int { return cmp.Compare(f.key, k) }

// Files returns the node's files in ascending key order. It must not be
// modified.
func (v NodeView) Files() []*File { return v.files }

// Get returns the named file if present in this snapshot, by the store's
// Naming.
func (v NodeView) Get(name string) (*File, bool) {
	if k, held := v.s.names.Key(name); held {
		return v.File(k)
	}
	return nil, false
}

// Names returns the names of the node's files in this snapshot, by the
// store's Naming, sorted.
func (v NodeView) Names() []string {
	out := make([]string, len(v.files))
	for i, f := range v.files {
		out[i] = v.s.names.Name(f.key)
	}
	sort.Strings(out)
	return out
}

// Snapshot is one published epoch of the whole store: an immutable,
// consistent view of every node's files. Snapshots are cheap to pin
// (one atomic load) and never change once obtained.
type Snapshot struct {
	s       *Store
	version uint64
	nodes   [][]*File // per node, its files ascending by key
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
func (s *Snapshot) Node(i int) NodeView { return NodeView{files: s.nodes[i], s: s.s} }

// Copied reports the cells the commit that published the snapshot wrote
// into the files it rewrote or created: two for every surviving and
// inserted key of each, the keys it kept included (0 for a store's
// first snapshot). It is the commit's copying cost, whatever it changed.
func (s *Snapshot) Copied() int { return s.copied }

// Bytes is what the snapshot's files hold, counted from capacities:
// each file's keys and header, and each node's table of file pointers.
// Files a later or earlier snapshot shares are counted in each. Files
// never change once published, so the commit that publishes the
// snapshot sums it once.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// bytes is what the file adds to its snapshot's Bytes: its keys and its
// header.
func (f *File) bytes() int64 {
	if f == nil {
		return 0
	}
	return int64(unsafe.Sizeof(File{})) + int64(cap(f.keys))*8
}

// tableBytes is what a node's table of files adds to its snapshot's
// Bytes: one pointer per slot of its array.
func tableBytes(files []*File) int64 { return int64(cap(files)) * int64(unsafe.Sizeof(&File{})) }

// Store is the cluster-wide versioned file store: a current Snapshot
// of every compute node's files, published atomically, and a
// single-writer transaction log of epochs. The cluster size lives in
// the snapshot, so a Tx.SetN resize takes effect the instant its epoch
// publishes.
type Store struct {
	writeMu sync.Mutex // serializes Begin..Commit writer critical sections
	cur     atomic.Pointer[Snapshot]
	names   Naming // see NameBy
}

// Naming is how the store's name-addressed calls — NodeView.Get and
// Names, Tx.AppendCells and DeleteRow — address its files, whose keys
// are their writer's. Nothing else names a file.
type Naming interface {
	// Key is the key of the named file, held reporting false for a
	// name the store keeps no file under.
	Key(name string) (k FileKey, held bool)
	// Name is the name of the file keyed k.
	Name(k FileKey) string
	// RowKey is the key a row given whole has in the file keyed k.
	RowKey(k FileKey, row Row) uint64
}

// NameBy sets the Naming of the store's name-addressed calls. Call it
// before the first Begin.
func (s *Store) NameBy(n Naming) { s.names = n }

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
	s.cur.Store(&Snapshot{s: s, version: version, nodes: make([][]*File, n)})
	return s
}

// N reports the number of nodes in the current snapshot. It can change
// across a committed Tx.SetN; size-dependent work should read N once
// from a pinned Snapshot instead.
func (s *Store) N() int { return len(s.cur.Load().nodes) }

// Current pins the latest published snapshot (one atomic load).
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// fileRef is a file of a node: a Tx's key for its pending mutations.
type fileRef struct {
	node int
	key  FileKey
}

// op is one buffered mutation: key k inserted into a touched file, or
// deleted from it — slot 2i or 2i+1 for the Tx's i-th touched file.
type op struct {
	slot int32
	k    uint64
}

// Tx is a write transaction: it buffers inserts and deletes across any
// number of nodes and files, then Commit builds epoch N+1 by rewriting
// only the touched files and publishes it atomically. A Tx holds the
// store's writer lock from Begin until Commit or Abort; readers are
// never blocked — they keep their pinned snapshots.
type Tx struct {
	s     *Store
	base  *Snapshot
	files map[fileRef]int32 // each touched file's index, in the order first touched
	ops   []op              // the buffered mutations, in the order made
	newN  int               // 0 = keep the base size; else resize the cluster at commit
	done  bool
}

// Begin starts a write transaction against the current snapshot,
// blocking until any in-flight writer commits or aborts. Every Begin
// must be paired with Commit or Abort.
func (s *Store) Begin() *Tx {
	s.writeMu.Lock()
	return &Tx{s: s, base: s.cur.Load(), files: make(map[fileRef]int32)}
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

// buffer buffers key k's insertion into (side 0) or deletion from (side
// 1) a file.
func (tx *Tx) buffer(node int, file FileKey, k uint64, side int32) {
	lim := max(len(tx.base.nodes), tx.newN)
	if node < 0 || node >= lim {
		panic(fmt.Sprintf("dstore: tx touches node %d of %d", node, lim))
	}
	r := fileRef{node, file}
	i, ok := tx.files[r]
	if !ok {
		i = int32(len(tx.files))
		tx.files[r] = i
	}
	tx.ops = append(tx.ops, op{2*i + side, k})
}

// Grow makes room for n more buffered inserts and deletes, so that a
// writer that knows how many it will make buffers them without growing
// the buffer as it goes.
func (tx *Tx) Grow(n int) { tx.ops = slices.Grow(tx.ops, n) }

// Insert buffers key k for the file keyed file on a node, creating the
// file at commit if it does not exist.
func (tx *Tx) Insert(node int, file FileKey, k uint64) { tx.buffer(node, file, k, 0) }

// Delete buffers the removal of one copy of key k from the file keyed
// file on a node. The key may come from the base snapshot or from an
// earlier Insert in this same transaction (the pair nets out); Commit
// panics if it is neither — the caller deleting a triple that was never
// stored indicates a partitioning bug.
func (tx *Tx) Delete(node int, file FileKey, k uint64) { tx.buffer(node, file, k, 1) }

// AppendCells inserts rows given whole, as flattened cells, len(schema)
// cells a row, into the named file: each becomes its key there by the
// store's Naming, or is dropped for a name the store keeps no file
// under. It serves writers that address the files with whole triples.
func (tx *Tx) AppendCells(node int, name string, schema []string, cells ...rdf.TermID) {
	if len(schema) == 0 || len(cells)%len(schema) != 0 {
		panic(fmt.Sprintf("dstore: file %q: %d cells is not a multiple of width %d", name, len(cells), len(schema)))
	}
	file, held := tx.s.names.Key(name)
	for ; held && len(cells) > 0; cells = cells[len(schema):] {
		tx.Insert(node, file, tx.s.names.RowKey(file, cells[:len(schema)]))
	}
}

// DeleteRow deletes a row given whole, as AppendCells inserts one.
func (tx *Tx) DeleteRow(node int, name string, row Row) {
	if file, held := tx.s.names.Key(name); held {
		tx.Delete(node, file, tx.s.names.RowKey(file, row))
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
// files are rewritten, sorted, in (node, key) order, and each touched
// node's table is copied (copy-on-write; untouched files and tables are
// shared by pointer), the snapshot's Bytes is moved by what they
// replaced, and the new snapshot is published atomically. It returns the
// published snapshot and releases the writer lock.
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
	nodes := make([][]*File, wide)
	copy(nodes, tx.base.nodes)
	next := &Snapshot{s: tx.s, version: tx.base.version + 1, nodes: nodes, bytes: tx.base.bytes}
	// Gather the keys of each slot — a touched file's inserts, then its
	// deletes — into one array, counting each slot's keys to its end and
	// filling it down: slot s holds keys[at[s]:at[s+1]].
	at := make([]int, 2*len(tx.files)+1)
	for _, o := range tx.ops {
		at[o.slot]++
	}
	for s := 1; s < len(at); s++ {
		at[s] += at[s-1]
	}
	keys := make([]uint64, len(tx.ops))
	for _, o := range tx.ops {
		at[o.slot]--
		keys[at[o.slot]] = o.k
	}
	// Apply in (node, key) order, for reproducible panics.
	refs := slices.SortedFunc(maps.Keys(tx.files), func(a, b fileRef) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.key, b.key))
	})
	for len(refs) > 0 {
		node := refs[0].node
		files := slices.Clone(nodes[node])
		for ; len(refs) > 0 && refs[0].node == node; refs = refs[1:] {
			k, t := refs[0].key, 2*tx.files[refs[0]]
			i, found := slices.BinarySearchFunc(files, k, byKey)
			if !found {
				files = slices.Insert(files, i, nil)
			}
			nf := merge(files[i], k, keys[at[t]:at[t+1]], keys[at[t+1]:at[t+2]])
			next.bytes += nf.bytes() - files[i].bytes()
			if nf == nil {
				files = slices.Delete(files, i, i+1)
				continue
			}
			files[i] = nf
			next.copied += 2 * len(nf.keys)
		}
		next.bytes += tableBytes(files) - tableBytes(nodes[node])
		nodes[node] = files
	}
	for i := n; i < wide; i++ {
		if len(next.nodes[i]) != 0 {
			panic(fmt.Sprintf("dstore: shrink to %d nodes drops non-empty node %d (%d files)", n, i, len(next.nodes[i])))
		}
		next.bytes -= tableBytes(next.nodes[i])
	}
	next.nodes = next.nodes[:n:n]
	tx.s.cur.Store(next)
	tx.done = true
	tx.s.writeMu.Unlock()
	return next
}

// merge builds the successor of old, keyed file, under the inserted keys
// ins and the deleted ones dels, or nil when the file ends (or stays)
// empty after deletions. It sorts both in place and merges the base keys
// with the inserted ones, in runs found by binary search; each delete, in
// ascending order, drops one copy of its key — a base key, else an
// inserted one (insert+delete of one key in one Tx nets out) — and one
// that finds neither panics. The successor is sorted too.
func merge(old *File, file FileKey, ins, dels []uint64) *File {
	var base []uint64
	if old != nil {
		base = old.keys
	}
	slices.Sort(ins)
	slices.Sort(dels)
	// Grown, not made: the capacity then shows the allocation's size
	// class, which Bytes counts.
	keys := slices.Grow([]uint64(nil), max(len(base)+len(ins)-len(dels), 0))
	// upTo appends base[i:eb] and ins[j:ei], merged.
	i, j := 0, 0
	upTo := func(eb, ei int) {
		for i < eb && j < ei {
			if ins[j] < base[i] {
				n := j + search(ins[j:ei], base[i], false)
				keys, j = append(keys, ins[j:n]...), n
			} else {
				n := i + search(base[i:eb], ins[j], true)
				keys, i = append(keys, base[i:n]...), n
			}
		}
		keys, i, j = append(append(keys, base[i:eb]...), ins[j:ei]...), eb, ei
	}
	for _, d := range dels {
		upTo(i+search(base[i:], d, false), j+search(ins[j:], d, false))
		switch {
		case i < len(base) && base[i] == d:
			i++
		case j < len(ins) && ins[j] == d:
			j++
		default:
			panic(fmt.Sprintf("dstore: delete of absent row from file %d", file))
		}
	}
	if upTo(len(base), len(ins)); len(keys) == 0 && len(dels) > 0 {
		return nil // emptied files disappear, like never-loaded ones
	}
	return &File{key: file, keys: keys}
}
