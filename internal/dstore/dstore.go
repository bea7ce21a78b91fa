// Package dstore simulates the distributed file system underneath
// CliqueSquare: every compute node holds a set of named partition files
// of tuple rows, each file at its own schema's fixed width (an HDFS-like
// layout; the partition package places Section 5.1's replicas).
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
// A File is one sorted run of fixed-width TermID rows in a contiguous
// slab (row i is slab[i*w:(i+1)*w]), in ascending order of its cells,
// first cell first — the order RDF-3X and Hexastore keep their
// permutations in. A scan walks one flat array; the rows that start
// with a key are one contiguous run that Range finds by binary search;
// and a commit sorts the rows it appends and merges them in, finding
// each delete by the same search. Files are immutable once published
// and carry no index: what a file holds is its slab.
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

// Row is a flat tuple of dictionary-encoded terms. Rows handed out by a
// File are views into its slab and must not be modified.
type Row []rdf.TermID

// Clone returns an independent copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// File is a named partition file: fixed-width rows sharing a schema,
// stored as one contiguous cell slab in ascending row order. A File is
// immutable once it is part of a published Snapshot — mutations produce
// a successor File in the next epoch; readers holding this one keep an
// unchanging view.
type File struct {
	Name   string
	Schema []string // column names, one per cell of a row

	// slab holds the rows back to back, sorted: row i occupies
	// slab[i*w : (i+1)*w] where w = len(Schema). n is the row count.
	slab []rdf.TermID
	n    int
}

// newFile wraps an already-built, sorted slab (ownership transfers to
// the File).
func newFile(name string, schema []string, slab []rdf.TermID) *File {
	n := 0
	if w := len(schema); w > 0 {
		n = len(slab) / w
	}
	return &File{Name: name, Schema: schema, slab: slab, n: n}
}

// NumRows reports the number of rows in the file.
func (f *File) NumRows() int { return f.n }

// Width is the fixed row width (the number of schema columns).
func (f *File) Width() int { return len(f.Schema) }

// Row returns row i as a view into the file's slab. The returned slice
// must not be modified.
func (f *File) Row(i int) Row {
	w := len(f.Schema)
	return f.slab[i*w : (i+1)*w : (i+1)*w]
}

// Slab exposes the file's contiguous cell buffer (row i occupies cells
// [i*Width(), (i+1)*Width())), in ascending row order. It must not be
// modified.
func (f *File) Slab() []rdf.TermID { return f.slab }

// Range returns the run of rows [lo, hi) whose first cells are key, at
// most Width() of them: one cell selects a run of the sorted file, a
// whole row's cells narrow it to that row's copies. It is two binary
// searches and allocates nothing.
func (f *File) Range(key ...rdf.TermID) (lo, hi int) {
	lo = search(f.slab, len(f.Schema), key, false)
	return lo, lo + search(f.slab[lo*len(f.Schema):], len(f.Schema), key, true)
}

// search returns the number of leading rows of the sorted width-w slab
// whose first len(key) cells order before key — or, when after is set,
// at or before it.
func search(slab []rdf.TermID, w int, key []rdf.TermID, after bool) int {
	k := len(key)
	lo, hi := 0, len(slab)/w
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := slices.Compare(slab[m*w:m*w+k], key); c < 0 || after && c == 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Lookup returns the ids (row indexes) of the rows whose column col
// equals id, in ascending order: a search of the first column's run, a
// scan of the slab for any other. It builds and keeps nothing; readers
// of a run call Range.
func (f *File) Lookup(col int, id rdf.TermID) []int32 {
	lo, hi := 0, f.n
	if col == 0 {
		lo, hi = f.Range(id)
	}
	var ids []int32
	for i, w := lo, len(f.Schema); i < hi; i++ {
		if f.slab[i*w+col] == id {
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

// Rows reports the total number of rows on the node in this snapshot.
func (v NodeView) Rows() int {
	t := 0
	for _, f := range v.files {
		t += f.n
	}
	return t
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
// into the files it rewrote or created: every surviving and appended
// cell of each, the rows it kept included (0 for a store's first
// snapshot). It is the commit's copying cost, whatever it changed.
func (s *Snapshot) Copied() int { return s.copied }

// Bytes is what the snapshot's files hold, counted from capacities:
// each file's cell slab, header and name, and one map slot per file.
// Files a later or earlier snapshot shares are counted in each. Files
// never change once published, so the commit that publishes the
// snapshot sums it once.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// fileSlot is a File's header plus its entry in a node's file map (key
// string header, value pointer, tophash byte, rounded up).
const fileSlot = int64(unsafe.Sizeof(File{})) + 32

// bytes is what the file adds to its snapshot's Bytes: its slab, its
// header and map slot, and its name.
func (f *File) bytes() int64 {
	if f == nil {
		return 0
	}
	return fileSlot + int64(len(f.Name)) + int64(cap(f.slab))*4
}

// TotalRows reports the number of rows across all nodes in this
// snapshot (replicas counted separately).
func (s *Snapshot) TotalRows() int {
	t := 0
	for i := range s.nodes {
		t += s.Node(i).Rows()
	}
	return t
}

// Store is the cluster-wide versioned file store: a current Snapshot
// of every compute node's files, published atomically, and a
// single-writer transaction log of epochs. The cluster size lives in
// the snapshot, so a Tx.SetN resize takes effect the instant its epoch
// publishes.
type Store struct {
	writeMu sync.Mutex // serializes Begin..Commit writer critical sections
	cur     atomic.Pointer[Snapshot]
	wide    []string          // see ProjectFrom
	unheld  func(string) bool // see ProjectFrom
}

// ProjectFrom lets writers give a file rows of the schema wide, wider
// than the file's own: AppendCells and DeleteRow keep of such a row the
// columns the file's schema names, and drop it whole for a file whose
// name unheld reports (nil: none) — a file the store does not hold.
// Call it before the first Begin.
func (s *Store) ProjectFrom(wide []string, unheld func(name string) bool) {
	s.wide, s.unheld = wide, unheld
}

// dropped reports whether a row of width w for the named file is a
// wide row to a file the store does not hold (ProjectFrom).
func (s *Store) dropped(name string, w int) bool {
	return s.unheld != nil && w == len(s.wide) && s.unheld(name)
}

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

// Version is the current snapshot's epoch number.
func (s *Store) Version() uint64 { return s.Current().version }

// TotalRows reports the number of rows across all nodes in the current
// snapshot (replicas counted separately).
func (s *Store) TotalRows() int { return s.Current().TotalRows() }

// fileMut buffers one file's pending mutations within a Tx. Appended
// rows are buffered flat (cells back to back at the file's width), so
// bulk loads build the successor slab without per-row allocations.
type fileMut struct {
	schema  []string
	cells   []rdf.TermID // appended rows, flattened at len(schema) width
	deletes []Row        // rows to remove, matched by value
}

// Tx is a write transaction: it buffers appends and deletes across any
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
// Growing adds empty nodes (call SetN before appending to them);
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
	lim := len(tx.base.nodes)
	if tx.newN > lim {
		lim = tx.newN
	}
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

// Append buffers rows for the named file on a node, creating the file
// (with the given schema) at commit if it does not exist. It panics on
// a schema-width mismatch with the base file or earlier buffered
// appends, which would indicate a partitioning bug.
func (tx *Tx) Append(node int, name string, schema []string, rows ...Row) {
	if tx.s.dropped(name, len(schema)) {
		return
	}
	tx.checkSchema(node, name, schema)
	for _, r := range rows {
		if len(r) != len(schema) {
			panic(fmt.Sprintf("dstore: file %q row width %d vs schema %v", name, len(r), schema))
		}
		tx.AppendCells(node, name, schema, r...)
	}
}

// AppendCells buffers one or more rows given as flattened cells (a
// multiple of the schema width), avoiding any per-row slice
// allocation. It panics on a schema mismatch like Append; rows of the
// store's wide schema are projected, or dropped (ProjectFrom).
func (tx *Tx) AppendCells(node int, name string, schema []string, cells ...rdf.TermID) {
	if tx.s.dropped(name, len(schema)) {
		return
	}
	m := tx.checkSchema(node, name, schema)
	if len(schema) == 0 || len(cells)%len(schema) != 0 {
		panic(fmt.Sprintf("dstore: file %q: %d cells is not a multiple of width %d", name, len(cells), len(schema)))
	}
	for ; len(cells) > 0 && len(m.schema) != len(schema); cells = cells[len(schema):] {
		m.cells = append(m.cells, tx.project(m.schema, cells[:len(schema)])...)
	}
	m.cells = append(m.cells, cells...)
}

// checkSchema resolves the buffered mutation for a file and verifies
// the caller's schema width against it: equal, or the store's wide
// schema.
func (tx *Tx) checkSchema(node int, name string, schema []string) *fileMut {
	m := tx.mut(node, name)
	if m.schema = tx.baseSchema(node, name, m); m.schema == nil {
		m.schema = schema
	} else if len(m.schema) != len(schema) && !slices.Equal(schema, tx.s.wide) {
		panic(fmt.Sprintf("dstore: file %q schema mismatch: %v vs %v", name, m.schema, schema))
	}
	return m
}

// project keeps of row, a row of the store's wide schema, the columns
// the file schema fs names.
func (tx *Tx) project(fs []string, row []rdf.TermID) Row {
	out := make(Row, len(fs))
	for i, col := range fs {
		out[i] = row[slices.Index(tx.s.wide, col)]
	}
	return out
}

// baseSchema resolves the schema a buffered mutation must agree with:
// earlier buffered appends win, else the base snapshot's file.
func (tx *Tx) baseSchema(node int, name string, m *fileMut) []string {
	if m.schema != nil {
		return m.schema
	}
	// Nodes beyond the base width (added by SetN) have no base files.
	if node < len(tx.base.nodes) {
		if f, ok := tx.base.Node(node).Get(name); ok {
			return f.Schema
		}
	}
	return nil
}

// DeleteRow buffers the removal of one row (matched by value) from the
// named file on a node. The row may come from the base snapshot or
// from an earlier Append in this same transaction (the pair nets out);
// Commit panics if it is neither — the caller deleting a triple that
// was never stored indicates a partitioning bug. A row of the store's
// wide schema is projected, or dropped (ProjectFrom).
func (tx *Tx) DeleteRow(node int, name string, row Row) {
	if tx.s.dropped(name, len(row)) {
		return
	}
	m := tx.mut(node, name)
	if len(row) == len(tx.s.wide) {
		if fs := tx.baseSchema(node, name, m); fs != nil && len(fs) != len(row) {
			row = tx.project(fs, row)
		}
	}
	m.deletes = append(m.deletes, row)
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
	wide := n
	if len(tx.base.nodes) > wide {
		wide = len(tx.base.nodes)
	}
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
				next.copied += len(nf.slab)
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
// the file ends (or stays) empty after deletions. It sorts the appended
// rows and the deletes; each delete, in ascending order, is a binary
// search of the base rows past the previous match, then of the appended
// rows (append+delete of one row in one Tx nets out), and one that
// matches neither panics. The successor merges the surviving base rows
// with the surviving appended ones, so it is sorted too.
func applyMut(old *File, name string, m *fileMut) *File {
	schema := m.schema
	var base []rdf.TermID
	if old != nil {
		schema, base = old.Schema, old.slab
	}
	w := len(schema)
	app := m.cells
	sortRows(app, w)
	slices.SortFunc(m.deletes, slices.Compare[Row])
	// gone and netted list, ascending, the base and appended rows the
	// deletes remove; from and fromApp are where the next search starts.
	var gone, netted []int
	from, fromApp := 0, 0
	for _, d := range m.deletes {
		if i, ok := find(base, w, from, d); ok {
			gone, from = append(gone, i), i+1
		} else if j, ok := find(app, w, fromApp, d); ok {
			netted, fromApp = append(netted, j), j+1
		} else {
			panic(fmt.Sprintf("dstore: delete of absent row from file %q", name))
		}
	}
	rows := (len(base)+len(app))/max(w, 1) - len(gone) - len(netted)
	if rows == 0 && len(m.deletes) > 0 {
		return nil // emptied files disappear, like never-loaded ones
	}
	// Grown, not made: the capacity then shows the allocation's size
	// class, which Bytes counts.
	slab := slices.Grow([]rdf.TermID(nil), rows*w)
	// keep copies the base rows [i, k) but those gone lists, in runs.
	i := 0
	keep := func(k int) {
		for ; len(gone) > 0 && gone[0] < k; gone = gone[1:] {
			slab, i = append(slab, base[i*w:gone[0]*w]...), gone[0]+1
		}
		slab, i = append(slab, base[i*w:k*w]...), k
	}
	for j := 0; j*w < len(app); j++ {
		if len(netted) > 0 && netted[0] == j {
			netted = netted[1:]
			continue
		}
		if i*w == len(base) && len(netted) == 0 { // the rest follows the base
			slab = append(slab, app[j*w:]...)
			break
		}
		r := app[j*w : (j+1)*w]
		keep(i + search(base[i*w:], w, r, true))
		slab = append(slab, r...)
	}
	keep(len(base) / max(w, 1))
	return newFile(name, schema, slab)
}

// find reports the first row at or past row from of the sorted width-w
// slab that equals row, if there is one.
func find(slab []rdf.TermID, w, from int, row Row) (int, bool) {
	if w == 0 || len(row) != w {
		return 0, false
	}
	i := from + search(slab[from*w:], w, row, false)
	return i, i*w < len(slab) && slices.Equal(slab[i*w:(i+1)*w], row)
}

// sortRows sorts the width-w rows of cells in place, ascending. A row of
// two cells — every partition file's — is sorted as one integer, its
// first cell high, written over its own eight bytes and read back.
func sortRows(cells []rdf.TermID, w int) {
	if w == 2 && len(cells) > 0 && uintptr(unsafe.Pointer(&cells[0]))%8 == 0 {
		keys := unsafe.Slice((*uint64)(unsafe.Pointer(&cells[0])), len(cells)/2)
		for i := range keys {
			keys[i] = uint64(cells[2*i])<<32 | uint64(cells[2*i+1])
		}
		slices.Sort(keys)
		for i, k := range keys {
			cells[2*i], cells[2*i+1] = rdf.TermID(k>>32), rdf.TermID(k)
		}
		return
	}
	if w > 0 {
		sort.Sort(rowSort{cells, w})
	}
}

// rowSort sorts the width-w rows of a flat cell slice.
type rowSort struct {
	cells []rdf.TermID
	w     int
}

func (r rowSort) Len() int { return len(r.cells) / r.w }
func (r rowSort) Less(i, j int) bool {
	return slices.Compare(r.cells[i*r.w:(i+1)*r.w], r.cells[j*r.w:(j+1)*r.w]) < 0
}
func (r rowSort) Swap(i, j int) {
	for c := 0; c < r.w; c++ {
		r.cells[i*r.w+c], r.cells[j*r.w+c] = r.cells[j*r.w+c], r.cells[i*r.w+c]
	}
}
