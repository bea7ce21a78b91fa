// Package dstore simulates the distributed file system underneath
// CliqueSquare: every compute node holds a set of named partition files
// of tuple rows, each file at its own schema's fixed width (an HDFS-like
// layout; the partition package places Section 5.1's three replicas).
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
// Files are columnar in the large: a File stores its rows as one
// contiguous slab of fixed-width TermID cells (row i is
// slab[i*w:(i+1)*w]), so scanning a file walks a single flat array with
// no per-row pointer chasing. Files are immutable once published. Their
// lazily built secondary indexes are flat CSR-style posting lists (one
// shared id buffer per column, spans addressed through a small hash
// table) published through an atomic pointer — the hot read path takes
// no lock and a Lookup allocates nothing — and a commit derives the
// successor file's indexes incrementally from its predecessor's instead
// of discarding them.
package dstore

import (
	"encoding/binary"
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
// stored as one contiguous cell slab. A File is immutable once it is
// part of a published Snapshot — mutations produce a successor File in
// the next epoch; readers holding this one keep an unchanging view.
type File struct {
	Name   string
	Schema []string // column names, one per cell of a row

	// slab holds the rows back to back: row i occupies
	// slab[i*w : (i+1)*w] where w = len(Schema). n is the row count.
	slab []rdf.TermID
	n    int

	// idx publishes the lazily built secondary indexes, one CSR posting
	// list per column: constant term -> ids of the rows holding it in
	// that column. Published via an atomic pointer so Lookup's hot path
	// is lock-free; buildMu serializes the (idempotent) slow-path
	// builds.
	idx     atomic.Pointer[fileIndex]
	buildMu sync.Mutex
	// builds is the store's count of index builds, which buildCol
	// moves (see Snapshot.Bytes).
	builds *atomic.Uint64
}

// newFile wraps an already-built slab (ownership transfers to the
// File).
func newFile(name string, schema []string, slab []rdf.TermID) *File {
	w := len(schema)
	n := 0
	if w > 0 {
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
// [i*Width(), (i+1)*Width())). It must not be modified.
func (f *File) Slab() []rdf.TermID { return f.slab }

// fileIndex is one immutable generation of a file's secondary indexes.
// cols[c] is nil until column c has been built (or derived).
type fileIndex struct {
	cols []*colIndex
}

// colIndex is an immutable CSR-style posting-list index over one
// column: the row ids for every distinct key live in one flat buffer,
// addressed by per-key [off, off) spans, with an open-addressing hash
// table mapping a key to its span. Posting lists are in ascending row
// order.
type colIndex struct {
	buckets []int32 // hash slot -> key index + 1 (0 = empty)
	mask    uint32
	keys    []rdf.TermID
	off     []int32 // len(keys)+1 prefix offsets into ids
	ids     []int32 // all posting lists, back to back
}

// hashID spreads a TermID over the bucket space (murmur3 finalizer).
func hashID(id rdf.TermID) uint32 {
	x := uint32(id)
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// lookup returns the posting span for id, or nil when absent. It
// allocates nothing.
func (ix *colIndex) lookup(id rdf.TermID) []int32 {
	if len(ix.keys) == 0 {
		return nil
	}
	h := hashID(id) & ix.mask
	for {
		e := ix.buckets[h]
		if e == 0 {
			return nil
		}
		if ix.keys[e-1] == id {
			return ix.ids[ix.off[e-1]:ix.off[e]]
		}
		h = (h + 1) & ix.mask
	}
}

// slotOf returns the key index of id, which must be present.
func (ix *colIndex) slotOf(id rdf.TermID) int32 {
	h := hashID(id) & ix.mask
	for {
		e := ix.buckets[h]
		if ix.keys[e-1] == id {
			return e - 1
		}
		h = (h + 1) & ix.mask
	}
}

// colBuilder accumulates (key, count) pairs for one column, then
// finishes into a colIndex whose spans are sized but not yet filled.
type colBuilder struct {
	buckets []int32
	mask    uint32
	keys    []rdf.TermID
	cnt     []int32
}

// newColBuilder sizes the builder's table for up to capHint distinct
// keys.
func newColBuilder(capHint int) *colBuilder {
	size := 8
	for size < capHint*2 {
		size <<= 1
	}
	return &colBuilder{buckets: make([]int32, size), mask: uint32(size - 1)}
}

// add registers n occurrences of key k.
func (b *colBuilder) add(k rdf.TermID, n int32) {
	h := hashID(k) & b.mask
	for {
		e := b.buckets[h]
		if e == 0 {
			b.keys = append(b.keys, k)
			b.cnt = append(b.cnt, n)
			b.buckets[h] = int32(len(b.keys))
			return
		}
		if b.keys[e-1] == k {
			b.cnt[e-1] += n
			return
		}
		h = (h + 1) & b.mask
	}
}

// finish turns the accumulated counts into a colIndex with prefix
// offsets and a zeroed ids buffer (the caller fills the spans). The
// bucket table is shrunk when the distinct-key count came in far below
// the capacity hint, so published indexes stay tight.
func (b *colBuilder) finish() *colIndex {
	nk := len(b.keys)
	ix := &colIndex{keys: b.keys, off: make([]int32, nk+1)}
	total := int32(0)
	for e := 0; e < nk; e++ {
		ix.off[e] = total
		total += b.cnt[e]
	}
	ix.off[nk] = total
	ix.ids = make([]int32, total)
	tight := 8
	for tight < nk*2 {
		tight <<= 1
	}
	if tight >= len(b.buckets) {
		ix.buckets, ix.mask = b.buckets, b.mask
	} else {
		ix.buckets = make([]int32, tight)
		ix.mask = uint32(tight - 1)
		for e, k := range b.keys {
			h := hashID(k) & ix.mask
			for ix.buckets[h] != 0 {
				h = (h + 1) & ix.mask
			}
			ix.buckets[h] = int32(e + 1)
		}
	}
	return ix
}

// buildColIndex builds column c's posting lists from scratch in two
// passes over the slab: count per key, then fill spans in row order
// (so every posting list is ascending).
func buildColIndex(slab []rdf.TermID, w, n, c int) *colIndex {
	b := newColBuilder(n)
	for i := 0; i < n; i++ {
		b.add(slab[i*w+c], 1)
	}
	ix := b.finish()
	cur := append([]int32(nil), ix.off[:len(ix.keys)]...)
	for i := 0; i < n; i++ {
		e := ix.slotOf(slab[i*w+c])
		ix.ids[cur[e]] = int32(i)
		cur[e]++
	}
	return ix
}

// Lookup returns the ids (row indexes) of the rows whose column col
// equals id, using a secondary index built lazily on first use. The
// hot path (index already built) is a single atomic load plus a hash
// probe and allocates nothing; the returned slice must not be
// modified.
func (f *File) Lookup(col int, id rdf.TermID) []int32 {
	if ix := f.idx.Load(); ix != nil && ix.cols[col] != nil {
		return ix.cols[col].lookup(id)
	}
	return f.buildCol(col).lookup(id)
}

// buildCol builds column col's index and publishes a new fileIndex
// generation carrying it (plus every previously built column).
func (f *File) buildCol(col int) *colIndex {
	f.buildMu.Lock()
	defer f.buildMu.Unlock()
	if ix := f.idx.Load(); ix != nil && ix.cols[col] != nil {
		return ix.cols[col] // lost the build race: reuse the winner's
	}
	cix := buildColIndex(f.slab, len(f.Schema), f.n, col)
	nix := &fileIndex{cols: make([]*colIndex, len(f.Schema))}
	if old := f.idx.Load(); old != nil {
		copy(nix.cols, old.cols)
	}
	nix.cols[col] = cix
	f.idx.Store(nix)
	if f.builds != nil { // nil: a file no commit built
		f.builds.Add(1)
	}
	return cix
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
	// bytes memoises Bytes until the store's next index build.
	bytes  atomic.Pointer[bytesMemo]
	builds *atomic.Uint64
}

// bytesMemo is a Bytes reading and the count of index builds it saw.
type bytesMemo struct {
	builds uint64
	n      int64
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
// each file's cell slab, built column indexes, header and name, and one
// map slot per file. Files a later or earlier snapshot shares are
// counted in each. A reading is kept until the store builds an index,
// so repeating it costs two atomic loads.
func (s *Snapshot) Bytes() int64 {
	builds := s.builds.Load()
	if m := s.bytes.Load(); m != nil && m.builds == builds {
		return m.n
	}
	var b int64
	for _, files := range s.nodes {
		for name, f := range files {
			b += fileSlot + int64(len(name)) + f.bytes()
		}
	}
	s.bytes.Store(&bytesMemo{builds, b})
	return b
}

// fileSlot is a File's header plus its entry in a node's file map (key
// string header, value pointer, tophash byte, rounded up).
const fileSlot = int64(unsafe.Sizeof(File{})) + 32

// bytes is what the file holds beyond its header: the slab and every
// column index built so far.
func (f *File) bytes() int64 {
	b := int64(cap(f.slab)) * 4
	if ix := f.idx.Load(); ix != nil {
		b += int64(unsafe.Sizeof(fileIndex{})) + int64(cap(ix.cols))*8
		for _, c := range ix.cols {
			if c != nil {
				b += int64(unsafe.Sizeof(colIndex{})) +
					4*int64(cap(c.buckets)+cap(c.keys)+cap(c.off)+cap(c.ids))
			}
		}
	}
	return b
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
	builds  atomic.Uint64     // column indexes built on the store's files
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
	snap := &Snapshot{version: version, nodes: make([]map[string]*File, n), builds: &s.builds}
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
// files are rewritten (copy-on-write; untouched files are shared by
// pointer), secondary indexes are derived incrementally from the
// predecessors', and the new snapshot is published atomically. It
// returns the published snapshot and releases the writer lock.
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
	next := &Snapshot{version: tx.base.version + 1, nodes: nodes, builds: &tx.s.builds}
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
			if nf == nil {
				delete(files, name)
			} else {
				files[name] = nf
				nf.builds = &tx.s.builds
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

// appendCellKey appends the bytes a span of cells is keyed under. A map
// probe through string(b) of the result allocates nothing, so one
// buffer serves every row of a scan; only storing a key copies it.
func appendCellKey(b []byte, r []rdf.TermID) []byte {
	for _, v := range r {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// applyMut builds the successor of old under mutation m, or nil when
// the file ends (or stays) empty after deletions. Deletes resolve
// against the base rows first, then against rows appended earlier in
// the same transaction (append+delete of one row in one Tx nets out);
// a delete that matches neither panics. The successor's secondary
// indexes are derived incrementally from old's built ones: posting
// lists of surviving rows are carried over (remapped when rows were
// deleted) and extended with the appended rows' ids, so previously
// built columns stay warm instead of rebuilding from the slab.
func applyMut(old *File, name string, m *fileMut) *File {
	hadDeletes := len(m.deletes) > 0
	var want map[string]int
	var key []byte
	// take consumes one pending delete of row r, if there is one.
	take := func(r []rdf.TermID) bool {
		key = appendCellKey(key[:0], r)
		c := want[string(key)]
		if c > 0 {
			want[string(key)] = c - 1
		}
		return c > 0
	}
	if hadDeletes {
		want = make(map[string]int, len(m.deletes))
		for _, r := range m.deletes {
			key = appendCellKey(key[:0], r)
			want[string(key)]++
		}
	}

	// Resolve deletions against the base rows: remap[i] is the
	// surviving row's id in the successor (-1 = deleted).
	var remap []int32
	kept := 0
	if old != nil {
		kept = old.n
		if hadDeletes {
			remap = make([]int32, old.n)
			next := int32(0)
			for i := 0; i < old.n; i++ {
				if take(old.Row(i)) {
					remap[i] = -1
					continue
				}
				remap[i] = next
				next++
			}
			kept = int(next)
		}
	}
	w := len(m.schema)
	if old != nil {
		w = len(old.Schema)
	}
	cells := m.cells
	if hadDeletes {
		left := 0
		for _, c := range want {
			left += c
		}
		if left > 0 && w > 0 { // leftover deletes consume same-tx appends
			filtered := make([]rdf.TermID, 0, len(cells))
			for i := 0; i+w <= len(cells); i += w {
				if r := cells[i : i+w]; !take(r) {
					filtered = append(filtered, r...)
				}
			}
			cells = filtered
		}
		for _, c := range want {
			if c > 0 {
				panic(fmt.Sprintf("dstore: delete of absent row from file %q", name))
			}
		}
	}

	if old == nil {
		if len(cells) == 0 && hadDeletes {
			return nil // netted out before it ever existed
		}
		return newFile(name, m.schema, append([]rdf.TermID(nil), cells...))
	}
	nApp := len(cells) / w
	if kept == 0 && nApp == 0 && hadDeletes {
		return nil // emptied files disappear, like never-loaded ones
	}

	slab := make([]rdf.TermID, 0, (kept+nApp)*w)
	if remap == nil {
		slab = append(slab, old.slab...)
	} else {
		for i := 0; i < old.n; i++ {
			if remap[i] >= 0 {
				slab = append(slab, old.Row(i)...)
			}
		}
	}
	slab = append(slab, cells...)
	nf := newFile(name, old.Schema, slab)
	if ix := old.idx.Load(); ix != nil {
		nf.idx.Store(deriveIndex(ix, remap, kept, cells, w))
	}
	return nf
}

// deriveIndex carries a predecessor file's built column indexes into
// its successor on the flat CSR form: per built column, surviving
// posting entries are counted (remapped through remap when rows were
// deleted), appended rows' keys are folded in, and the new spans are
// filled in ascending row order — the successor starts with every
// previously built column warm, byte-identical to a fresh build.
func deriveIndex(old *fileIndex, remap []int32, kept int, appCells []rdf.TermID, w int) *fileIndex {
	nix := &fileIndex{cols: make([]*colIndex, len(old.cols))}
	nApp := len(appCells) / w
	for c, oc := range old.cols {
		if oc == nil {
			continue
		}
		nix.cols[c] = deriveColIndex(oc, remap, kept, appCells, w, c, nApp)
	}
	return nix
}

// deriveColIndex derives one column's successor posting lists from the
// predecessor's plus the mutation, in one pass over the old index and
// one over the appended cells.
func deriveColIndex(oc *colIndex, remap []int32, kept int, appCells []rdf.TermID, w, c, nApp int) *colIndex {
	// Count survivors per old key.
	surv := make([]int32, len(oc.keys))
	if remap == nil {
		for e := range oc.keys {
			surv[e] = oc.off[e+1] - oc.off[e]
		}
	} else {
		for e := range oc.keys {
			for _, id := range oc.ids[oc.off[e]:oc.off[e+1]] {
				if remap[id] >= 0 {
					surv[e]++
				}
			}
		}
	}
	b := newColBuilder(len(oc.keys) + nApp)
	for e, k := range oc.keys {
		if surv[e] > 0 {
			b.add(k, surv[e])
		}
	}
	for j := 0; j < nApp; j++ {
		b.add(appCells[j*w+c], 1)
	}
	ix := b.finish()
	cur := append([]int32(nil), ix.off[:len(ix.keys)]...)
	// Surviving old ids first (remap is monotonic, so spans stay
	// ascending), then appended ids kept+j in order.
	for e, k := range oc.keys {
		if surv[e] == 0 {
			continue
		}
		ne := ix.slotOf(k)
		if remap == nil {
			copy(ix.ids[cur[ne]:], oc.ids[oc.off[e]:oc.off[e+1]])
			cur[ne] += surv[e]
		} else {
			for _, id := range oc.ids[oc.off[e]:oc.off[e+1]] {
				if ni := remap[id]; ni >= 0 {
					ix.ids[cur[ne]] = ni
					cur[ne]++
				}
			}
		}
	}
	for j := 0; j < nApp; j++ {
		ne := ix.slotOf(appCells[j*w+c])
		ix.ids[cur[ne]] = int32(kept + j)
		cur[ne]++
	}
	return ix
}
