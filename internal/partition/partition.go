// Package partition implements the CliqueSquare data-partitioning scheme
// of Section 5.1. Every triple is placed three times, exploiting the
// usual 3× replication of distributed file systems:
//
//  1. on node hash(s) in the node's subject partition, on node hash(p) in
//     the property partition, and on node hash(o) in the object
//     partition;
//  2. within a node, each partition's triples are grouped into one file
//     per property value, whose name fixes it;
//  3. the property partition of rdf:type is further split by object
//     (class) value, since rdf:type dominates most datasets: a class
//     file's name fixes the object too.
//
// This makes every first-level join — on any of s, p, o — evaluable
// locally on each node (parallelizable without communication).
//
// The store keeps the cells of two replicas only, each row as one
// dstore key with its placed cell high and each file sorted: a subject
// file s/p<P> holds (s, o) keys, an object file o/p<P> (o, s) keys —
// the two permutations RDF-3X keeps sorted. The rows of a constant on a
// file's placed cell are one run of it. The property replica is placed,
// not stored: its files keep their names, their nodes and their row
// counts, but their rows are cells the other two replicas hold — a
// file p/p<P> is the subject files s/p<P> of every node in node order,
// and a class file p/p<type>/o<C> is the run of class C in the object
// file o/p<type> on node hash(C). Scans name a file by value, a FileID
// (its replica, property and class), never by its name: View.AppendFiles
// lists the files a scan reads, View.Open resolves each, whatever its
// replica, and File.Part the run a scan's constants select, so scans and
// their metering see three replicas while the store holds two. Names are
// the store's and the writers' (FileName, route) alone.
//
// Beyond the paper's load-once setting, the partitioner is mutable:
// ApplyBatch re-derives the placement for a delta of inserted and
// deleted triples only, commits it as one dstore epoch, and publishes a
// new View. A View pins a store snapshot together with the matching
// placement metadata (its placement, known properties, rdf:type class
// splits), so queries executing against a pinned View see one
// consistent epoch end to end while batches land concurrently.
package partition

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"cliquesquare/internal/dstore"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TripleSchema names a whole triple's cells, which no partition file
// stores: writers that address the files with whole triples give rows
// in it to dstore's AppendCells and DeleteRow, which key them by
// tripleKey.
var TripleSchema = []string{"s", "p", "o"}

// tripleKey is the key the whole triple t, a TripleSchema row, has in
// the partition file name: a stored file keeps the positions its name
// does not fix (its property), the one its replica is placed by first —
// (s, o) in a subject file, (o, s) in an object file. A property file
// holds no keys.
func tripleKey(name string, t dstore.Row) (uint64, bool) {
	switch name[0] {
	case 's':
		return dstore.Key(t[0], t[2]), true
	case 'o':
		return dstore.Key(t[2], t[0]), true
	}
	return 0, false
}

// Mode selects the replication scheme.
type Mode uint8

const (
	// ThreeReplica is the paper's scheme: one replica placed by each
	// of subject, property and object, so every first-level join is
	// co-located.
	ThreeReplica Mode = iota
	// SubjectOnly stores a single replica placed by subject hash (the
	// Co-Hadoop-style single-attribute co-location the paper contrasts
	// with). Only subject-subject first-level joins are co-located.
	SubjectOnly
)

// String names the mode.
func (m Mode) String() string {
	if m == SubjectOnly {
		return "subject-only"
	}
	return "three-replica"
}

// Partitioner places an RDF graph onto a store, keeps the placement
// maintained under insert/delete batches, and resolves triple patterns
// to the partition files a scan must read. All methods are safe for
// concurrent use: reads resolve against an immutable published View,
// writes (ApplyBatch) are serialized and publish atomically.
type Partitioner struct {
	store *dstore.Store
	mode  Mode
	// policy builds the Placement for a given cluster size; the default
	// is ModuloPolicy (the paper's hash(id) mod n). Resize re-invokes
	// it at the target size to derive the move set.
	policy Policy

	writeMu sync.Mutex
	cur     atomic.Pointer[View]

	// pinMu guards pins, a refcount per pinned epoch. The Go runtime
	// already reclaims unpinned snapshots (an idle execution context
	// holds none); the registry exists so the durable engine's
	// checkpoints know the oldest epoch a concurrent execution still
	// reads (the watermark) and keeps the WAL generations that can
	// reconstruct it.
	pinMu sync.Mutex
	pins  map[uint64]int
}

// View is one published epoch of the partitioned dataset: a dstore
// snapshot plus the placement metadata that was true for it. A pinned
// View never changes; file resolution and scans through it observe one
// consistent epoch.
type View struct {
	p    *Partitioner
	snap *dstore.Snapshot
	// place is the placement of this epoch's rows: writers route new
	// triples through it, and Open places the property replica's files
	// by it. A View pinned before a resize keeps answering from the old
	// placement after the new one publishes.
	place Placement
	// topo counts completed topology changes: 0 for the load topology,
	// +1 per resize.
	topo uint64
	// typeID is the dictionary ID of rdf:type (NoTerm if absent when
	// the view was published).
	typeID rdf.TermID
	// properties counts the stored triples per property ID, for
	// variable-property scans and empty-property cleanup: the row count
	// of each property-replica file p/p<P>.
	properties map[rdf.TermID]int
	// typeObjects counts the rdf:type triples per object (class) ID: the
	// row count of each class file (three-replica mode only).
	typeObjects map[rdf.TermID]int
}

// New returns a partitioner over store that places nothing yet: its
// view is the store's current snapshot, empty. A load is one ApplyBatch
// of the triples onto it, so loading and writing place triples alike. A
// nil policy is ModuloPolicy.
func New(store *dstore.Store, mode Mode, policy Policy) *Partitioner {
	if policy == nil {
		policy = ModuloPolicy
	}
	store.KeyBy(tripleKey)
	p := &Partitioner{store: store, mode: mode, policy: policy}
	p.cur.Store(&View{p: p, snap: store.Current(), place: policy(store.N()),
		properties: map[rdf.TermID]int{}, typeObjects: map[rdf.TermID]int{}})
	return p
}

// LoadWithPolicy partitions g onto the empty store as one committed
// epoch.
func LoadWithPolicy(store *dstore.Store, g *rdf.Graph, mode Mode, policy Policy) *Partitioner {
	p := New(store, mode, policy)
	p.ApplyBatch(g.Triples(), nil, g.Dict)
	return p
}

// ApplyBatch re-derives the placement for a delta only: deletes are
// removed from each stored replica file they were placed in, then
// inserts are placed (including creating files for new properties and
// counting new rdf:type class splits, and dropping files and counters
// that end empty). The whole batch commits as one dstore epoch; the
// returned View pins it with the updated metadata. Callers must pass
// effective deltas: every delete was stored, no insert already is (the
// csq engine's ApplyBatch filters against the current view). dict
// resolves rdf:type on its first appearance.
func (p *Partitioner) ApplyBatch(inserts, deletes []rdf.Triple, dict *rdf.Dict) *View {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	old := p.cur.Load()
	v := &View{
		p:           p,
		place:       old.place,
		topo:        old.topo,
		typeID:      old.typeID,
		properties:  maps.Clone(old.properties),
		typeObjects: maps.Clone(old.typeObjects),
	}
	if v.typeID == rdf.NoTerm {
		// rdf:type may enter the dictionary with this batch's inserts;
		// no earlier triple can have used it as a property.
		if id, ok := dict.Lookup(rdf.NewIRI(sparql.RDFType)); ok {
			v.typeID = id
		}
	}

	tx := p.store.Begin()
	defer tx.Abort()
	for _, t := range deletes {
		v.route(t, -1, tx.Delete)
	}
	for _, t := range inserts {
		v.route(t, 1, tx.Insert)
	}
	v.snap = tx.Commit()
	p.cur.Store(v)
	return v
}

// route is the Section 5.1 rule, written once for inserts and deletes:
// it calls f with the node and file of every replica of t that the
// store holds — by subject, and under ThreeReplica by object — and t's
// key in it, the placed cell high, and moves the view's counters by
// d (+1 for an insert, -1 for a delete), dropping those that reach zero.
// The replica by property is those counters: its files hold no cells of
// their own (Open).
func (v *View) route(t rdf.Triple, d int, f func(node int, file string, k uint64)) {
	count(v.properties, t.P, d)
	f(v.place.NodeFor(t.S), FileName(rdf.SPos, t.P, 0), dstore.Key(t.S, t.O))
	if v.p.mode == SubjectOnly {
		return
	}
	if v.typeID != rdf.NoTerm && t.P == v.typeID {
		count(v.typeObjects, t.O, d)
	}
	f(v.place.NodeFor(t.O), FileName(rdf.OPos, t.P, 0), dstore.Key(t.O, t.S))
}

// count moves m[k] by d, deleting the entry once it reaches zero.
func count(m map[rdf.TermID]int, k rdf.TermID, d int) {
	if m[k] += d; m[k] <= 0 {
		delete(m, k)
	}
}

// Current pins the latest published view (one atomic load).
func (p *Partitioner) Current() *View { return p.cur.Load() }

// Pin registers v's epoch as in use by a reader until the matching
// Unpin, and returns v for chaining. The epoch registry feeds
// Watermark; pinning does not affect which view Current publishes.
func (p *Partitioner) Pin(v *View) *View {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	if p.pins == nil {
		p.pins = make(map[uint64]int)
	}
	p.pins[v.Version()]++
	return v
}

// Unpin releases one Pin of v's epoch.
func (p *Partitioner) Unpin(v *View) {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	ver := v.Version()
	if p.pins[ver]--; p.pins[ver] <= 0 {
		delete(p.pins, ver)
	}
}

// Watermark reports the oldest epoch any reader still has pinned, or
// the current epoch when nothing is pinned. Durable-log GC keeps every
// generation at or above the watermark.
func (p *Partitioner) Watermark() uint64 {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	min := p.cur.Load().Version()
	for ver := range p.pins {
		if ver < min {
			min = ver
		}
	}
	return min
}

// TopologyVersion is the current view's topology version: 0 at load,
// +1 per completed resize.
func (p *Partitioner) TopologyVersion() uint64 { return p.cur.Load().topo }

// ScanPos resolves the replica position a scan of the view should read:
// the preferred (co-location) position under three-replica
// partitioning, always the subject replica under subject-only
// partitioning.
func (v *View) ScanPos(preferred rdf.Pos) rdf.Pos {
	if v.p.mode == SubjectOnly {
		return rdf.SPos
	}
	return preferred
}

// FileName names the partition file for placement position pos and
// property prop. typeObj is non-zero only for the rdf:type property
// partition's per-class split.
func FileName(pos rdf.Pos, prop rdf.TermID, typeObj rdf.TermID) string {
	var buf [32]byte
	return string(appendFileName(buf[:0], pos, prop, typeObj))
}

func appendFileName(b []byte, pos rdf.Pos, prop rdf.TermID, typeObj rdf.TermID) []byte {
	b = strconv.AppendUint(append(append(b, pos.String()...), "/p"...), uint64(prop), 10)
	if typeObj != rdf.NoTerm {
		b = strconv.AppendUint(append(b, "/o"...), uint64(typeObj), 10)
	}
	return b
}

// stored returns the file of property prop in the stored replica
// placed by pos on node, nil if the node holds none. It allocates
// nothing.
func (v *View) stored(node int, pos rdf.Pos, prop rdf.TermID) *dstore.File {
	var buf [32]byte
	f, _ := v.snap.Node(node).Get(string(appendFileName(buf[:0], pos, prop, rdf.NoTerm)))
	return f
}

// FileID is a partition file by value: the replica it is placed by, its
// property and, for a class file of the rdf:type property replica only,
// its class (NoTerm for every other file) — the cells its name fixes.
type FileID struct {
	Pos         rdf.Pos
	Prop, Class rdf.TermID
}

// compare orders file IDs by replica, then property, then class.
func (a FileID) compare(b FileID) int {
	return cmp.Or(cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.Prop, b.Prop), cmp.Compare(a.Class, b.Class))
}

// Version is the view's epoch number (the dstore snapshot version).
func (v *View) Version() uint64 { return v.snap.Version() }

// Topology is the view's topology version: 0 at load, +1 per resize.
func (v *View) Topology() uint64 { return v.topo }

// Nodes is the cluster size at this view's epoch.
func (v *View) Nodes() int { return v.snap.N() }

// Snap returns the pinned dstore snapshot.
func (v *View) Snap() *dstore.Snapshot { return v.snap }

// File is one partition file as a scan reads it on one node, whatever
// its replica: a file of the subject or object replica is its stored
// file; a file of the property replica is a run of stored rows, in
// order, from the files that hold its cells (Parts, Part).
type File struct {
	v    *View
	id   FileID
	node int
	// f is the stored file: the file itself, or for a class file the
	// object file whose run of class holds it. It is nil for a property
	// file, whose rows are the subject files of every node.
	f    *dstore.File
	rows int
}

// Open resolves the partition file id on node within this view,
// reporting false when the node does not hold it. A subject or object
// file is held where it is stored. A property file p/p<P> is held by
// node NodeFor(P) of the view's placement if P has triples, and its
// rows are the subject files s/p<P> of nodes 0 to Nodes()-1; a class
// file p/p<type>/o<C> is held by node NodeFor(type) if C has members,
// and its rows are the run of object C in the object file o/p<type> on
// node NodeFor(C). Open parses no name and allocates nothing.
func (v *View) Open(node int, id FileID) (File, bool) {
	if id.Pos != rdf.PPos {
		f := v.stored(node, id.Pos, id.Prop)
		if f == nil {
			return File{}, false
		}
		return File{v: v, id: id, node: node, f: f, rows: f.NumRows()}, true
	}
	isType := v.typeID != rdf.NoTerm && id.Prop == v.typeID
	if v.p.mode == SubjectOnly || isType != (id.Class != rdf.NoTerm) || v.place.NodeFor(id.Prop) != node {
		return File{}, false
	}
	lf := File{v: v, id: id, node: node, rows: v.properties[id.Prop]}
	if isType {
		lf.rows = v.typeObjects[id.Class]
		lf.f = v.stored(v.place.NodeFor(id.Class), rdf.OPos, id.Prop)
	}
	return lf, lf.rows > 0
}

// ID is the file's identity: the cells its name fixes.
func (f File) ID() FileID { return f.id }

// NumRows is the file's row count: what a mapper reading it reads.
func (f File) NumRows() int { return f.rows }

// Parts is the number of stored files that hold the file's rows: the
// cluster size for a property file, else 1.
func (f File) Parts() int {
	if f.f == nil {
		return f.v.Nodes()
	}
	return 1
}

// Run is the stretch of stored rows a scan of one part reads: rows
// [Lo, Hi) of F — nil for none — whose keys are (o, s) when Obj is set
// (an object file's), else (s, o). A run read through the other replica
// holds rows of other nodes too: Keeps tells those of the part apart.
type Run struct {
	F      *dstore.File
	Lo, Hi int
	Obj    bool
	place  Placement // nil: every row of the run is the part's
	node   int
}

// Keeps reports whether the run's row whose other cell is c is one of
// the part's.
func (r Run) Keeps(c rdf.TermID) bool { return r.place == nil || r.place.NodeFor(c) == r.node }

// KeepsAll reports whether every row of the run is the part's.
func (r Run) KeepsAll() bool { return r.place == nil }

// Part returns a run of the file's i-th part (0 ≤ i < Parts) that holds
// all its rows whose subject is s and whose object is o (NoTerm: any),
// and maybe others, which the caller filters out: with neither, the
// rows of every part, in part order, are the file's rows. A constant on
// the cell a stored file is placed by narrows the part to a run of it,
// both constants to a point. A constant on the other cell alone reads
// that constant's run in the other replica's file on the constant's
// node — those of its rows placed on the part's node are the part's —
// unless the whole file is the cheaper read (placeCost), as it is under
// SubjectOnly, which has no other replica. A class file's part is its
// class's run: o, which its ID fixes, is the caller's to check. Part
// allocates nothing.
func (f File) Part(i int, s, o rdf.TermID) Run {
	v, sf, node, id := f.v, f.f, f.node, f.id
	if id.Class != rdf.NoTerm {
		return span(sf, true, id.Class, s)
	}
	if sf == nil { // a property file: part i is node i's subject file
		node, id.Pos = i, rdf.SPos
		if sf = v.stored(i, rdf.SPos, id.Prop); sf == nil {
			return Run{}
		}
	}
	obj := id.Pos == rdf.OPos
	placed, other, otherPos := s, o, rdf.OPos
	if obj {
		placed, other, otherPos = o, s, rdf.SPos
	}
	switch {
	case placed != rdf.NoTerm:
		return span(sf, obj, placed, other)
	case other != rdf.NoTerm && v.p.mode == ThreeReplica:
		r := span(v.stored(v.place.NodeFor(other), otherPos, id.Prop), !obj, other, rdf.NoTerm)
		if (r.Hi-r.Lo)*placeCost < sf.NumRows() {
			r.place, r.node = v.place, node
			return r
		}
	}
	return span(sf, obj, rdf.NoTerm, rdf.NoTerm)
}

// placeCost is what testing a row's placement (Run.Keeps) costs in
// rows of a plain scan, which compares a constant: a constant on a
// stored file's other cell reads its run in the other replica only
// while that run, so weighted, is the smaller read.
const placeCost = 4

// span is the run of stored file sf (nil: none) whose rows start with
// placed, then other (NoTerm: any; both NoTerm: every row).
func span(sf *dstore.File, obj bool, placed, other rdf.TermID) Run {
	r := Run{F: sf, Obj: obj}
	switch {
	case sf == nil:
	case placed == rdf.NoTerm:
		r.Hi = sf.NumRows()
	default:
		r.Lo, r.Hi = sf.Range(placed, other)
	}
	return r
}

// Key returns the key of row i of run r of f: the cell f is placed by —
// the first cell of a run of its stored file, the second of a run read
// in the other replica — or, for a file of the property replica, the
// property its ID fixes. Within each run a file's rows ascend by key.
func (f File) Key(r Run, i int) rdf.TermID {
	if f.id.Pos == rdf.PPos {
		return f.id.Prop
	}
	first, second := dstore.Cells(r.F.Keys()[i])
	if r.Obj == (f.id.Pos == rdf.OPos) {
		return first
	}
	return second
}

// Within narrows run r of f to its rows whose key lies in [lo, hi), hi
// NoTerm for no bound: two binary searches.
func (f File) Within(r Run, lo, hi rdf.TermID) Run {
	if lo == rdf.NoTerm && hi == rdf.NoTerm {
		return r
	}
	from := func(k rdf.TermID) int {
		return r.Lo + sort.Search(r.Hi-r.Lo, func(i int) bool { return f.Key(r, r.Lo+i) >= k })
	}
	end := r.Hi
	if hi != rdf.NoTerm {
		end = from(hi)
	}
	r.Lo, r.Hi = from(lo), end
	return r
}

// Rows counts the file's rows whose key lies in [lo, hi), hi NoTerm for
// no bound: all or none of a file of the property replica, a run of a
// stored file.
func (f File) Rows(lo, hi rdf.TermID) int {
	if f.id.Pos == rdf.PPos {
		if k := f.id.Prop; k < lo || hi != rdf.NoTerm && k >= hi {
			return 0
		}
		return f.rows
	}
	r := f.Within(span(f.f, f.id.Pos == rdf.OPos, rdf.NoTerm, rdf.NoTerm), lo, hi)
	return r.Hi - r.Lo
}

// AppendFiles appends to dst the files a scan of property prop reads in
// the replica placed by pos, within this view's epoch, and returns it:
// prop's file or, for NoTerm, every property's. In the property replica
// rdf:type's files are its classes': class's, or for NoTerm every
// class's (a variable-property scan reads them all). Listed for NoTerm
// are the files that hold rows; a constant's file is listed whether or
// not it does, and Open tells. The files come in ascending (property,
// class) order, so scans visit files, and meter their work, in a
// reproducible order. It looks nothing up and allocates only to grow dst.
func (v *View) AppendFiles(dst []FileID, pos rdf.Pos, prop, class rdf.TermID) []FileID {
	start, id := len(dst), FileID{Pos: pos, Prop: prop}
	switch {
	case prop == rdf.NoTerm:
		for p := range v.properties {
			dst = v.AppendFiles(dst, pos, p, rdf.NoTerm)
		}
	case pos != rdf.PPos || prop != v.typeID:
		return append(dst, id)
	case class != rdf.NoTerm:
		id.Class = class
		return append(dst, id)
	default:
		for id.Class = range v.typeObjects {
			dst = append(dst, id)
		}
	}
	slices.SortFunc(dst[start:], FileID.compare)
	return dst
}

// EachTriple calls fn for every triple of the view's epoch whose
// property is prop, or for every triple when prop is NoTerm, in a
// reproducible order (property id, node, row). It reads the subject
// replica, which holds each triple exactly once in every epoch — in both
// modes, and across a resize, which moves a row within one transaction —
// and of it only the files of the properties concerned, rebuilding each
// triple from a key's (s, o) and the file's property.
func (v *View) EachTriple(prop rdf.TermID, fn func(rdf.Triple)) {
	props := []rdf.TermID{prop}
	if prop == rdf.NoTerm {
		props = slices.Sorted(maps.Keys(v.properties))
	}
	for _, p := range props {
		for n := 0; n < v.snap.N(); n++ {
			if f := v.stored(n, rdf.SPos, p); f != nil {
				for _, k := range f.Keys() {
					s, o := dstore.Cells(k)
					fn(rdf.Triple{S: s, P: p, O: o})
				}
			}
		}
	}
}

// AppendTriples appends every triple of the view's epoch to dst in
// (property, subject, object) order, the log codec's, and returns it:
// per property, in ascending order, it merges the nodes' subject files,
// each of which is sorted by (s, o) already — no sort.
func (v *View) AppendTriples(dst []rdf.Triple) []rdf.Triple {
	runs := make([][]uint64, 0, v.snap.N())
	for _, p := range slices.Sorted(maps.Keys(v.properties)) {
		runs = runs[:0]
		for n := 0; n < v.snap.N(); n++ {
			if f := v.stored(n, rdf.SPos, p); f != nil && f.NumRows() > 0 {
				runs = append(runs, f.Keys())
			}
		}
		for len(runs) > 0 {
			// Copy the run of the least head up to the next run's head: a
			// subject's rows are on one node, so a step copies them all.
			m := 0
			for i := range runs {
				if runs[i][0] < runs[m][0] {
					m = i
				}
			}
			next := uint64(math.MaxUint64)
			for i := range runs {
				if i != m && runs[i][0] < next {
					next = runs[i][0]
				}
			}
			r, j := runs[m], 0
			for ; j < len(r) && r[j] < next; j++ {
				s, o := dstore.Cells(r[j])
				dst = append(dst, rdf.Triple{S: s, P: p, O: o})
			}
			if runs[m] = r[j:]; len(runs[m]) == 0 {
				runs = slices.Delete(runs, m, m+1)
			}
		}
	}
	return dst
}

// NumTriples is the number of triples stored at this view's epoch.
func (v *View) NumTriples() int {
	n := 0
	for _, c := range v.properties {
		n += c
	}
	return n
}

// Contains reports whether t is stored at this view's epoch: a binary
// search for its (s, o) key in the one subject-replica file that can
// hold it. It routes through the view's own placement, which every
// epoch's rows follow: it is the writer's presence test.
func (v *View) Contains(t rdf.Triple) bool { return v.run(rdf.SPos, t.P, t.S, t.O) > 0 }

// Count returns the number of triples stored at this view's epoch that
// match (s, p, o), NoTerm matching any term, by binary search of the
// stored replicas: with s bound, the run of s (or of (s, o)) in the
// subject file s/p<P> on s's node; with o bound alone, the run of o in
// the object file o/p<P> on o's node; with neither, the property's
// count. A variable property sums over the properties. It reports false
// where only a scan could answer — o bound alone under SubjectOnly,
// which stores no object replica — and allocates nothing.
func (v *View) Count(s, p, o rdf.TermID) (int, bool) {
	switch {
	case p == rdf.NoTerm:
		n := 0
		for prop := range v.properties {
			c, ok := v.Count(s, prop, o)
			if !ok {
				return 0, false
			}
			n += c
		}
		return n, true
	case s != rdf.NoTerm:
		return v.run(rdf.SPos, p, s, o), true
	case o == rdf.NoTerm:
		return v.properties[p], true
	case v.p.mode == SubjectOnly:
		return 0, false
	}
	return v.run(rdf.OPos, p, o, rdf.NoTerm), true
}

// run is the number of rows of property prop's file in the stored
// replica placed by pos whose placed cell is placed and whose other
// cell is other (NoTerm: any): a binary search on placed's node.
func (v *View) run(pos rdf.Pos, prop, placed, other rdf.TermID) int {
	f := v.stored(v.place.NodeFor(placed), pos, prop)
	if f == nil {
		return 0
	}
	lo, hi := f.Range(placed, other)
	return hi - lo
}

// hash mixes a term ID for node placement (splitmix-style finalizer so
// consecutive IDs spread across nodes).
func hash(id rdf.TermID) int {
	x := uint64(id) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int(x % uint64(1<<31))
}

// NodeFor returns the node index a term hashes to in an n-node cluster.
func NodeFor(id rdf.TermID, n int) int { return hash(id) % n }
