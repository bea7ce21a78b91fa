package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"cliquesquare/internal/sparql"
)

// Space is the product of one plan enumeration, kept as flat tables: the
// operators of all its candidate plans interned into one id space, the
// candidates as roots into it. Nothing in it names a constant or a
// variable — the optimizer reads a query's variable graph only
// (Sections 3-4), so every query of one written shape (WrittenShape)
// has the same Space, and the query's own names enter when Plan
// materialises a candidate. It holds no pointers into the plans it was
// built from and is never written after SpaceOf returns, so any number
// of goroutines may price and materialise from one Space.
//
// Operators are interned by structure — a match by its pattern index, a
// join by its ordered child ids — so a sub-plan shared by a thousand
// candidates is stored once. Two distinct operators of one plan that
// have the same structure (redundant simple covers can join the same
// inputs twice) stay two operators, as they are two to the executor.
// Children precede parents in id order.
type Space struct {
	// Explored is the number of plans the enumeration generated,
	// duplicates included; Truncated whether a budget cut it short.
	Explored  int
	Truncated bool

	patterns int // triple patterns of the query shape
	words    int // uint64 words per pattern set

	// Per operator: pat is the pattern a match scans (-1 for a join),
	// kids[off[id]:off[id+1]] a join's inputs in order, level its
	// reduce-join level and set the index of its pattern set.
	pat   []int32
	off   []int32
	kids  []int32
	level []int32
	set   []int32
	// sets holds the distinct pattern sets, words words each, one bit
	// per pattern.
	sets []uint64
	// roots[i] is the operator under candidate i's projection, -1 for a
	// candidate that is not a well-formed plan.
	roots []int32
}

// WrittenShape is what an enumeration is a function of, as a cache key:
// per pattern in input order, per position, the variable's name or a
// marker that a constant stands there. SELECT, the query's Name and the
// constants themselves are not part of it.
func WrittenShape(q *sparql.Query) string { return string(AppendWrittenShape(nil, q)) }

// AppendWrittenShape appends WrittenShape(q)'s bytes to b: a lookup
// keyed by the shape need not build the string.
func AppendWrittenShape(b []byte, q *sparql.Query) []byte {
	for _, tp := range q.Patterns {
		for _, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
			if !pt.IsVar {
				b = append(b, 'c')
				continue
			}
			b = binary.AppendUvarint(append(b, 'v'), uint64(len(pt.Var)))
			b = append(b, pt.Var...)
		}
	}
	return b
}

// Space interns the run's unique plans, in Unique order.
func (r *Result) Space() *Space {
	s := SpaceOf(r.Unique)
	s.Explored, s.Truncated = len(r.Plans), r.Truncated
	return s
}

// SpaceOf interns plans, all over queries of one written shape, as the
// candidates of one Space, in order (Explored is their number). A plan
// that physical.CompileWith would refuse — its root not a projection over
// one operator, a join without join attributes, anything but matches
// and joins below — becomes a candidate without a root.
func SpaceOf(plans []*Plan) *Space {
	s := &Space{Explored: len(plans), off: []int32{0}, roots: make([]int32, len(plans))}
	if len(plans) > 0 {
		s.patterns = len(plans[0].Query.Patterns)
	}
	s.words = (s.patterns + 63) / 64
	in := interner{
		s:      s,
		ids:    make(map[string]int32),
		setIDs: make(map[string]int32),
		local:  make(map[*Op]int32),
		bits:   make([]uint64, s.words),
	}
	for i, p := range plans {
		clear(in.local)
		in.stamp = int32(i + 1)
		s.roots[i] = -1
		if p.Root.Kind == OpProject && len(p.Root.Children) == 1 {
			s.roots[i] = in.intern(p.Root.Children[0])
		}
	}
	// The tables grew by doubling; what stays resident is exactly sized.
	s.pat, s.off, s.kids = slices.Clone(s.pat), slices.Clone(s.off), slices.Clone(s.kids)
	s.level, s.set, s.sets = slices.Clone(s.level), slices.Clone(s.set), slices.Clone(s.sets)
	return s
}

// interner is the scratch of one SpaceOf: ids maps an operator's
// structural key to its id and setIDs a pattern set's bytes to its
// index; local maps the operators of the plan being interned to their
// ids, and held[id] is the stamp of the last plan one of whose
// operators took id.
type interner struct {
	s      *Space
	ids    map[string]int32
	setIDs map[string]int32
	local  map[*Op]int32
	held   []int32
	stamp  int32
	key    []byte // the operator key being looked up
	setKey []byte
	bits   []uint64 // the pattern set being assembled
}

// intern returns op's id within the plan being interned, -1 if the
// sub-plan under op is malformed.
func (in *interner) intern(op *Op) int32 {
	if id, ok := in.local[op]; ok {
		return id
	}
	var kids []int32
	switch op.Kind {
	case OpMatch:
	case OpJoin:
		if len(op.JoinAttrs) == 0 {
			return -1
		}
		kids = make([]int32, len(op.Children))
		for i, c := range op.Children {
			if kids[i] = in.intern(c); kids[i] < 0 {
				return -1
			}
		}
	default:
		return -1
	}
	// The key: kind, then the pattern or the inputs, then which of the
	// plan's structurally equal operators this one is.
	in.key = append(in.key[:0], byte(op.Kind))
	if op.Kind == OpMatch {
		in.key = binary.LittleEndian.AppendUint32(in.key, uint32(op.Pattern))
	}
	for _, k := range kids {
		in.key = binary.LittleEndian.AppendUint32(in.key, uint32(k))
	}
	in.key = append(in.key, 0)
	for {
		id, ok := in.ids[string(in.key)]
		if !ok {
			id = in.add(op, kids)
			in.ids[string(in.key)] = id
		}
		if in.held[id] != in.stamp {
			in.held[id] = in.stamp
			in.local[op] = id
			return id
		}
		in.key[len(in.key)-1]++ // another operator of this plan holds id
	}
}

// add appends op to the tables and classifies it by the rule
// physical.CompileWith applies under the three-replica partitioning: a
// join over scans only runs map-side, at level 0; any other join is a
// reduce join, one level above its deepest input.
func (in *interner) add(op *Op, kids []int32) int32 {
	s := in.s
	id := int32(len(s.pat))
	clear(in.bits)
	level, pat := int32(0), int32(-1)
	if op.Kind == OpMatch {
		pat = int32(op.Pattern)
		in.bits[op.Pattern/64] |= 1 << (op.Pattern % 64)
	}
	allScans := true
	for _, k := range kids {
		allScans = allScans && s.pat[k] >= 0
		level = max(level, s.level[k])
		for w, b := range s.setBits(int(s.set[k])) {
			in.bits[w] |= b
		}
	}
	if !allScans {
		level++
	}
	s.pat = append(s.pat, pat)
	s.kids = append(s.kids, kids...)
	s.off = append(s.off, int32(len(s.kids)))
	s.level = append(s.level, level)
	s.set = append(s.set, in.internSet())
	in.held = append(in.held, 0)
	return id
}

// internSet returns the index of the pattern set in.bits.
func (in *interner) internSet() int32 {
	in.setKey = in.setKey[:0]
	for _, w := range in.bits {
		in.setKey = binary.LittleEndian.AppendUint64(in.setKey, w)
	}
	si, ok := in.setIDs[string(in.setKey)]
	if !ok {
		si = int32(in.s.Sets())
		in.setIDs[string(in.setKey)] = si
		in.s.sets = append(in.s.sets, in.bits...)
	}
	return si
}

// Candidates is the number of candidate plans.
func (s *Space) Candidates() int { return len(s.roots) }

// Ops is the number of interned operators; ids run from 0 to Ops()-1.
func (s *Space) Ops() int { return len(s.pat) }

// Sets is the number of distinct pattern sets; set indexes run from 0
// to Sets()-1.
func (s *Space) Sets() int { return len(s.sets) / max(s.words, 1) }

// Root returns the operator under candidate i's projection, or -1 if
// the candidate is not a well-formed plan.
func (s *Space) Root(i int) int32 { return s.roots[i] }

// Pattern returns the index of the pattern operator id scans, or -1 if
// id is a join.
func (s *Space) Pattern(id int32) int { return int(s.pat[id]) }

// Children returns a join's inputs in order (nil for a match). The
// slice is the Space's own: read it, do not write it.
func (s *Space) Children(id int32) []int32 { return s.kids[s.off[id]:s.off[id+1]] }

// Level returns operator id's reduce-join level: 0 for a scan and for a
// map join (a join whose inputs are all scans), otherwise one more than
// the highest level among its inputs — the MapReduce job it runs in.
func (s *Space) Level(id int32) int { return int(s.level[id]) }

// Jobs is the number of MapReduce jobs candidate i needs: one per
// reduce-join level, or a single map-only job.
func (s *Space) Jobs(i int) int { return max(1, s.Level(s.roots[i])) }

// Set returns the index of operator id's pattern set: the patterns
// scanned under it.
func (s *Space) Set(id int32) int { return int(s.set[id]) }

// AppendSetPatterns appends the pattern indexes of set si to dst in
// ascending order.
func (s *Space) AppendSetPatterns(dst []int, si int) []int {
	for w, b := range s.setBits(si) {
		for ; b != 0; b &= b - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(b))
		}
	}
	return dst
}

func (s *Space) setBits(si int) []uint64 { return s.sets[si*s.words : (si+1)*s.words] }

// Bytes is the memory the Space holds.
func (s *Space) Bytes() int {
	return int(unsafe.Sizeof(*s)) +
		4*(cap(s.pat)+cap(s.off)+cap(s.kids)+cap(s.level)+cap(s.set)+cap(s.roots)) +
		8*cap(s.sets)
}

// Plan materialises candidate i for q, a query of the Space's written
// shape, as a fresh plan built by the constructors CreateQueryPlans
// uses: equal, operator for operator, to the i-th unique plan a fresh
// Optimize(q) returns, sharing nothing with any other materialisation.
func (s *Space) Plan(q *sparql.Query, i int) (*Plan, error) {
	if len(q.Patterns) != s.patterns {
		return nil, fmt.Errorf("core: query %s has %d patterns, its plan space %d", q.Name, len(q.Patterns), s.patterns)
	}
	if s.roots[i] < 0 {
		return nil, fmt.Errorf("core: candidate %d is not a well-formed plan", i)
	}
	ops := make(map[int32]*Op)
	var build func(id int32) (*Op, error)
	build = func(id int32) (*Op, error) {
		if op, ok := ops[id]; ok {
			return op, nil
		}
		var op *Op
		if s.pat[id] >= 0 {
			op = NewMatch(q, int(s.pat[id]))
		} else {
			kids := s.Children(id)
			children := make([]*Op, len(kids))
			for j, k := range kids {
				c, err := build(k)
				if err != nil {
					return nil, err
				}
				children[j] = c
			}
			var err error
			if op, err = NewJoinOp(children); err != nil {
				return nil, err
			}
		}
		ops[id] = op
		return op, nil
	}
	root, err := build(s.roots[i])
	if err != nil {
		return nil, err
	}
	return NewPlan(q, root), nil
}
