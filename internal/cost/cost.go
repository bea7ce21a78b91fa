// Package cost implements the MapReduce cost model of Section 5.4: the
// cost of a plan is the estimated total work — scan I/O, join CPU,
// framework I/O for intermediate results and network transfer — plus a
// per-job initialization charge. The optimizer ranks the (few) plans
// its chosen variant produces with this model and executes the
// cheapest.
//
// Statistics come in two layers. A Catalog is the shared, mutable one:
// per distinct triple pattern the match count and each variable's
// distinct count, filled from the data once, kept exact under commit
// deltas by counting the values they touch in the data, and retained
// under a byte budget of its own, least recently used first. A Stats
// is an immutable snapshot of it for one query at one data version —
// what a Model reads, so pricing takes no lock and touches nothing
// shared.
package cost

import (
	"math"
	"slices"
	"sync"

	"cliquesquare/internal/core"
	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// Stats is what costing reads of one query's patterns: per pattern the
// exact match count and per variable the distinct-binding count, plain
// integer counts stored in float64, so a snapshot of a delta-maintained
// catalog and one of a fresh fill are bit-identical. A Stats taken with
// Catalog.Snapshot never changes and may be read from any goroutine.
//
// NewStats is the standalone form: a private catalog of one query, which
// its Apply keeps current in place. Such a Stats is not safe for
// concurrent use while Apply runs.
type Stats struct {
	// lay is the query's variable order and scan filter flags, shared by
	// the snapshots of its written shape (see layout).
	lay     *layout
	pats    []patStats
	version uint64
	// own and q are the private catalog behind a NewStats result and the
	// query it snapshots.
	own *Catalog
	q   *sparql.Query
}

// patStats is one pattern's share of a snapshot: its match count and the
// distinct-binding count of each of its variable slots.
type patStats struct {
	card     float64
	distinct [3]float64
}

// NewStats fills the statistics of q's patterns from g.
func NewStats(g *rdf.Graph, q *sparql.Query) *Stats {
	c := NewCatalog(g, 0)
	c.budget = math.MaxInt64 // every pattern stays resident, so Apply keeps it current
	s := c.Snapshot(g.Dict, q)
	s.own, s.q = c, q
	return s
}

// Apply folds an effective insert/delete delta into a Stats built by
// NewStats, leaving it identical to a fresh NewStats over the mutated
// graph (see Catalog.Apply). The graph is the private catalog's view.
func (s *Stats) Apply(d *rdf.Dict, inserts, deletes []rdf.Triple) {
	s.own.Apply(s.own.view, s.version+1, d, inserts, deletes)
	now := s.own.Snapshot(d, s.q)
	s.pats, s.version = now.pats, now.version
}

// Shape returns core.WrittenShape of the snapshot's query, as the
// catalog keeps it.
func (s *Stats) Shape() string { return s.lay.shape }

// Version is the data version the snapshot describes: the version its
// catalog was at.
func (s *Stats) Version() uint64 { return s.version }

// Equal reports whether s and o, two snapshots for the same query, hold
// the same numbers: every plan then prices the same under both.
func (s *Stats) Equal(o *Stats) bool { return slices.Equal(s.pats, o.pats) }

// PatternCard returns the exact match count of pattern i.
func (s *Stats) PatternCard(i int) float64 { return s.pats[i].card }

// Distinct returns the distinct-value count of variable v in pattern
// i's matches (0 if v does not occur there).
func (s *Stats) Distinct(i int, v string) float64 {
	for k, vi := range s.lay.slots[i] {
		if vi >= 0 && s.lay.vars[vi] == v {
			return s.pats[i].distinct[k]
		}
	}
	return 0
}

// JoinCard estimates the cardinality of joining the given pattern set,
// using the classical independence model: the product of the pattern
// cardinalities divided, for every shared variable, by the largest
// per-pattern distinct count raised to (occurrences-1). The divisions
// run in the query's fixed variable order, so one Stats prices one
// pattern list to one bit pattern on every call.
func (s *Stats) JoinCard(patterns []int) float64 {
	return s.joinCard(patterns, make([]varUse, len(s.lay.vars)))
}

// varUse accumulates one variable over a pattern set: the patterns it
// occurs in and its largest distinct count among them.
type varUse struct {
	occ  int
	maxd float64
}

// joinCard is JoinCard over caller-owned scratch, one varUse per query
// variable.
func (s *Stats) joinCard(patterns []int, use []varUse) float64 {
	if len(patterns) == 0 {
		return 0
	}
	clear(use)
	card := 1.0
	for _, i := range patterns {
		card *= s.pats[i].card
		for k, v := range s.lay.slots[i] {
			if v < 0 {
				break
			}
			use[v].occ++
			use[v].maxd = max(use[v].maxd, s.pats[i].distinct[k])
		}
	}
	for _, u := range use {
		if u.occ < 2 {
			continue
		}
		if u.maxd < 1 {
			return 0 // a shared variable with no bindings: empty join
		}
		card /= math.Pow(u.maxd, float64(u.occ-1))
	}
	return card
}

// Model prices logical plans under the Section 5.4 formulas. It holds
// no state of its own beyond its two inputs, so one Model may price from
// several goroutines when S is a snapshot.
type Model struct {
	C mapreduce.Constants
	S *Stats
}

// NewModel builds a model from cost constants and statistics.
func NewModel(c mapreduce.Constants, s *Stats) *Model { return &Model{C: c, S: s} }

// PlanCost estimates the total work of executing p: it classifies the
// plan's joins as map or reduce joins (Section 5.2), then sums
//
//	c(MS)  = |pattern| · c_read                (+ c_check if filtered)
//	c(MJ)  = c_join·(Σin + out) + out·c_write
//	c(MF)  = |op|·(c_read + c_write)
//	c(RJ)  = Σin·c_shuffle + c_join·(Σin + out) + out·c_write
//	c(π)   = out·c_check
//
// plus JobInit per MapReduce job. A plan physical.CompileWith refuses
// costs +Inf.
func (m *Model) PlanCost(p *core.Plan) float64 {
	_, c := m.ChooseSpace(core.SpaceOf([]*core.Plan{p}))
	return c
}

// pricer prices the candidates of one Space, all plans of the query S
// describes — the one pricing walk: plans handed over as trees are
// interned into a Space first. An operator's kind, level and pattern set
// come classified with the Space, and its estimated output depends on
// its pattern set alone (the patterns multiply in index order whatever
// tree they were met in), so both are computed once per choice however
// many candidates share the operator; what is per candidate is the sum.
// Pricers are pooled: one holds its Model (a copy: the caller's does not
// escape) and Space only while it prices.
type pricer struct {
	m  Model
	sp *core.Space
	// setCard[si] is JoinCard of pattern set si, NaN until estimated.
	setCard []float64
	use     []varUse // joinCard's scratch
	idx     []int    // the set being estimated, as indexes

	// The candidate being priced: seen[id] == stamp once operator id's
	// cost is in total.
	seen  []int32
	stamp int32
	total float64
}

var pricers = sync.Pool{New: func() any { return new(pricer) }}

// pricer returns a pricer for sp's candidates, to be put back.
func (m *Model) pricer(sp *core.Space) *pricer {
	pr := pricers.Get().(*pricer)
	pr.m, pr.sp, pr.stamp = *m, sp, 0
	pr.setCard = slices.Grow(pr.setCard[:0], sp.Sets())[:sp.Sets()]
	for i := range pr.setCard {
		pr.setCard[i] = math.NaN()
	}
	pr.seen = slices.Grow(pr.seen[:0], sp.Ops())[:sp.Ops()]
	clear(pr.seen)
	return pr
}

func (pr *pricer) put() {
	pr.m.S, pr.sp = nil, nil
	pricers.Put(pr)
}

// cost prices candidate i.
func (pr *pricer) cost(i int) float64 {
	root := pr.sp.Root(i)
	if root < 0 {
		return math.Inf(1)
	}
	pr.stamp++
	pr.total = pr.m.C.JobInit * float64(pr.sp.Jobs(i))
	pr.visit(root)
	return pr.total + pr.card(root)*pr.m.C.Check // the projection
}

// card is the estimated output of operator id.
func (pr *pricer) card(id int32) float64 {
	if p := pr.sp.Pattern(id); p >= 0 {
		return pr.m.S.PatternCard(p)
	}
	si := pr.sp.Set(id)
	if c := pr.setCard[si]; !math.IsNaN(c) {
		return c
	}
	pr.idx = pr.sp.AppendSetPatterns(pr.idx[:0], si)
	pr.use = slices.Grow(pr.use[:0], len(pr.m.S.lay.vars))[:len(pr.m.S.lay.vars)]
	c := pr.m.S.joinCard(pr.idx, pr.use)
	pr.setCard[si] = c
	return c
}

// visit adds operator id's cost — after its inputs', each operator once
// — to the total.
func (pr *pricer) visit(id int32) {
	if pr.seen[id] == pr.stamp {
		return
	}
	pr.seen[id] = pr.stamp
	c := pr.m.C
	if p := pr.sp.Pattern(id); p >= 0 {
		card := pr.card(id)
		pr.total += card * c.Read
		if pr.m.S.lay.filtered[p] {
			pr.total += card * c.Check
		}
		return
	}
	kids := pr.sp.Children(id)
	sum := 0.0
	for _, k := range kids {
		pr.visit(k)
		sum += pr.card(k)
	}
	out := pr.card(id)
	if pr.sp.Level(id) == 0 { // a map join
		pr.total += c.Join*(sum+out) + out*c.Write
		return
	}
	for _, k := range kids {
		if pr.sp.Level(k) > 0 {
			// Map shuffler re-reading the previous job's output.
			pr.total += pr.card(k) * (c.Read + c.Write)
		}
	}
	pr.total += sum*c.Shuffle + c.Join*(sum+out) + out*c.Write
}

// patternFiltered reports whether a scan of tp is charged a runtime
// filter: a constant subject or object, or a variable repeated in an
// all-variable pattern; the property constant is resolved by file
// naming.
func patternFiltered(tp sparql.TriplePattern) bool {
	if !tp.S.IsVar || !tp.O.IsVar {
		return true
	}
	return tp.P.IsVar && (tp.S.Var == tp.P.Var || tp.S.Var == tp.O.Var || tp.P.Var == tp.O.Var)
}

// Choose returns the cheapest plan under the model, or nil for an empty
// slice.
func (m *Model) Choose(plans []*core.Plan) *core.Plan {
	best, _, _ := m.ChooseIndexed(plans)
	return best
}

// ChooseIndexed is Choose, additionally reporting the chosen plan's
// index within plans and its modeled cost. idx is -1 (cost +Inf) for an
// empty slice.
func (m *Model) ChooseIndexed(plans []*core.Plan) (best *core.Plan, idx int, cost float64) {
	if idx, cost = m.ChooseSpace(core.SpaceOf(plans)); idx >= 0 {
		best = plans[idx]
	}
	return best, idx, cost
}

// ChooseSpace returns the index of sp's cheapest candidate — the first
// of them on a tie — and its modeled cost; -1 and +Inf when no
// candidate has a finite cost. Re-running it over the same Space with
// fresher statistics is how the engine revalidates a cached plan after
// data updates: an unchanged index means the cached choice still wins.
func (m *Model) ChooseSpace(sp *core.Space) (idx int, cost float64) {
	idx, cost = -1, math.Inf(1)
	pr := m.pricer(sp)
	defer pr.put()
	for i := 0; i < sp.Candidates(); i++ {
		if c := pr.cost(i); c < cost {
			idx, cost = i, c
		}
	}
	return idx, cost
}
