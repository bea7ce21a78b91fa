package core

import (
	"time"

	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// Options configures one run of the CliqueSquare algorithm. Its budgets
// are counts: the paper caps each run at 100 s of wall time instead, but
// a clock would make the plan space, and every figure drawn from it,
// depend on the machine. A run under counts is the same everywhere.
type Options struct {
	// Method is the clique-decomposition variant (default MSC, the
	// paper's recommendation).
	Method vargraph.Method
	// MaxPlans caps the total number of plans generated; 0 means
	// unlimited.
	MaxPlans int
	// MaxCoversPerStep caps the decompositions enumerated per
	// recursion step; 0 means MaxPlans (and no cap if that is 0 too).
	MaxCoversPerStep int
	// Timeout is ignored: no clock bounds a run. It remains only for
	// callers that still set it.
	Timeout time.Duration
}

// Result reports the outcome of an optimization run.
type Result struct {
	Method vargraph.Method
	// Plans are all generated plans in generation order, duplicates
	// included (the paper's per-variant plan counts include them; the
	// uniqueness ratio of Figure 19 measures the overlap).
	Plans []*Plan
	// Unique holds the first occurrence of each distinct plan
	// signature, in generation order.
	Unique []*Plan
	// Reductions counts clique reductions performed — the T(n) cost
	// metric of Section 4.5.
	Reductions int
	// Truncated reports whether a count budget (plans, or covers per
	// step) cut the exploration short.
	Truncated bool
	// Elapsed is the wall-clock optimization time (Figure 18); it
	// bounds nothing.
	Elapsed time.Duration
}

// MinHeight returns the smallest height among generated plans, or -1 if
// no plan was found (possible for XC+/MXC+, Section 4.4).
func (r *Result) MinHeight() int {
	h := -1
	for _, p := range r.Plans {
		if ph := p.Height(); h < 0 || ph < h {
			h = ph
		}
	}
	return h
}

// UniquenessRatio is |unique plans| / |all plans| (Figure 19), or 0 if
// no plan was generated.
func (r *Result) UniquenessRatio() float64 {
	if len(r.Plans) == 0 {
		return 0
	}
	return float64(len(r.Unique)) / float64(len(r.Plans))
}

// OptimalityRatio is |plans of height hStar| / |all plans| (Figure 17),
// given the query's optimal height hStar. It is 0 when no plan was
// generated, matching the paper's convention for failing variants.
func (r *Result) OptimalityRatio(hStar int) float64 {
	if len(r.Plans) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.Plans {
		if p.Height() == hStar {
			n++
		}
	}
	return float64(n) / float64(len(r.Plans))
}

// Best returns the lowest-cost plan according to rank (smaller is
// better) among the unique plans, or nil if none were generated.
func (r *Result) Best(rank func(*Plan) float64) *Plan {
	var best *Plan
	bestCost := 0.0
	for _, p := range r.Unique {
		c := rank(p)
		if best == nil || c < bestCost {
			best, bestCost = p, c
		}
	}
	return best
}

// Optimize runs Algorithm 1 on q with the given options and returns all
// generated plans. The query must be valid (see sparql.Query.Validate).
func Optimize(q *sparql.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	if opts.MaxCoversPerStep == 0 {
		// A plan budget alone does not bound one step: the covers of the
		// first graph can number far more than MaxPlans, all enumerated
		// before a single plan is built. No step needs more covers than
		// the run may build plans.
		opts.MaxCoversPerStep = opts.MaxPlans
	}
	o := &optimizer{q: q, opts: opts, res: &Result{Method: opts.Method}, seen: make(map[string]bool)}
	o.run(vargraph.FromQuery(q), nil)
	o.res.Elapsed = time.Since(start)
	return o.res, nil
}

type optimizer struct {
	q    *sparql.Query
	opts Options
	res  *Result
	seen map[string]bool
}

// capped reports whether the run has built all the plans it may.
func (o *optimizer) capped() bool {
	return o.opts.MaxPlans > 0 && len(o.res.Plans) >= o.opts.MaxPlans
}

// run is the CLIQUESQUARE recursion of Algorithm 1: states traces the
// graphs from the initial query graph to g's predecessor.
func (o *optimizer) run(g *vargraph.Graph, states []*vargraph.Graph) {
	states = append(states, g)
	if g.Len() == 1 {
		p, err := CreateQueryPlans(o.q, states)
		if err != nil {
			// Cannot happen for graphs produced by Reduce; fail loudly
			// in development rather than silently dropping plans.
			panic(err)
		}
		o.res.Plans = append(o.res.Plans, p)
		if sig := p.Signature(); !o.seen[sig] {
			o.seen[sig] = true
			o.res.Unique = append(o.res.Unique, p)
		}
		o.res.Truncated = o.res.Truncated || o.capped()
		return
	}
	ds, trunc := vargraph.Decompositions(g, o.opts.Method, o.opts.MaxCoversPerStep)
	o.res.Truncated = o.res.Truncated || trunc
	for _, d := range ds {
		if o.capped() {
			return
		}
		o.res.Reductions++
		o.run(g.Reduce(d), states)
	}
}
