package physical

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"cliquesquare/internal/core"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/sparql"
)

// oracleKey is the renderer Plan.Key had while every operator memoised
// its content signature — the memo kept here, per call, instead — and
// the oracle the one-pass renderer must match byte for byte.
func oracleKey(pp *Plan) string {
	q := pp.Logical.Query
	memo := make(map[*core.Op]string)
	var sig func(op *core.Op) string
	sig = func(op *core.Op) string {
		if s, ok := memo[op]; ok {
			return s
		}
		var s string
		switch op.Kind {
		case core.OpMatch:
			tp := q.Patterns[op.Pattern]
			s = "M(" + tp.S.String() + " " + tp.P.String() + " " + tp.O.String() + ")[" + strings.Join(op.Attrs, ",") + "]"
		case core.OpJoin:
			kids := make([]string, len(op.Children))
			for i, c := range op.Children {
				kids[i] = sig(c)
			}
			s = "J[" + strings.Join(op.JoinAttrs, ",") + "][" + strings.Join(op.Residual, ",") + "][" + strings.Join(op.Attrs, ",") + "](" + strings.Join(kids, ";") + ")"
		case core.OpProject:
			s = "P[" + strings.Join(op.Attrs, ",") + "](" + sig(op.Children[0]) + ")"
		}
		memo[op] = s
		return s
	}
	var b strings.Builder
	if pp.MapOnly() {
		b.WriteString("MO|" + sig(pp.Root))
	}
	for l, infos := range pp.Levels {
		if l > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "L%d", l+1)
		for _, in := range infos {
			fmt.Fprintf(&b, "|%d:%s", in.ID, sig(in.Op))
		}
	}
	b.WriteString("|S:" + strings.Join(q.Select, ","))
	return b.String()
}

// compileCandidate compiles candidate i of sp for q the way the engine
// does: materialised, projections pushed down, under co-locator caps.
func compileCandidate(t *testing.T, sp *core.Space, q *sparql.Query, i int, caps CoLocator) *Plan {
	t.Helper()
	p, err := sp.Plan(q, i)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := CompileWith(core.PushProjections(p), caps)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestKeyMatchesOracle pins Plan.Key byte for byte to the memoising
// renderer it replaced: for every candidate of the 14 LUBM queries, under
// both co-locators, as compiled and as bound to the query (a bound plan
// renders its key on first use: none of these is ever executed); and for
// every candidate of the six university templates, compiled for
// university 0 and bound to universities 0, 1 and 2, where a bind must
// also key exactly as a compile for its own constants and leave the
// compiled plan untouched.
func TestKeyMatchesOracle(t *testing.T) {
	opts := core.Options{MaxPlans: 20000, MaxCoversPerStep: 5000}
	for _, q := range lubm.Queries() {
		res, err := core.Optimize(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sp := res.Space()
		for i := 0; i < sp.Candidates(); i++ {
			for _, caps := range []CoLocator{nil, SubjectOnlyCoLocator()} {
				pp := compileCandidate(t, sp, q, i, caps)
				if pp.Key() != oracleKey(pp) {
					t.Fatalf("%s candidate %d: key\n%s\nwant\n%s", q.Name, i, pp.Key(), oracleKey(pp))
				}
				if bound := pp.Bind(q); bound.Key() != oracleKey(bound) {
					t.Fatalf("%s candidate %d bound: key\n%s\nwant\n%s", q.Name, i, bound.Key(), oracleKey(bound))
				}
			}
		}
	}
	variants := [][]*sparql.Query{lubm.UniversityVariants(0), lubm.UniversityVariants(1), lubm.UniversityVariants(2)}
	for k, q0 := range variants[0] {
		res, err := core.Optimize(q0, opts)
		if err != nil {
			t.Fatal(err)
		}
		sp := res.Space()
		for i := 0; i < sp.Candidates(); i++ {
			compiled := compileCandidate(t, sp, q0, i, nil)
			key := compiled.Key()
			for c, qs := range variants {
				q := qs[k]
				bound := compiled.Bind(q)
				if bound.Key() != oracleKey(bound) {
					t.Fatalf("%s candidate %d bound to university %d: key\n%s\nwant\n%s", q.Name, i, c, bound.Key(), oracleKey(bound))
				}
				if fresh := compileCandidate(t, sp, q, i, nil); bound.Key() != fresh.Key() {
					t.Fatalf("%s candidate %d bound to university %d keys as\n%s\na compile for it as\n%s", q.Name, i, c, bound.Key(), fresh.Key())
				}
				if bound.Logical.Query != q || bound.Root != compiled.Root || compiled.Key() != key || compiled.Logical.Query != q0 {
					t.Fatalf("%s candidate %d: binding to university %d did not leave the compiled plan as it was", q.Name, i, c)
				}
			}
		}
	}
}

// TestKeyFirstUseConcurrent has eight goroutines ask a freshly bound
// plan for its key at once — the first use of the lazy rendering, which
// the race detector watches in CI — and holds every one of them to the
// same string, the oracle's.
func TestKeyFirstUseConcurrent(t *testing.T) {
	opts := core.Options{MaxPlans: 20000, MaxCoversPerStep: 5000}
	for _, q := range lubm.UniversityVariants(1) {
		res, err := core.Optimize(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		bound := compileCandidate(t, res.Space(), q, 0, nil).Bind(q)
		keys := make([]string, 8)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				keys[g] = bound.Key()
			}()
		}
		close(start)
		wg.Wait()
		want := oracleKey(bound)
		for g, k := range keys {
			if k != want {
				t.Fatalf("%s: goroutine %d got key\n%s\nwant\n%s", q.Name, g, k, want)
			}
		}
	}
}

// TestBindSharesTheSchedule: a bind shares everything its compile worked
// out — the operator table, the job layout, each join's merge and each
// scan's set-up — and the job names too when its query has the
// compile's Name; another Name gets names of its own. Its result-cache
// key is built once per data epoch and holds Key as its tail.
func TestBindSharesTheSchedule(t *testing.T) {
	for _, q := range lubm.UniversityVariants(1) {
		res, err := core.Optimize(q, core.Options{MaxPlans: 20000, MaxCoversPerStep: 5000})
		if err != nil {
			t.Fatal(err)
		}
		pp := compileCandidate(t, res.Space(), q, 0, nil)
		renamed := *q
		renamed.Name = "renamed"
		for _, b := range []*Plan{pp.Bind(lubm.UniversityVariants(2)[0]), pp.Bind(&renamed)} {
			if &b.Infos[0] != &pp.Infos[0] || b.rootScan != pp.rootScan || len(b.Levels) != len(pp.Levels) ||
				len(b.Levels) > 0 && &b.Levels[0] != &pp.Levels[0] {
				t.Fatalf("%s: a bind does not share its compile's schedule", q.Name)
			}
			name := b.Logical.Query.Name
			for l, n := range b.jobs {
				want := fmt.Sprintf("%s-job%d", name, l+1)
				if pp.MapOnly() {
					want = name + "-map-only"
				}
				if n != want {
					t.Errorf("%s: bound job %d is named %q, want %q", q.Name, l, n, want)
				}
			}
			if shared := &b.jobs[0] == &pp.jobs[0]; shared != (name == q.Name) {
				t.Errorf("%s: a bind for %q shares its compile's job names: %v", q.Name, name, shared)
			}
		}
		k1, again, k2 := pp.cacheKey(1), pp.cacheKey(1), pp.cacheKey(2)
		if unsafe.StringData(k1) != unsafe.StringData(again) || k1 != "1\x00"+pp.Key() || k2 != "2\x00"+pp.Key() ||
			unsafe.StringData(pp.Key()) != unsafe.StringData(k2[2:]) {
			t.Errorf("%s: the cache key is not kept per epoch with Key as its tail", q.Name)
		}
	}
}
