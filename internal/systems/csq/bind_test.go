package csq

import (
	"reflect"
	"strings"
	"testing"

	"cliquesquare/internal/core"
	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
)

// TestCompileOncePerCandidate: cold prepares of the six university
// templates over twenty universities enumerate each shape once and
// compile each (shape, chosen candidate, SELECT list) once; every other
// prepare binds the compiled candidate — its operators shared, its key
// its own.
func TestCompileOncePerCandidate(t *testing.T) {
	const universities = 20
	lc := lubm.DefaultConfig(universities)
	lc.DeptsPerUniv, lc.Undergrads, lc.Grads = 1, 8, 4
	eng := New(lubm.Generate(lc), DefaultConfig())
	type candidate struct {
		shape string
		idx   int
		sel   string
	}
	first := make(map[candidate]*Prepared)
	prepares := 0
	for c := 0; c < universities; c++ {
		for _, q := range coldTemplates(t, c) {
			p, hit, err := eng.PrepareCached(q)
			if err != nil || hit {
				t.Fatalf("%s for university %d: hit=%v err=%v, want a cold prepare", q.Name, c, hit, err)
			}
			prepares++
			k := candidate{core.WrittenShape(q), p.chosenIdx, strings.Join(q.Select, ",")}
			f, ok := first[k]
			if !ok {
				first[k] = p
				continue
			}
			if p.Physical.Root != f.Physical.Root || p.Physical.Logical.Root != f.Physical.Logical.Root {
				t.Errorf("%s for university %d: candidate %d was compiled again", q.Name, c, p.chosenIdx)
			}
			if p.Physical.Key() == f.Physical.Key() || p.Physical.Logical.Query != q {
				t.Errorf("%s for university %d: bound plan keeps the constants of its first query", q.Name, c)
			}
		}
	}
	us := eng.UpdateStats()
	if us.Enumerations != 6 || us.Compiles != uint64(len(first)) {
		t.Errorf("%d cold prepares of 6 shapes choosing %d distinct candidates: %d enumerations and %d compiles, want 6 and %d",
			prepares, len(first), us.Enumerations, us.Compiles, len(first))
	}
	if len(first) >= prepares/2 {
		t.Errorf("%d distinct candidates over %d prepares: too few binds for the test to mean anything", len(first), prepares)
	}
}

// TestBoundPlansKeepConstantsApart runs pairs of queries that share a
// written shape, a chosen candidate and so one compiled plan — differing
// only in an rdf:type class, a university IRI, or a property — through
// one engine, interleaved, so that the bound plans of a pair meet in the
// same pooled context. At one and two lanes, with the result cache off
// and on, each must key, answer and meter as a plan freshPrepare
// compiles for its own query. One more pair, on an engine of its own,
// guards the compiled schedule against dictionary ids (checkLateConstant).
func TestBoundPlansKeepConstantsApart(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))
	pairs := [][2]string{
		{
			`SELECT ?X ?Z WHERE { ?X a ub:GraduateStudent . ?X ub:memberOf ?Z . ?Z ub:subOrganizationOf ?U }`,
			`SELECT ?X ?Z WHERE { ?X a ub:UndergraduateStudent . ?X ub:memberOf ?Z . ?Z ub:subOrganizationOf ?U }`,
		},
		{
			`SELECT ?X ?Y WHERE { ?X ub:worksFor ?Y . ?X ub:name ?N . ?Y ub:subOrganizationOf <` + lubm.UniversityIRI(0) + `> }`,
			`SELECT ?X ?Y WHERE { ?X ub:worksFor ?Y . ?X ub:name ?N . ?Y ub:subOrganizationOf <` + lubm.UniversityIRI(1) + `> }`,
		},
		{
			`SELECT ?X ?Y WHERE { ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf ?U }`,
			`SELECT ?X ?Y WHERE { ?X ub:memberOf ?Y . ?Y ub:subOrganizationOf ?U }`,
		},
	}
	var qs []*sparql.Query // pair members interleaved: a1 b1 c1 a2 b2 c2
	for member := 0; member < 2; member++ {
		for i, pair := range pairs {
			q := sparql.MustParse("PREFIX ub: <" + lubm.NS + ">\n" + pair[member])
			q.Name = string(rune('A'+i)) + string(rune('1'+member))
			qs = append(qs, q)
		}
	}
	ref := New(g, DefaultConfig())
	for _, lanes := range []int{1, 2} {
		for _, resBytes := range []int64{0, 64 << 20} {
			cfg := DefaultConfig()
			cfg.Parallelism, cfg.ResultCacheBytes = lanes, resBytes
			eng := New(g, cfg)
			for round := 0; round < 2; round++ {
				for _, q := range qs {
					p, _, err := eng.PrepareCached(q)
					if err != nil {
						t.Fatal(err)
					}
					want := freshPrepare(t, ref, q)
					got, err := eng.ExecutePrepared(p)
					if err != nil {
						t.Fatal(err)
					}
					wantRes, err := ref.ExecutePrepared(want)
					if err != nil {
						t.Fatal(err)
					}
					if p.Physical.Key() != want.Physical.Key() || !reflect.DeepEqual(got.Rows, wantRes.Rows) || !reflect.DeepEqual(got.Jobs, wantRes.Jobs) {
						t.Errorf("lanes %d, result cache %d B, round %d, %s: key, rows (%d vs %d) or JobStats differ from a fresh prepare's",
							lanes, resBytes, round, q.Name, len(got.Rows), len(wantRes.Rows))
					}
				}
			}
			// Each pair shares its compiled plan, and the answers differ:
			// otherwise the test would not test binding.
			ps := prepareAll(t, eng, qs)
			for i := range pairs {
				a, b := ps[i], ps[len(pairs)+i]
				if a.Physical.Root != b.Physical.Root {
					t.Fatalf("%s and %s chose different candidates; the test assumes one shared compile", a.Query.Name, b.Query.Name)
				}
				ra, err := eng.ExecutePrepared(a)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := eng.ExecutePrepared(b)
				if err != nil {
					t.Fatal(err)
				}
				if reflect.DeepEqual(ra.Rows, rb.Rows) {
					t.Fatalf("%s and %s answer alike; the test assumes their constants matter", a.Query.Name, b.Query.Name)
				}
			}
			eng.Close()
			checkLateConstant(t, cfg)
		}
	}
}

// checkLateConstant runs a pair whose constant is absent from the
// dictionary when its plan is bound: the absent member is prepared
// first, so it compiles the plan the pair shares, and answers nothing;
// then a commit introduces its constant — every department of
// university 0 becomes one of university 9 too — and the same bound plan
// runs again. Its rows and JobStats must equal a fresh prepare's over
// the final data, on an engine loaded with it, and be non-empty: a
// compile-time table that captured a dictionary id, or its absence,
// would answer as before the commit.
func checkLateConstant(t *testing.T, cfg Config) {
	t.Helper()
	g := lubm.Generate(lubm.DefaultConfig(2))
	eng := New(g, cfg)
	defer eng.Close()
	parse := func(univ int, name string) *sparql.Query {
		q := sparql.MustParse("PREFIX ub: <" + lubm.NS + ">\n" +
			`SELECT ?X ?Y WHERE { ?X ub:worksFor ?Y . ?X ub:name ?N . ?Y ub:subOrganizationOf <` + lubm.UniversityIRI(univ) + `> }`)
		q.Name = name
		return q
	}
	late, known := parse(9, "late"), parse(0, "known")
	if _, ok := g.Dict.Lookup(rdf.NewIRI(lubm.UniversityIRI(9))); ok {
		t.Fatal("university 9 is in the dictionary before the commit")
	}
	ps := prepareAll(t, eng, []*sparql.Query{late, known})
	if ps[0].Physical.Root != ps[1].Physical.Root {
		t.Fatalf("lanes %d, result cache %d B: the late and known queries chose different candidates; the check assumes one shared compile",
			cfg.Parallelism, cfg.ResultCacheBytes)
	}
	if r, err := eng.ExecutePrepared(ps[0]); err != nil || len(r.Rows) != 0 {
		t.Fatalf("before the commit the late query answered %v rows (err %v), want none", r, err)
	}
	sub, u0 := g.Dict.EncodeIRI(lubm.PropSubOrgOf), g.Dict.EncodeIRI(lubm.UniversityIRI(0))
	u9 := g.Dict.EncodeIRI(lubm.UniversityIRI(9))
	var ins []rdf.Triple
	for _, tr := range g.Triples() {
		if tr.P == sub && tr.O == u0 {
			ins = append(ins, rdf.Triple{S: tr.S, P: sub, O: u9})
		}
	}
	if _, err := eng.ApplyBatch(ins, nil); err != nil {
		t.Fatal(err)
	}
	mutate(g, ins, nil)
	got, err := eng.ExecutePrepared(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	ref := New(g, DefaultConfig())
	defer ref.Close()
	want, err := ref.ExecutePrepared(freshPrepare(t, ref, late))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Errorf("lanes %d, result cache %d B: after the commit the bound plan answers %d rows, a fresh prepare %d, or their JobStats differ:\n got %+v\nwant %+v",
			cfg.Parallelism, cfg.ResultCacheBytes, len(got.Rows), len(want.Rows), got.Jobs, want.Jobs)
	}
}
