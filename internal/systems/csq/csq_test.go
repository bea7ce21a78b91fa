package csq

import (
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/partition"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 7 {
		t.Errorf("Nodes = %d, want 7 (the paper's cluster)", cfg.Nodes)
	}
	if cfg.Method != vargraph.MSC {
		t.Errorf("Method = %v, want MSC", cfg.Method)
	}
	if cfg.Partitioning != partition.ThreeReplica {
		t.Errorf("Partitioning = %v, want three-replica", cfg.Partitioning)
	}
}

func TestPlanFailsWhenVariantFindsNoPlan(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	cfg := DefaultConfig()
	cfg.Method = vargraph.XCPlus // fails on chain-shaped queries
	eng := New(g, cfg)
	q := sparql.MustParse(`PREFIX ub: <` + lubm.NS + `>
		SELECT ?x WHERE { ?x ub:memberOf ?d . ?d ub:subOrganizationOf ?u . ?u ub:name ?n }`)
	q.Name = "chain3"
	if _, err := eng.Prepare(q); err == nil {
		t.Error("Prepare succeeded although XC+ finds no plan for a 3-chain")
	}
}

func TestSubjectOnlyEngineAgreesWithDefault(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(2))
	q, err := lubm.Query("Q7")
	if err != nil {
		t.Fatal(err)
	}
	def := New(g, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Partitioning = partition.SubjectOnly
	subj := New(g, cfg)

	rd, err := def.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := subj.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Rows != rs.Rows {
		t.Errorf("subject-only returned %d rows, three-replica %d", rs.Rows, rd.Rows)
	}
	if rs.Time < rd.Time {
		t.Errorf("subject-only (%0.f) faster than three-replica (%0.f); lost co-location should cost",
			rs.Time, rd.Time)
	}
}

func TestEngineAccessors(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := New(g, DefaultConfig())
	if eng.Name() != "CSQ" {
		t.Errorf("Name = %q", eng.Name())
	}
	if eng.Dict() != g.Dict || eng.Graph().Dict != g.Dict || eng.Graph().Len() != 0 {
		t.Error("Dict / the Graph shim lost the dictionary, or the shim holds triples")
	}
}
