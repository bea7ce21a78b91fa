package sparql_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/qgen"
	"cliquesquare/internal/sparql"
)

func TestCanonicalizeAlphaEquivalence(t *testing.T) {
	base := sparql.MustParse(`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <type> <Person> }`)
	variants := []*sparql.Query{
		// Renamed variables.
		sparql.MustParse(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z . ?z <type> <Person> }`),
		// Reordered patterns.
		sparql.MustParse(`SELECT ?a ?c WHERE { ?c <type> <Person> . ?b <knows> ?c . ?a <knows> ?b }`),
		// Both at once.
		sparql.MustParse(`SELECT ?p ?r WHERE { ?r <type> <Person> . ?p <knows> ?q . ?q <knows> ?r }`),
	}
	want := sparql.Canonicalize(base)
	for i, v := range variants {
		if got := sparql.Canonicalize(v); got.Key != want.Key {
			t.Errorf("variant %d: key %s != base %s", i, got.Key, want.Key)
		}
	}
}

func TestCanonicalizeNameIgnored(t *testing.T) {
	a := sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b }`)
	b := sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b }`)
	b.Name = "Q99"
	if sparql.Canonicalize(a).Key != sparql.Canonicalize(b).Key {
		t.Error("query name changed the fingerprint")
	}
}

func TestCanonicalizeConstantsLifted(t *testing.T) {
	a := sparql.MustParse(`SELECT ?x WHERE { ?x <worksFor> <acme> . ?x <type> <Person> }`)
	b := sparql.MustParse(`SELECT ?x WHERE { ?x <worksFor> <globex> . ?x <type> <Person> }`)
	if sparql.Canonicalize(a).Key == sparql.Canonicalize(b).Key {
		t.Error("different constants must yield different keys")
	}
}

// TestCanonicalizeKeyPerUniversity holds the key apart for every
// constant: each of the six LUBM templates that name a university has a
// key of its own for each university it names.
func TestCanonicalizeKeyPerUniversity(t *testing.T) {
	const universities = 100
	keys := make(map[string]map[string]bool)
	for c := 0; c < universities; c++ {
		for _, q := range lubm.UniversityVariants(c) {
			if keys[q.Name] == nil {
				keys[q.Name] = make(map[string]bool)
			}
			keys[q.Name][sparql.Canonicalize(q).Key] = true
		}
	}
	if len(keys) != 6 {
		t.Fatalf("%d templates carry a university constant, the test assumes 6", len(keys))
	}
	for name, k := range keys {
		if len(k) != universities {
			t.Errorf("%s over %d universities: %d keys, want %d", name, universities, len(k), universities)
		}
	}
}

// rewritten returns q with its patterns in the order perm gives and
// every variable renamed.
func rewritten(q *sparql.Query, perm []int) *sparql.Query {
	rename := func(pt sparql.PatternTerm) sparql.PatternTerm {
		if pt.IsVar {
			pt.Var += "_r"
		}
		return pt
	}
	out := &sparql.Query{Name: q.Name}
	for _, i := range perm {
		tp := q.Patterns[i]
		out.Patterns = append(out.Patterns, sparql.TriplePattern{S: rename(tp.S), P: rename(tp.P), O: rename(tp.O)})
	}
	for _, v := range q.Select {
		out.Select = append(out.Select, v+"_r")
	}
	return out
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestCanonicalizeSymmetries holds the two structures a coloring of
// constants by kind alone confuses — variables only the SELECT order
// tells apart, and patterns only a shared constant tells apart — to one
// key under every pattern order and a renaming of their variables, and
// to a key of its own per constant.
func TestCanonicalizeSymmetries(t *testing.T) {
	for _, tmpl := range []string{
		`SELECT ?p ?s WHERE { ?p <worksFor> ?d . ?s <memberOf> ?d . ?d <partOf> <u%d> }`,
		`SELECT ?x WHERE { ?x <type> <A> . ?z <type> <Dept> . ?z <partOf> <u%d> . ?x <worksFor> ?z }`,
	} {
		seen := make(map[string]bool)
		for c := 0; c < 10; c++ {
			q := sparql.MustParse(fmt.Sprintf(tmpl, c))
			want := sparql.Canonicalize(q).Key
			for _, perm := range permutations(len(q.Patterns)) {
				if got := sparql.Canonicalize(rewritten(q, perm)).Key; got != want {
					t.Fatalf("pattern order %v changed the key of %s", perm, q)
				}
			}
			if seen[want] {
				t.Fatalf("constant u%d shares a key with another in %s", c, tmpl)
			}
			seen[want] = true
		}
	}
}

func TestCanonicalizeDistinguishes(t *testing.T) {
	qs := []*sparql.Query{
		sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . ?b <p> ?c }`),
		// Different join structure (s-s instead of o-s).
		sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . ?a <p> ?c }`),
		// Different select variable.
		sparql.MustParse(`SELECT ?b WHERE { ?a <p> ?b . ?b <p> ?c }`),
		// Different select order.
		sparql.MustParse(`SELECT ?a ?b WHERE { ?a <p> ?b . ?b <p> ?c }`),
		sparql.MustParse(`SELECT ?b ?a WHERE { ?a <p> ?b . ?b <p> ?c }`),
		// Repeated constant vs distinct constants.
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> "v" . ?x <q> "v" }`),
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> "v" . ?x <q> "w" }`),
		// Literal vs IRI constant.
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> "v" }`),
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> <v> }`),
		// Extra pattern.
		sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d }`),
	}
	seen := make(map[string]int)
	for i, q := range qs {
		k := sparql.Canonicalize(q).Key
		if j, dup := seen[k]; dup {
			t.Errorf("queries %d and %d share a key: %s and %s", j, i, qs[j], q)
		}
		seen[k] = i
	}
}

func TestCanonicalizeDeterministic(t *testing.T) {
	q := sparql.MustParse(`SELECT ?a ?b WHERE {
		?a <p1> ?b . ?a <p2> ?c . ?d <p3> ?a . ?d <p4> ?e .
		?l <p5> ?d . ?f <p6> ?d . ?f <p7> ?g . ?g <p8> ?h }`)
	want := sparql.Canonicalize(q)
	for i := 0; i < 10; i++ {
		if got := sparql.Canonicalize(q); got.Key != want.Key {
			t.Fatalf("run %d: canonicalization not deterministic", i)
		}
	}
	// Canonicalize must not modify the query.
	if q.Patterns[0].S.Var != "a" || q.Select[0] != "a" {
		t.Error("Canonicalize mutated the query")
	}
}

// TestCanonicalKeysUnchanged pins the Key of every query in
// canonicalKeyCases to the digest recorded when the canonical encoding
// was still built in a buffer and hashed whole: hashing it as it is
// written must not change one byte of it.
func TestCanonicalKeysUnchanged(t *testing.T) {
	qs := canonicalKeyCases()
	if len(qs) != len(pinnedKeys) {
		t.Fatalf("%d cases, %d pinned keys", len(qs), len(pinnedKeys))
	}
	for i, q := range qs {
		if got := sparql.Canonicalize(q).Key; got != pinnedKeys[i] {
			t.Errorf("case %d (%s %s): key %s, pinned %s", i, q.Name, q, got, pinnedKeys[i])
		}
		if k := sparql.Key(q); string(k[:]) != pinnedKeys[i] {
			t.Errorf("case %d (%s): Key %s, pinned %s", i, q.Name, k[:], pinnedKeys[i])
		}
	}
}

// canonicalKeyCases are the queries TestCanonicalKeysUnchanged pins: the
// 14 LUBM queries, the six university templates for universities 0–2, a
// fixed-seed sample of every generator shape at 1, 4, 7 and 10 patterns,
// two more than the front end's scratch arrays hold on the stack (20
// patterns, and 50 with 51 variables), and two the others lack — escaped literals beside an IRI of more than
// 64 bytes, and a SELECT variable no pattern has (the encoding's 'u'
// branch; such a query fails Validate, so it is built by hand).
func canonicalKeyCases() []*sparql.Query {
	qs := lubm.Queries()
	for c := 0; c < 3; c++ {
		qs = append(qs, lubm.UniversityVariants(c)...)
	}
	rng := rand.New(rand.NewSource(39))
	for _, sh := range qgen.Shapes {
		for n := 1; n <= 10; n += 3 {
			qs = append(qs, qgen.Generate(sh, n, rng))
		}
	}
	qs = append(qs, qgen.Generate(qgen.Dense, 20, rng), qgen.Generate(qgen.Star, 50, rng))
	qs = append(qs, sparql.MustParse(`SELECT ?x WHERE { ?x <http://example.org/a/property/iri/that/is/longer/than/sixty/four/bytes> "a \"q\" \\ b" . ?x a <C> }`))
	odd := sparql.MustParse(`SELECT ?a WHERE { ?a <p> ?b }`)
	odd.Select = append(odd.Select, "missing")
	return append(qs, odd)
}

// pinnedKeys are canonicalKeyCases' keys, in order.
var pinnedKeys = []string{
	"201eb4d28c179e2a83ed15c2277925dd74509e4184b74c66ff7466f54a32e516", // Q1
	"2cb1dc28a97f68a3e6ed484f1e5eebbfcd6bce8d70d808bfd601b0ef755fce2a", // Q2
	"002072f9221d2fd0ba82b989c5884e6aab975538fd705190d4e8fe80bcda2520", // Q3
	"2a6b27cf3c4f4b34c586a7bee9cf6936aae042719939b76ec01f5b4db3e5aa3e", // Q4
	"f269d49ee81194000b3dae3c8e9830e795e19c42c2d282123dbfda5588b809ea", // Q5
	"1411c38a1e14782e95ccfc24477aadfa25dd6d6344aabe58df39071e5f7b612b", // Q6
	"93a885101ba8a53d62cc516bc2d7788c23efdb57f5627e066c1e4caa0ab6dfc1", // Q7
	"e5137b27564d05b426ea9f019204268e3ff93b0e2fecc7f55abc8ae4f7429d49", // Q8
	"a6a4ef2c04459d3c57c6ea6f8f1aff7ce32506feda055fc3f8cb01985d9412f9", // Q9
	"144b3adc3b57aad8328166179d601cd2573bab9f0f1ce43f76e8d15fe7fffc19", // Q10
	"6e50bd9b869562dc09112bd3627e75bd7e4327ae2a961c26fc2968e2514d77f9", // Q11
	"0e9b72a85592de205a91f258a314315f6f7fad149a939a2cac4c1a80e7b238de", // Q12
	"de7d034f636053edbfceb27c9d716ee5b97b2b17d0838fb488c1af5178c6db9d", // Q13
	"bc2569ddcf3dd4364621bcf672446248ed4d44d1be545616e62c9ea5e565e2be", // Q14
	"2cb1dc28a97f68a3e6ed484f1e5eebbfcd6bce8d70d808bfd601b0ef755fce2a", // Q2
	"002072f9221d2fd0ba82b989c5884e6aab975538fd705190d4e8fe80bcda2520", // Q3
	"2a6b27cf3c4f4b34c586a7bee9cf6936aae042719939b76ec01f5b4db3e5aa3e", // Q4
	"4cc71c49d956eefa722c7df6938fca7fcc5041357fda3f6a0ad3a406df6134d0", // Q11
	"de7d034f636053edbfceb27c9d716ee5b97b2b17d0838fb488c1af5178c6db9d", // Q13
	"5725b39ae3f21c88e53f4e4eefe4b3517fb6a11a8928f94be81c49843761fc47", // Q14
	"6cd0b4e9d8c7c537e79411b850d958658e215f1f00aca82b87def2ae23b9fd89", // Q2
	"a7483d339d72bf62dc0826e50e17e8c3b0a5108f066cf02c7ed1e6cd99fbc397", // Q3
	"79568b6342f71ea518372aee5eddf115ebabf47b591bff6c9637cb37dd6e5ef1", // Q4
	"50d3d98fc907ac473f2755320467781ebfbe7d6c6d465cd28be3d7f7a9ebe51f", // Q11
	"47e146bd64e4ab1c53f76740c6e4f111a1d0f98cf61685994cff42e4e6fd7f9a", // Q13
	"f3c64e772e1162b6135dc92e5b1e5615521fe3e05b5c3bb5402026154dae0eba", // Q14
	"4fb56dc4991a7a6f012c4a3dfdabcab12b4e8c1398fc01f6de27c9aee923ffdf", // Q2
	"13531302c21df3c5487056fd7c77f082130a9ca46fef3a9bce723cd2cc653f44", // Q3
	"24f9a96899267bc44a2d66fad6b8a1a70650a111c55c5d948f81ac4e0a1a9da6", // Q4
	"9e9b329c57affe778c230d9b20b048580c08c232b64401c0b76bbb39031ce105", // Q11
	"d629ad13582c35ce441d1c7ad7ed32cfee56ce868dc01af226f406b206dfd4ca", // Q13
	"dae0db995c3de255af09fce1b0694231fb2641e3978f9d554c3c5969cfe8f824", // Q14
	"092af95987bcc4edc9564ff7b12087d3f5f063d4252c7dae824b52abd6987f56", // Chain1
	"a317da2574bd3bacf6c4d1b1f00f805795ae461600eb194fc81126bb08804f38", // Chain4
	"0846f2ca7f3179d384e082e00e2aeeeaf1762165bab81a0801da270f753043b4", // Chain7
	"f07c5ee946c02bbe4c452bd0ae41fe0fa2829741ffc25743066f788f3e9b4d10", // Chain10
	"092af95987bcc4edc9564ff7b12087d3f5f063d4252c7dae824b52abd6987f56", // Dense1
	"e59f328b123644fdcd9c737df07206915085ffa18291a25c1a768b084e7b9dc8", // Dense4
	"904b83c1dde89fad874cd60e38b7c2caa937db4b8a379bed0a458b80f04c51d4", // Dense7
	"f050b9eb7085ff974ae1a4ae621d8e7a5c9a6aed021fb51caedb1f8b5febb6fc", // Dense10
	"092af95987bcc4edc9564ff7b12087d3f5f063d4252c7dae824b52abd6987f56", // Thin1
	"6e727e2c53e3c013236377f2c4dec5fec27e4c25ec93c6acfb05d83dedd306cd", // Thin4
	"0846f2ca7f3179d384e082e00e2aeeeaf1762165bab81a0801da270f753043b4", // Thin7
	"a67b42556c5ab0e30c6f00102b180eceebb72eb3d687e6f6cbf837715a20d3e2", // Thin10
	"092af95987bcc4edc9564ff7b12087d3f5f063d4252c7dae824b52abd6987f56", // Star1
	"e315ebde43d14cd4af82d4ce2217e17608e1963975381a487c774579bac86130", // Star4
	"215cc5fc0f8b7e707529f103b120371f120849dfb2a634353c44189e1af9655f", // Star7
	"a24677ea61c70a81e1887a2b109c9f1d7172a2b9ef892ee63804757cf27841a9", // Star10
	"82a91eb75b5365da573683bce7d3091e9b57a670a79248d2c483409ab423b093", // Dense20
	"e8160b5f453bf76d604708b8ca6c48780362f8d56d671dd12592dad04bc31624", // Star50
	"fe6729786457e524c60dba47c8bfa7206f519a9080374d5c867a474cc1f9a471",
	"c902c6cb87c4b1403ffdeb677cb4afc3a9c6d951ca92b08d8854437cdc424f6d",
}
