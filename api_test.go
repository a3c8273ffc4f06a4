package deltarepair_test

import (
	"strings"
	"testing"

	deltarepair "repro"
)

const apiSchemaSrc = `
# running example schema
Grant(gid, name)
AuthGrant:ag(aid, gid)
Author(aid, name)
Writes:w(aid, pid)
Pub:p(pid, title)
Cite:c(citing, cited)
`

const apiProgramSrc = `
(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
(1) Delta_Author(a, n) :- Author(a, n), AuthGrant(a, g), Delta_Grant(g, gn).
(2) Delta_Pub(p, t) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).
(3) Delta_Writes(a, p) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).
(4) Delta_Cite(c, p) :- Cite(c, p), Delta_Pub(p, t), Writes(a1, c), Writes(a2, p).
`

func apiDB(t testing.TB) (*deltarepair.Database, *deltarepair.Program) {
	t.Helper()
	schema, err := deltarepair.ParseSchema(apiSchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("Grant", deltarepair.Int(1), deltarepair.Str("NSF"))
	db.MustInsert("Grant", deltarepair.Int(2), deltarepair.Str("ERC"))
	db.MustInsert("AuthGrant", deltarepair.Int(2), deltarepair.Int(1))
	db.MustInsert("AuthGrant", deltarepair.Int(4), deltarepair.Int(2))
	db.MustInsert("AuthGrant", deltarepair.Int(5), deltarepair.Int(2))
	db.MustInsert("Author", deltarepair.Int(2), deltarepair.Str("Maggie"))
	db.MustInsert("Author", deltarepair.Int(4), deltarepair.Str("Marge"))
	db.MustInsert("Author", deltarepair.Int(5), deltarepair.Str("Homer"))
	db.MustInsert("Cite", deltarepair.Int(7), deltarepair.Int(6))
	db.MustInsert("Writes", deltarepair.Int(4), deltarepair.Int(6))
	db.MustInsert("Writes", deltarepair.Int(5), deltarepair.Int(7))
	db.MustInsert("Pub", deltarepair.Int(6), deltarepair.Str("x"))
	db.MustInsert("Pub", deltarepair.Int(7), deltarepair.Str("y"))
	prog, err := deltarepair.ParseProgram(apiProgramSrc, schema)
	if err != nil {
		t.Fatal(err)
	}
	return db, prog
}

func TestPublicAPIRunningExample(t *testing.T) {
	db, prog := apiDB(t)

	stable, err := deltarepair.IsStable(db, prog)
	if err != nil || stable {
		t.Fatalf("the running example is unstable, got stable=%v err=%v", stable, err)
	}

	wantSizes := map[deltarepair.Semantics]int{
		deltarepair.Independent: 3,
		deltarepair.Step:        5,
		deltarepair.Stage:       7,
		deltarepair.End:         8,
	}
	for sem, want := range wantSizes {
		res, repaired, err := deltarepair.Repair(db, prog, sem)
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if res.Size() != want {
			t.Fatalf("%s size = %d, want %d", sem, res.Size(), want)
		}
		ok, err := deltarepair.IsStable(repaired, prog)
		if err != nil || !ok {
			t.Fatalf("%s: repaired database unstable", sem)
		}
		ok, err = deltarepair.IsStabilizingSet(db, prog, res.Keys())
		if err != nil || !ok {
			t.Fatalf("%s: result not a stabilizing set", sem)
		}
	}
}

func TestPublicAPIRepairAllAndOptions(t *testing.T) {
	db, prog := apiDB(t)
	all, err := deltarepair.RepairAll(db, prog)
	if err != nil || len(all) != 4 {
		t.Fatalf("RepairAll: %v, %v", all, err)
	}
	pp, err := deltarepair.Prepare(prog, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := pp.Repair(db, deltarepair.Independent,
		deltarepair.Options{Independent: deltarepair.IndependentOptions{MaxNodes: 1000}})
	if err != nil || res.Size() != 3 {
		t.Fatalf("Prepared.Repair: %v, %v", res, err)
	}
	if len(deltarepair.AllSemantics) != 4 {
		t.Fatal("AllSemantics should list 4 semantics")
	}
}

func TestParseSchemaForms(t *testing.T) {
	s, err := deltarepair.ParseSchema("R(a, b)\nS:sx(c) # trailing comment\n% comment line\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Relation("S").IDPrefix != "sx" {
		t.Fatalf("prefix = %q", s.Relation("S").IDPrefix)
	}
	if s.Relation("R").Arity() != 2 {
		t.Fatal("R arity wrong")
	}
	bad := []string{
		"",           // empty
		"R a, b",     // no parens
		"R(a,)",      // empty attr
		"R(a)\nR(b)", // duplicate
		"(a, b)",     // no name
	}
	for _, src := range bad {
		if _, err := deltarepair.ParseSchema(src); err == nil {
			t.Errorf("ParseSchema(%q) should fail", src)
		}
	}
}

func TestValueConstructors(t *testing.T) {
	if deltarepair.Int(3).Int != 3 || deltarepair.Int64(4).Int != 4 {
		t.Fatal("int constructors wrong")
	}
	if deltarepair.Str("x").Str != "x" {
		t.Fatal("string constructor wrong")
	}
	if deltarepair.Float(2.5).Flt != 2.5 {
		t.Fatal("float constructor wrong")
	}
}

func TestResultReporting(t *testing.T) {
	db, prog := apiDB(t)
	res, _, err := deltarepair.Repair(db, prog, deltarepair.Independent)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "independent") {
		t.Fatalf("result string: %q", res.String())
	}
	by := res.ByRelation()
	if by["AuthGrant"] != 2 || by["Grant"] != 1 {
		t.Fatalf("ByRelation = %v", by)
	}
}
