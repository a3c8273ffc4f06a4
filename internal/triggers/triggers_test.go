package triggers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
)

func tinyMAS(t *testing.T) *mas.Dataset {
	t.Helper()
	return mas.Generate(mas.Config{Scale: 0.01, Seed: 11})
}

func masProgram(t *testing.T, ds *mas.Dataset, n int) *datalog.Program {
	t.Helper()
	p, err := programs.MAS(n, ds)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileClassifiesStatementsAndTriggers(t *testing.T) {
	ds := tinyMAS(t)
	p := masProgram(t, ds, 5) // rule 1: condition; rule 2: cascade on Author
	trigs, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trigs) != 2 {
		t.Fatalf("triggers = %d, want 2", len(trigs))
	}
	if !trigs[0].IsStatement() {
		t.Fatal("rule 1 should compile to a statement")
	}
	if trigs[1].IsStatement() || trigs[1].EventRel != "Author" {
		t.Fatalf("rule 2 should be an AFTER DELETE ON Author trigger, got %+v", trigs[1])
	}
}

func TestCompileRejectsMultiDeltaRules(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	s.MustAddRelation("S", "s", "a")
	p, err := datalog.ParseAndValidate(`
Delta_R(x) :- R(x), Delta_S(x), Delta_R(y), x != y.
`, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, nil); err == nil {
		t.Fatal("multi-delta rule should not compile to a trigger")
	}
}

func TestCompileNameValidation(t *testing.T) {
	ds := tinyMAS(t)
	p := masProgram(t, ds, 5)
	if _, err := Compile(p, []string{"only_one"}); err == nil {
		t.Fatal("wrong name count should error")
	}
	trigs, err := Compile(p, []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if trigs[0].Name != "b" || trigs[1].Name != "a" {
		t.Fatal("explicit names not applied")
	}
	// Unvalidated rules are rejected.
	raw := datalog.MustParse("Delta_R(x) :- R(x).")
	if _, err := Compile(raw, nil); err == nil {
		t.Fatal("unvalidated program should not compile")
	}
}

// TestProgram4OrderAnomaly reproduces the paper's program-4 observation:
// with the Author-deleting statement ordered first (PostgreSQL alphabetical
// order on names), all Author tuples of the organization are deleted and
// the Organization tuple survives; with the Organization statement first
// (MySQL creation order in this arrangement), one Organization tuple is
// deleted and the authors survive.
func TestProgram4OrderAnomaly(t *testing.T) {
	ds := tinyMAS(t)
	p := masProgram(t, ds, 4)
	// Rule 0 deletes Authors, rule 1 deletes the Organization. Name them so
	// the Author statement sorts first alphabetically, while creation order
	// starts with the Organization statement.
	reordered := datalog.NewProgram(p.Rules[1], p.Rules[0]) // org first by creation
	if err := reordered.Validate(mas.Schema()); err != nil {
		t.Fatal(err)
	}
	trigs, err := Compile(reordered, []string{"z_delete_org", "a_delete_authors"})
	if err != nil {
		t.Fatal(err)
	}

	pg, pgDB, err := Execute(ds.DB, trigs, Alphabetical)
	if err != nil {
		t.Fatal(err)
	}
	// Alphabetical: a_delete_authors first -> all hub-org authors die, the
	// org statement then finds no matching author and deletes nothing.
	if pg.Size() != ds.HubOrgAuthors {
		t.Fatalf("PostgreSQL-order deleted %d tuples, want %d authors", pg.Size(), ds.HubOrgAuthors)
	}
	if pgDB.Relation("Organization").Len() != ds.NumOrganizations {
		t.Fatal("PostgreSQL-order should keep the Organization tuple")
	}

	my, myDB, err := Execute(ds.DB, trigs, CreationOrder)
	if err != nil {
		t.Fatal(err)
	}
	// Creation order: z_delete_org first -> one Organization tuple dies,
	// the author statement then finds no organization and deletes nothing.
	if my.Size() != 1 {
		t.Fatalf("MySQL-order deleted %d tuples, want 1 organization", my.Size())
	}
	if myDB.Relation("Author").Len() != ds.NumAuthors {
		t.Fatal("MySQL-order should keep all authors")
	}

	// The paper's point: step semantics achieves the size-1 repair
	// regardless of naming or creation order.
	step, _, err := core.RunWith(ds.DB, p, core.SemStep, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if step.Size() != 1 {
		t.Fatalf("step size = %d, want 1", step.Size())
	}
}

// TestProgram8CreationOrderDependence reproduces the MySQL observation:
// with the Author rule created before the Writes rule, the author and its
// publications are deleted; reversed, the writes and publications are.
func TestProgram8CreationOrderDependence(t *testing.T) {
	ds := tinyMAS(t)
	p := masProgram(t, ds, 8)

	// Original creation order: rule1 (Author), rule2 (Writes), cascades 3, 4.
	trigs, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	authorFirst, _, err := Execute(ds.DB, trigs, CreationOrder)
	if err != nil {
		t.Fatal(err)
	}
	byRel := map[string]int{}
	for _, tup := range authorFirst.Deleted {
		byRel[tup.Rel]++
	}
	if byRel["Author"] != 1 || byRel["Publication"] == 0 || byRel["Writes"] != 0 {
		t.Fatalf("author-first: deleted %v, want author + its publications", byRel)
	}

	// Reversed creation order of the two statements: Writes deleted first;
	// the Author statement then fails (its body needs a live Writes tuple),
	// and rule 3 cascades to the publications.
	reversed := datalog.NewProgram(p.Rules[1], p.Rules[0], p.Rules[2], p.Rules[3])
	if err := reversed.Validate(mas.Schema()); err != nil {
		t.Fatal(err)
	}
	trigs2, err := Compile(reversed, nil)
	if err != nil {
		t.Fatal(err)
	}
	writesFirst, _, err := Execute(ds.DB, trigs2, CreationOrder)
	if err != nil {
		t.Fatal(err)
	}
	byRel2 := map[string]int{}
	for _, tup := range writesFirst.Deleted {
		byRel2[tup.Rel]++
	}
	if byRel2["Writes"] == 0 || byRel2["Publication"] == 0 || byRel2["Author"] != 0 {
		t.Fatalf("writes-first: deleted %v, want writes + publications", byRel2)
	}
}

// TestProgram5TriggersMatchSemantics: for the pure cascade program 5, the
// trigger result equals all four semantics (the paper's observation).
func TestProgram5TriggersMatchSemantics(t *testing.T) {
	ds := tinyMAS(t)
	p := masProgram(t, ds, 5)
	trigs, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{Alphabetical, CreationOrder} {
		res, _, err := Execute(ds.DB, trigs, pol)
		if err != nil {
			t.Fatal(err)
		}
		endRes, _, err := core.RunWith(ds.DB, p, core.SemEnd, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != endRes.Size() {
			t.Fatalf("%v: trigger result %d != semantics %d", pol, res.Size(), endRes.Size())
		}
	}
}

// TestProgram20TriggersMatchSemantics: the deep cascade chain also agrees
// with the four semantics (paper: "the same number of tuples were deleted
// by the PostgreSQL triggers as for the four semantics").
func TestProgram20TriggersMatchSemantics(t *testing.T) {
	ds := tinyMAS(t)
	p := masProgram(t, ds, 20)
	trigs, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, triggeredDB, err := Execute(ds.DB, trigs, Alphabetical)
	if err != nil {
		t.Fatal(err)
	}
	endRes, _, err := core.RunWith(ds.DB, p, core.SemEnd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != endRes.Size() {
		t.Fatalf("trigger result %d != end semantics %d", res.Size(), endRes.Size())
	}
	// The trigger-repaired database is stable w.r.t. the program.
	stable, err := core.CheckStable(triggeredDB, p, core.Options{})
	if err != nil || !stable {
		t.Fatalf("trigger result should stabilize the cascade program: %v %v", stable, err)
	}
	if res.Fired["t0_Organization"] != 1 {
		t.Fatalf("firing counts missing: %v", res.Fired)
	}
}

// TestExecuteDoesNotMutateInput verifies clone semantics and determinism.
func TestExecuteDoesNotMutateInput(t *testing.T) {
	ds := tinyMAS(t)
	before := ds.DB.TotalTuples()
	p := masProgram(t, ds, 10)
	trigs, err := Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Execute(ds.DB, trigs, Alphabetical)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Execute(ds.DB, trigs, Alphabetical)
	if err != nil {
		t.Fatal(err)
	}
	if ds.DB.TotalTuples() != before || ds.DB.TotalDeltaTuples() != 0 {
		t.Fatal("Execute mutated the input database")
	}
	if a.Size() != b.Size() {
		t.Fatalf("nondeterministic execution: %d vs %d", a.Size(), b.Size())
	}
	ka, kb := a.Keys(), b.Keys()
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("deletion order differs at %d", i)
		}
	}
	if Alphabetical.String() == "" || CreationOrder.String() == "" || Policy(9).String() == "" {
		t.Fatal("policy names must render")
	}
}
