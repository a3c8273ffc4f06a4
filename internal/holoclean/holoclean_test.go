package holoclean

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/programs"
)

func TestRepairCleanTableIsNoOp(t *testing.T) {
	db := programs.CleanAuthorTable(500, 20, 1)
	rep, repaired, err := Repair(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoisyCells != 0 || rep.RepairedCells != 0 {
		t.Fatalf("clean table produced repairs: %+v", rep)
	}
	if repaired.Relation("Author").Len() != 500 {
		t.Fatal("row count changed")
	}
}

func TestRepairFixesOrgNameTypos(t *testing.T) {
	db := programs.CleanAuthorTable(400, 8, 2)
	// Inject pure orgname typos by hand: corrupt 10 rows' organization.
	authors := db.Relation("Author")
	tuples := authors.Tuples()
	for i := 0; i < 10; i++ {
		victim := tuples[i*7]
		vals := append([]engine.Value(nil), victim.Vals...)
		vals[3] = engine.Str(vals[3].Str + "_typo")
		authors.Delete(victim.Key())
		db.MustInsert("Author", vals...)
	}
	dcs, err := programs.DCs()
	if err != nil {
		t.Fatal(err)
	}
	perDC, totalBefore, err := ViolatingTuples(db, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if perDC[3] == 0 {
		t.Fatalf("DC4 violations expected before repair: %v", perDC)
	}
	rep, repaired, err := Repair(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// With a low error rate, every org still has a ≥90% majority, so all
	// 10 typo cells are repaired.
	if rep.RepairedTuples != 10 {
		t.Fatalf("repaired %d tuples, want 10 (report: %+v)", rep.RepairedTuples, rep)
	}
	_, totalAfter, err := ViolatingTuples(repaired, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if totalAfter != 0 {
		t.Fatalf("violations after repair = %d, want 0 (before: %d)", totalAfter, totalBefore)
	}
}

func TestRepairLeavesAidDuplicatesUnrepaired(t *testing.T) {
	db := programs.CleanAuthorTable(300, 10, 3)
	// Duplicate-aid corruption: copy another row's aid.
	authors := db.Relation("Author")
	tuples := authors.Tuples()
	victim, donor := tuples[10], tuples[200]
	vals := append([]engine.Value(nil), victim.Vals...)
	vals[0] = donor.Vals[0]
	authors.Delete(victim.Key())
	db.MustInsert("Author", vals...)

	rep, repaired, err := Repair(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-way tie on every conflicting cell: nothing clears the threshold.
	if rep.RepairedCells != 0 {
		t.Fatalf("aid duplication should not be repairable, repaired %d cells", rep.RepairedCells)
	}
	dcs, err := programs.DCs()
	if err != nil {
		t.Fatal(err)
	}
	_, totalAfter, err := ViolatingTuples(repaired, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if totalAfter == 0 {
		t.Fatal("unrepairable violation should remain (HoloClean under-repair signature)")
	}
	if rep.NoisyCells == 0 {
		t.Fatal("detection should flag the conflicting cells")
	}
}

// TestUnderRepairGrowsWithErrorRate reproduces the Table 4 signature: as
// injected errors grow, the fraction HoloClean repairs falls.
func TestUnderRepairGrowsWithErrorRate(t *testing.T) {
	rates := []int{30, 300}
	var repairedFrac []float64
	for _, errs := range rates {
		db := programs.CleanAuthorTable(2000, 20, 4)
		programs.InjectErrors(db, errs, 5)
		rep, _, err := Repair(db, Config{})
		if err != nil {
			t.Fatal(err)
		}
		repairedFrac = append(repairedFrac, float64(rep.RepairedTuples)/float64(errs))
	}
	if repairedFrac[0] <= repairedFrac[1] {
		t.Fatalf("repair fraction should fall with error rate: %v", repairedFrac)
	}
	if repairedFrac[0] < 0.3 {
		t.Fatalf("low-error repair fraction too low: %v", repairedFrac)
	}
}

// TestSemanticsAlwaysFixAllViolations vs HoloClean's residual violations:
// the Table 5 contrast.
func TestSemanticsAlwaysFixAllViolations(t *testing.T) {
	db := programs.CleanAuthorTable(500, 10, 6)
	programs.InjectErrors(db, 50, 7)
	dcs, err := programs.DCs()
	if err != nil {
		t.Fatal(err)
	}
	_, before, err := ViolatingTuples(db, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("errors must create violations")
	}
	for _, sem := range core.AllSemantics {
		_, repaired, err := core.RunWith(db, dcs, sem, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		_, after, err := ViolatingTuples(repaired, dcs)
		if err != nil {
			t.Fatal(err)
		}
		if after != 0 {
			t.Fatalf("%s left %d violating tuples", sem, after)
		}
	}
	// HoloClean leaves some.
	_, hcRepaired, err := Repair(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, after, err := ViolatingTuples(hcRepaired, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if after == 0 {
		t.Fatal("the cell-repair baseline should under-repair this workload")
	}
	if after >= before {
		t.Fatalf("repair should reduce violations: %d -> %d", before, after)
	}
}

func TestConfidenceThresholdDial(t *testing.T) {
	mk := func() *engine.Database {
		db := programs.CleanAuthorTable(200, 4, 8)
		programs.InjectErrors(db, 40, 9)
		return db
	}
	strict, _, err := Repair(mk(), Config{ConfidenceThreshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	loose, _, err := Repair(mk(), Config{ConfidenceThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if strict.RepairedCells > loose.RepairedCells {
		t.Fatalf("stricter threshold repaired more: %d vs %d", strict.RepairedCells, loose.RepairedCells)
	}
}

func TestRepairDoesNotMutateInput(t *testing.T) {
	db := programs.CleanAuthorTable(100, 5, 10)
	programs.InjectErrors(db, 10, 11)
	before := db.Relation("Author").Keys()
	if _, _, err := Repair(db, Config{}); err != nil {
		t.Fatal(err)
	}
	after := db.Relation("Author").Keys()
	if len(before) != len(after) {
		t.Fatal("input mutated")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("input mutated")
		}
	}
}
