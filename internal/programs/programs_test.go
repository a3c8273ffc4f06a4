package programs

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/tpch"
)

func tinyMAS(t *testing.T) *mas.Dataset {
	t.Helper()
	return mas.Generate(mas.Config{Scale: 0.01, Seed: 11})
}

func tinyTPCH(t *testing.T) *tpch.Dataset {
	t.Helper()
	return tpch.Generate(tpch.Config{Scale: 0.01, Seed: 11})
}

func TestAllMASProgramsValidate(t *testing.T) {
	ds := tinyMAS(t)
	ps := make(map[int]*datalog.Program)
	for n := 1; n <= 20; n++ {
		p, err := MAS(n, ds)
		if err != nil {
			t.Fatalf("program %d: %v", n, err)
		}
		ps[n] = p
	}
	// Rule counts per Table 1 (with the 16-20 prefix normalization).
	wantRules := map[int]int{
		1: 2, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 4, 10: 4,
		11: 1, 12: 1, 13: 1, 14: 1, 15: 1, 16: 1, 17: 2, 18: 3, 19: 4, 20: 5,
	}
	for n, want := range wantRules {
		if got := len(ps[n].Rules); got != want {
			t.Errorf("program %d: %d rules, want %d", n, got, want)
		}
	}
	if _, err := MAS(0, ds); err == nil {
		t.Error("program 0 should be rejected")
	}
	if _, err := MAS(21, ds); err == nil {
		t.Error("program 21 should be rejected")
	}
}

func TestAllTPCHProgramsValidate(t *testing.T) {
	ds := tinyTPCH(t)
	wantRules := map[int]int{1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}
	for n, want := range wantRules {
		p, err := TPCH(n, ds)
		if err != nil {
			t.Fatalf("program T-%d: %v", n, err)
		}
		if got := len(p.Rules); got != want {
			t.Errorf("program T-%d: %d rules, want %d", n, got, want)
		}
	}
	if _, err := TPCH(0, ds); err == nil {
		t.Error("program T-0 should be rejected")
	}
	if _, err := TPCH(7, ds); err == nil {
		t.Error("program T-7 should be rejected")
	}
}

func TestProgramClasses(t *testing.T) {
	wantDC := []int{1, 2, 3, 4, 11, 12, 13, 14, 15}
	for _, n := range wantDC {
		if MASClass(n) != ClassDC {
			t.Errorf("program %d should be DC-class, got %v", n, MASClass(n))
		}
	}
	wantCascade := []int{5, 9, 10, 16, 17, 18, 19, 20}
	for _, n := range wantCascade {
		if MASClass(n) != ClassCascade {
			t.Errorf("program %d should be cascade-class, got %v", n, MASClass(n))
		}
	}
	for _, n := range []int{6, 7, 8} {
		if MASClass(n) != ClassMixed {
			t.Errorf("program %d should be mixed-class, got %v", n, MASClass(n))
		}
	}
	for n := 1; n <= 3; n++ {
		if TPCHClass(n) != ClassCascade {
			t.Errorf("T-%d should be cascade-class", n)
		}
	}
	for n := 4; n <= 6; n++ {
		if TPCHClass(n) != ClassMixed {
			t.Errorf("T-%d should be mixed-class", n)
		}
	}
	if ClassDC.String() == "" || ClassCascade.String() == "" || ClassMixed.String() == "" || Class(9).String() == "" {
		t.Error("class names must render")
	}
}

// TestProgram4Semantics checks the paper's program-4 story: end and stage
// delete the organization plus all its authors, step and independent delete
// a single tuple.
func TestProgram4Semantics(t *testing.T) {
	ds := tinyMAS(t)
	p, err := MAS(4, ds)
	if err != nil {
		t.Fatal(err)
	}
	end, _, err := core.RunWith(ds.DB, p, core.SemEnd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if end.Size() != ds.HubOrgAuthors+1 {
		t.Fatalf("end size = %d, want %d (org + its authors)", end.Size(), ds.HubOrgAuthors+1)
	}
	step, _, err := core.RunWith(ds.DB, p, core.SemStep, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if step.Size() != 1 || step.Deleted[0].Rel != "Organization" {
		t.Fatalf("step = %v, want single Organization tuple", step.Keys())
	}
	ind, _, err := core.RunWith(ds.DB, p, core.SemIndependent, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Size() != 1 {
		t.Fatalf("ind size = %d, want 1", ind.Size())
	}
}

// TestProgram2IndependentNotContained checks the Table 3 story for program
// 2: Ind deletes the single Author tuple, which is not derivable, so
// Ind ⊄ Stage and Ind ⊄ Step.
func TestProgram2IndependentNotContained(t *testing.T) {
	ds := tinyMAS(t)
	p, err := MAS(2, ds)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.RunAll(ds.DB, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ind := rs[core.SemIndependent]
	if ind.Size() != 1 || ind.Deleted[0].Rel != "Author" {
		t.Fatalf("ind = %v, want the single hub Author tuple", ind.Keys())
	}
	c := core.CheckContainment(rs)
	if c.IndInStage || c.IndInStep {
		t.Fatalf("Ind should not be contained for program 2: %+v", c)
	}
	if !c.StepEqStage {
		t.Fatalf("Step = Stage should hold for program 2: %+v", c)
	}
	// Stage/end delete the hub author's Writes tuples.
	if rs[core.SemStage].Size() != ds.HubAuthorWrites {
		t.Fatalf("stage size = %d, want %d", rs[core.SemStage].Size(), ds.HubAuthorWrites)
	}
}

// TestProgram8SeparatesStepAndStage checks the Prop. 3.20-based design of
// program 8: step and stage produce same-size but different results.
func TestProgram8SeparatesStepAndStage(t *testing.T) {
	ds := tinyMAS(t)
	p, err := MAS(8, ds)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.RunAll(ds.DB, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := core.CheckContainment(rs)
	if c.StepEqStage {
		t.Fatalf("program 8 must separate step from stage: step=%v stage=%v",
			rs[core.SemStep].Keys(), rs[core.SemStage].Keys())
	}
	// Stage = author + writes; step = author + publications.
	stageBy := rs[core.SemStage].ByRelation()
	stepBy := rs[core.SemStep].ByRelation()
	if stageBy["Publication"] != 0 {
		t.Fatalf("stage should not delete publications: %v", stageBy)
	}
	if stepBy["Publication"] == 0 || stepBy["Writes"] != 0 {
		t.Fatalf("step should delete publications, not writes: %v", stepBy)
	}
}

// TestPrograms16To20Cascade: all four semantics coincide on the pure
// cascade chain, growing with the prefix length (Figure 6c's shape).
func TestPrograms16To20Cascade(t *testing.T) {
	ds := tinyMAS(t)
	prevEnd := -1
	for n := 16; n <= 20; n++ {
		p, err := MAS(n, ds)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := core.RunAll(ds.DB, p, core.Options{})
		if err != nil {
			t.Fatalf("program %d: %v", n, err)
		}
		end := rs[core.SemEnd]
		for _, sem := range []core.Semantics{core.SemStage, core.SemStep, core.SemIndependent} {
			if !rs[sem].SameSet(end) {
				t.Fatalf("program %d: %s (%d tuples) differs from end (%d)",
					n, sem, rs[sem].Size(), end.Size())
			}
		}
		if end.Size() < prevEnd {
			t.Fatalf("program %d: cascade shrank: %d < %d", n, end.Size(), prevEnd)
		}
		prevEnd = end.Size()
	}
}

// TestPrograms11To15IndependentShrinks: with more joins, independent
// semantics can shift deletions to smaller join partners (Figure 6b).
func TestPrograms11To15IndependentShrinks(t *testing.T) {
	ds := tinyMAS(t)
	var endSizes, indSizes []int
	for n := 11; n <= 15; n++ {
		p, err := MAS(n, ds)
		if err != nil {
			t.Fatal(err)
		}
		end, _, err := core.RunWith(ds.DB, p, core.SemEnd, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ind, _, err := core.RunWith(ds.DB, p, core.SemIndependent, core.Options{Independent: core.IndependentOptions{MaxNodes: 200000}})
		if err != nil {
			t.Fatal(err)
		}
		endSizes = append(endSizes, end.Size())
		indSizes = append(indSizes, ind.Size())
	}
	// Program 11 deletes every Cite tuple under both.
	if indSizes[0] != endSizes[0] {
		t.Fatalf("program 11: ind %d != end %d", indSizes[0], endSizes[0])
	}
	// By program 15 the independent result must be strictly smaller.
	if indSizes[4] >= endSizes[4] {
		t.Fatalf("program 15: ind %d should beat end %d", indSizes[4], endSizes[4])
	}
	// Non-increasing from 12 on (the paper's observed trend).
	for i := 1; i < len(indSizes); i++ {
		if indSizes[i] > indSizes[i-1] {
			t.Fatalf("ind sizes should not grow with joins: %v", indSizes)
		}
	}
}

func TestRunningExampleProgramFixture(t *testing.T) {
	db := RunningExampleDB()
	p, err := RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.RunAll(db, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[core.Semantics]int{
		core.SemIndependent: 3, core.SemStep: 5, core.SemStage: 7, core.SemEnd: 8,
	}
	for sem, want := range sizes {
		if rs[sem].Size() != want {
			t.Fatalf("%s size = %d, want %d", sem, rs[sem].Size(), want)
		}
	}
}

func TestDCProgram(t *testing.T) {
	p, err := DCs()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("DC rules = %d, want 4", len(p.Rules))
	}
	if !strings.Contains(DCSource, "o1 != o2") {
		t.Error("DC1 inequality missing")
	}
}

func TestCleanAuthorTableIsStable(t *testing.T) {
	db := CleanAuthorTable(200, 10, 1)
	p, err := DCs()
	if err != nil {
		t.Fatal(err)
	}
	stable, err := core.CheckStable(db, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("clean table must satisfy all DCs")
	}
	if db.Relation("Author").Len() != 200 {
		t.Fatalf("rows = %d, want 200", db.Relation("Author").Len())
	}
}

func TestInjectErrorsCreatesViolations(t *testing.T) {
	db := CleanAuthorTable(300, 10, 1)
	corrupted := InjectErrors(db, 30, 2)
	if len(corrupted) != 30 {
		t.Fatalf("injected %d errors, want 30", len(corrupted))
	}
	if db.Relation("Author").Len() != 300 {
		t.Fatalf("rows changed: %d", db.Relation("Author").Len())
	}
	p, err := DCs()
	if err != nil {
		t.Fatal(err)
	}
	stable, err := core.CheckStable(db, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Fatal("corrupted table must violate some DC")
	}
	// Each corrupted key must exist in the table.
	for _, k := range corrupted {
		if !db.Relation("Author").Contains(k) {
			t.Fatalf("corrupted key %s missing", k)
		}
	}
	// Independent semantics repairs with roughly one deletion per error
	// (it may need slightly more when donor rows themselves conflict).
	ind, _, err := core.RunWith(db, p, core.SemIndependent, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Size() < 25 || ind.Size() > 45 {
		t.Fatalf("ind repairs %d deletions for 30 errors", ind.Size())
	}
}

func TestInjectErrorsDeterministic(t *testing.T) {
	a := CleanAuthorTable(100, 5, 3)
	b := CleanAuthorTable(100, 5, 3)
	ka := InjectErrors(a, 10, 9)
	kb := InjectErrors(b, 10, 9)
	if len(ka) != len(kb) {
		t.Fatal("determinism broken: different counts")
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("determinism broken at %d: %s vs %s", i, ka[i], kb[i])
		}
	}
}

// TestMASSourceRoundTrip: every program's source reparses to itself.
func TestMASSourceRoundTrip(t *testing.T) {
	ds := tinyMAS(t)
	for n := 1; n <= 20; n++ {
		src, err := MASSource(n, ds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := datalog.Parse(src); err != nil {
			t.Fatalf("program %d source does not reparse: %v", n, err)
		}
	}
	for n := 1; n <= 6; n++ {
		tds := tinyTPCH(t)
		src, err := TPCHSource(n, tds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := datalog.Parse(src); err != nil {
			t.Fatalf("program T-%d source does not reparse: %v", n, err)
		}
	}
}

// TestTPCHProgramsSmoke runs all semantics on a tiny TPC-H instance and
// checks basic stabilization plus the T-5 step-vs-stage separation the
// paper reports (step deletes the smaller of suppliers/customers).
func TestTPCHProgramsSmoke(t *testing.T) {
	ds := tinyTPCH(t)
	for n := 1; n <= 6; n++ {
		p, err := TPCH(n, ds)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := core.RunAll(ds.DB, p, core.Options{})
		if err != nil {
			t.Fatalf("T-%d: %v", n, err)
		}
		for sem, res := range rs {
			if ok, err := core.IsStabilizing(ds.DB, p, res.Keys()); err != nil || !ok {
				t.Fatalf("T-%d %s: not stabilizing (%v)", n, sem, err)
			}
		}
		c := core.CheckContainment(rs)
		if !c.StageInEnd || !c.StepInEnd || !c.IndLeStage {
			t.Fatalf("T-%d: containment violated: %+v", n, c)
		}
	}
	// T-5: both nation-cascade rules share a body; step picks the cheaper
	// side, so Step ≤ Stage and typically strictly smaller.
	p5, _ := TPCH(5, ds)
	rs, err := core.RunAll(ds.DB, p5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs[core.SemStep].Size() > rs[core.SemStage].Size() {
		t.Fatalf("T-5: step %d > stage %d", rs[core.SemStep].Size(), rs[core.SemStage].Size())
	}
	_ = engine.Int(0) // keep engine import for the helper below
}
