package core

import (
	"testing"
	"testing/quick"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// multiDeltaProgram exercises the subtle part of the seminaive pass
// structure: a rule with TWO delta body atoms, where an assignment may
// combine one old and one frontier delta in either order.
func multiDeltaProgram(t *testing.T) (*engine.Database, *datalog.Program) {
	t.Helper()
	s := engine.NewSchema()
	s.MustAddRelation("A", "a", "v")
	s.MustAddRelation("B", "b", "v")
	s.MustAddRelation("Pair", "p", "x", "y")
	db := engine.NewDatabase(s)
	for i := 1; i <= 4; i++ {
		db.MustInsert("A", engine.Int(i))
		db.MustInsert("B", engine.Int(i))
	}
	for x := 1; x <= 4; x++ {
		for y := 1; y <= 4; y++ {
			db.MustInsert("Pair", engine.Int(x), engine.Int(y))
		}
	}
	// A and B tuples fall in different rounds (B depends on A), and Pair
	// needs BOTH deltas: pairs become deletable only when their A-side and
	// B-side have fallen — possibly in different rounds.
	p, err := datalog.ParseAndValidate(`
(0) Delta_A(v) :- A(v), v <= 2.
(1) Delta_B(v) :- B(v), Delta_A(v).
(2) Delta_Pair(x, y) :- Pair(x, y), Delta_A(x), Delta_B(y).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	return db, p
}

// TestSeminaiveMultiDeltaMatchesNaive: the pass-structured seminaive
// evaluation must derive exactly what naive evaluation derives when rules
// join two delta atoms across rounds.
func TestSeminaiveMultiDeltaMatchesNaive(t *testing.T) {
	db, p := multiDeltaProgram(t)
	semi, _, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, _, err := RunEndNaive(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if !semi.SameSet(naive) {
		t.Fatalf("seminaive %v != naive %v", semi.Keys(), naive.Keys())
	}
	// Expected content: A{1,2}, B{1,2}, Pair{1,2}×{1,2} = 2+2+4 = 8.
	if semi.Size() != 8 {
		t.Fatalf("size = %d (%v), want 8", semi.Size(), semi.Keys())
	}
	by := semi.ByRelation()
	if by["Pair"] != 4 {
		t.Fatalf("pairs deleted = %d, want 4: %v", by["Pair"], semi.Keys())
	}
	mustStable(t, db, p, semi)
}

// TestSeminaivePropertyMatchesNaive: randomized cross-check of the
// seminaive pass structure against naive evaluation, with multi-delta
// rules in the mix.
func TestSeminaivePropertyMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		semi, _, err1 := RunWith(db, p, SemEnd, Options{})
		naive, _, err2 := RunEndNaive(db, p)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v / %v", seed, err1, err2)
			return false
		}
		if !semi.SameSet(naive) {
			t.Logf("seed %d: seminaive %v != naive %v", seed, semi.Keys(), naive.Keys())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBreakdownTotal covers the timing aggregate.
func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Eval: 1, ProcessProv: 2, Solve: 3, Traverse: 4, Update: 5}
	if b.Total() != 15 {
		t.Fatalf("Total = %d, want 15", b.Total())
	}
}

// TestContainmentOnIdenticalResults: the flags on a pure cascade.
func TestContainmentOnIdenticalResults(t *testing.T) {
	db, p := multiDeltaProgram(t)
	rs, err := RunAll(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := CheckContainment(rs)
	if !c.StepEqStage || !c.IndInStage || !c.IndInStep || !c.StageInEnd || !c.StepInEnd {
		t.Fatalf("all flags should hold on identical results: %+v", c)
	}
}
