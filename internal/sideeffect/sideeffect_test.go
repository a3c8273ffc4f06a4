package sideeffect

import (
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

func schemaRS(t *testing.T) *engine.Schema {
	t.Helper()
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a", "b")
	s.MustAddRelation("S", "s", "b", "c")
	return s
}

// joinDB: R(1,10) R(2,10) R(3,20); S(10,100) S(20,200).
func joinDB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.NewDatabase(schemaRS(t))
	db.MustInsert("R", engine.Int(1), engine.Int(10))
	db.MustInsert("R", engine.Int(2), engine.Int(10))
	db.MustInsert("R", engine.Int(3), engine.Int(20))
	db.MustInsert("S", engine.Int(10), engine.Int(100))
	db.MustInsert("S", engine.Int(20), engine.Int(200))
	return db
}

func TestParseViewValidation(t *testing.T) {
	s := schemaRS(t)
	if _, err := ParseView("V(a, c) :- R(a, b), S(b, c).", s); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	bad := []struct {
		src, why string
	}{
		{"V(a) :- R(a, b). V2(a) :- R(a, b).", "two rules"},
		{"V(a, 3) :- R(a, b).", "constant head"},
		{"V(z) :- R(a, b).", "unbound head var"},
		{"V(a) :- R(a, b), Delta_S(b, c).", "delta atom"},
		{"V(a) :- Mystery(a).", "unknown relation"},
		{"V(a) :- R(a).", "arity mismatch"},
	}
	for _, c := range bad {
		if _, err := ParseView(c.src, s); err == nil {
			t.Errorf("view with %s should be rejected: %s", c.why, c.src)
		}
	}
}

func TestViewEval(t *testing.T) {
	db := joinDB(t)
	v, err := ParseView("V(a, c) :- R(a, b), S(b, c).", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	// V = {(1,100), (2,100), (3,200)}.
	if len(rows) != 3 {
		t.Fatalf("view rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if len(r.Witnesses) != 1 {
			t.Fatalf("row %v witnesses = %d, want 1", r.Values, len(r.Witnesses))
		}
	}
}

func TestViewEvalProjectionMergesWitnesses(t *testing.T) {
	db := joinDB(t)
	// Project only c: V(c) has (100) with two witnesses (via R(1,10), R(2,10)).
	v, err := ParseView("V(c) :- R(a, b), S(b, c).", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	var r100 *Row
	for _, r := range rows {
		if r.MatchesRow([]engine.Value{engine.Int(100)}) {
			r100 = r
		}
	}
	if r100 == nil || len(r100.Witnesses) != 2 {
		t.Fatalf("(100) row = %v, want 2 witnesses", r100)
	}
}

func TestDeleteViewTupleNoProgram(t *testing.T) {
	db := joinDB(t)
	v, _ := ParseView("V(c) :- R(a, b), S(b, c).", db.Schema)
	// Removing (100) requires breaking both witnesses; cheapest is the
	// shared tuple S(10,100): one deletion.
	res, repaired, err := DeleteViewTuple(db, v, []engine.Value{engine.Int(100)}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 || res.Deleted[0].Rel != "S" {
		t.Fatalf("deletion = %v, want the shared S tuple", res.Deleted)
	}
	if !res.Optimal {
		t.Fatal("tiny instance should be solved optimally")
	}
	if res.ViewRowsBefore != 2 || res.ViewRowsAfter != 1 {
		t.Fatalf("view rows %d -> %d, want 2 -> 1", res.ViewRowsBefore, res.ViewRowsAfter)
	}
	// Side effect check: the other row survives.
	rows, _ := v.Eval(repaired)
	if len(rows) != 1 || !rows[0].Values[0].Equal(engine.Int(200)) {
		t.Fatalf("surviving rows = %v", rows)
	}
}

func TestDeleteViewTupleWithCascade(t *testing.T) {
	db := joinDB(t)
	v, _ := ParseView("V(c) :- R(a, b), S(b, c).", db.Schema)
	// Cascade program: deleting an S tuple forces deleting all R tuples
	// joined to it. Now removing (100) via S(10,100) costs 1 + 2 cascade;
	// deleting R(1,10) and R(2,10) costs 2 — the solver must switch.
	p, err := datalog.ParseAndValidate(`
Delta_R(a, b) :- R(a, b), Delta_S(b, c).
`, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, repaired, err := DeleteViewTuple(db, v, []engine.Value{engine.Int(100)}, prep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 2 {
		t.Fatalf("deletions = %v, want the two R tuples", res.Deleted)
	}
	for _, tp := range res.Deleted {
		if tp.Rel != "R" {
			t.Fatalf("cascade-aware repair should delete R tuples, got %v", tp)
		}
	}
	if repaired.Relation("S").Len() != 2 {
		t.Fatal("S must be untouched")
	}
}

func TestDeleteViewTupleMissingRow(t *testing.T) {
	db := joinDB(t)
	v, _ := ParseView("V(c) :- R(a, b), S(b, c).", db.Schema)
	if _, _, err := DeleteViewTuple(db, v, []engine.Value{engine.Int(999)}, nil, Options{}); err == nil {
		t.Fatal("missing view row should error")
	}
}

func TestDeleteViewTupleDoesNotMutateInput(t *testing.T) {
	db := joinDB(t)
	before := db.TotalTuples()
	v, _ := ParseView("V(a, c) :- R(a, b), S(b, c).", db.Schema)
	_, _, err := DeleteViewTuple(db, v, []engine.Value{engine.Int(1), engine.Int(100)}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != before || db.TotalDeltaTuples() != 0 {
		t.Fatal("input database mutated")
	}
}

func TestDeleteViewTupleSelfJoin(t *testing.T) {
	// Self-join view: pairs of R tuples sharing b.
	db := joinDB(t)
	v, err := ParseView("V(a1, a2) :- R(a1, b), R(a2, b), a1 < a2.", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := v.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 { // only (1,2) via b=10
		t.Fatalf("rows = %v", rows)
	}
	res, _, err := DeleteViewTuple(db, v, []engine.Value{engine.Int(1), engine.Int(2)}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 || res.Deleted[0].Rel != "R" {
		t.Fatalf("self-join repair = %v, want one R tuple", res.Deleted)
	}
}

// TestViewEvalConcurrent evaluates one View from two goroutines at once,
// the shape of two concurrent AnswerQuery calls on one parsed view: the
// lazily built plan must be shared without a data race (go test -race)
// and both evaluations must see every row.
func TestViewEvalConcurrent(t *testing.T) {
	db := joinDB(t)
	db.Freeze()
	v, err := ParseView("V(a, c) :- R(a, b), S(b, c).", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 2)
	errs := make([]error, 2)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := v.Eval(db)
			counts[g], errs[g] = len(rows), err
		}()
	}
	wg.Wait()
	for g := range counts {
		if errs[g] != nil || counts[g] != 3 {
			t.Fatalf("goroutine %d: %d rows, err %v; want 3 rows", g, counts[g], errs[g])
		}
	}
}
