package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// warmFixture builds a schema with a cascade program plus an Audit
// relation no rule reads, a base instance, and its prepared plans.
func warmFixture(t *testing.T) (*engine.Schema, *engine.Database, *datalog.Program, *datalog.Prepared) {
	t.Helper()
	schema, err := engine.ParseSchema("A(x)\nB(x, y)\nC(x)\nAudit(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := datalog.ParseAndValidate(`
		Delta_A(x) :- A(x), x > 5.
		Delta_B(x, y) :- B(x, y), Delta_A(x).
		Delta_C(y) :- C(y), B(x, y), Delta_A(x).
	`, schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	for i := 0; i < 8; i++ {
		db.MustInsert("A", engine.Int(i))
	}
	for i := 0; i < 8; i++ {
		db.MustInsert("B", engine.Int(i), engine.Int(i%3))
	}
	for i := 0; i < 3; i++ {
		db.MustInsert("C", engine.Int(i))
	}
	db.MustInsert("Audit", engine.Int(1), engine.Int(1))
	prep, err := datalog.Prepare(prog, schema)
	if err != nil {
		t.Fatal(err)
	}
	return schema, db, prog, prep
}

func sortedKeys(res *Result) string {
	keys := res.Keys()
	sort.Strings(keys)
	return fmt.Sprintf("%v", keys)
}

// TestWarmShortcutOutsideReadSet: updates confined to relations no rule
// reads replay the previous result exactly, without deriving anything.
func TestWarmShortcutOutsideReadSet(t *testing.T) {
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()

	for _, sem := range AllSemantics {
		prev, _, err := RunWith(snap.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if prev.Size() == 0 {
			t.Fatalf("%s: fixture should require deletions", sem)
		}

		// Update only the Audit relation (outside the read-set).
		next, info, err := snap.Apply(
			[]engine.Row{{Rel: "Audit", Vals: []engine.Value{engine.Int(9), engine.Int(9)}}},
			[]engine.Row{{Rel: "Audit", Vals: []engine.Value{engine.Int(1), engine.Int(1)}}},
		)
		if err != nil {
			t.Fatal(err)
		}
		warm := &WarmStart{PrevResult: prev, ChangedRels: info.Changed, Inserted: info.InsertedTuples, InsertOnly: info.InsertOnly()}
		got, repaired, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep, Warm: warm})
		if err != nil {
			t.Fatalf("%s warm: %v", sem, err)
		}
		scratch, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s scratch: %v", sem, err)
		}
		if sortedKeys(got) != sortedKeys(scratch) {
			t.Fatalf("%s: warm %s != scratch %s", sem, sortedKeys(got), sortedKeys(scratch))
		}
		// The shortcut must not have derived: Rounds carries over and the
		// repaired fork is stable.
		if got.Rounds != prev.Rounds || got.Optimal != prev.Optimal {
			t.Errorf("%s: diagnostics not carried over (%d/%v vs %d/%v)", sem, got.Rounds, got.Optimal, prev.Rounds, prev.Optimal)
		}
		stable, err := CheckStableP(repaired, prep)
		if err != nil || !stable {
			t.Errorf("%s: warm repaired fork not stable (err=%v)", sem, err)
		}
	}
}

// TestWarmShortcutRefusedInsideReadSet: an update touching a read-set
// relation must not replay the previous result — the semantics recompute
// and pick up the new tuples.
func TestWarmShortcutRefusedInsideReadSet(t *testing.T) {
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()
	prev, _, err := RunWith(snap.Fork(), prog, SemStage, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a new violating A tuple: the stage repair must grow.
	next, info, err := snap.Apply([]engine.Row{{Rel: "A", Vals: []engine.Value{engine.Int(9)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := &WarmStart{PrevResult: prev, ChangedRels: info.Changed, Inserted: info.InsertedTuples, InsertOnly: true}
	got, _, err := RunWith(next.Fork(), prog, SemStage, Options{Prepared: prep, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	scratch, _, err := RunWith(next.Fork(), prog, SemStage, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if sortedKeys(got) != sortedKeys(scratch) {
		t.Fatalf("warm %s != scratch %s", sortedKeys(got), sortedKeys(scratch))
	}
	if got.Size() <= prev.Size() {
		t.Fatalf("insert inside read-set should grow the repair (%d vs %d)", got.Size(), prev.Size())
	}
}

// TestWarmEndContinuation: after insert-only updates, end semantics
// continues the previous fixpoint (insert-seeded round 1, then normal
// seminaive) and matches a from-scratch run exactly — including when the
// inserts cascade through delta joins.
func TestWarmEndContinuation(t *testing.T) {
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()
	prev, _, err := RunWith(snap.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}

	cur := snap
	for step := 0; step < 4; step++ {
		// Each step inserts a violating A tuple and a B edge that cascades.
		next, info, err := cur.Apply([]engine.Row{
			{Rel: "A", Vals: []engine.Value{engine.Int(10 + step)}},
			{Rel: "B", Vals: []engine.Value{engine.Int(10 + step), engine.Int(step % 3)}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm := &WarmStart{PrevResult: prev, ChangedRels: info.Changed, Inserted: info.InsertedTuples, InsertOnly: info.InsertOnly()}
		got, repaired, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		scratch, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		if sortedKeys(got) != sortedKeys(scratch) {
			t.Fatalf("step %d: warm end %s != scratch %s", step, sortedKeys(got), sortedKeys(scratch))
		}
		if got.Size() <= prev.Size() {
			t.Fatalf("step %d: cascade should grow the end repair", step)
		}
		stable, err := CheckStableP(repaired, prep)
		if err != nil || !stable {
			t.Fatalf("step %d: warm repaired fork not stable (err=%v)", step, err)
		}
		cur, prev = next, got
	}
}

// TestWarmEndRefusedAfterDeletes: a batch with deletions must not use the
// fixpoint continuation (stale support); results still match scratch.
func TestWarmEndRefusedAfterDeletes(t *testing.T) {
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()
	prev, _, err := RunWith(snap.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	// Delete A(i7): previously derived deltas rooted at it lose support.
	next, info, err := snap.Apply(nil, []engine.Row{{Rel: "A", Vals: []engine.Value{engine.Int(7)}}})
	if err != nil {
		t.Fatal(err)
	}
	warm := &WarmStart{PrevResult: prev, ChangedRels: info.Changed, Inserted: info.InsertedTuples, InsertOnly: info.InsertOnly()}
	got, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	scratch, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if sortedKeys(got) != sortedKeys(scratch) {
		t.Fatalf("post-delete warm end %s != scratch %s", sortedKeys(got), sortedKeys(scratch))
	}
	if got.Size() >= prev.Size() {
		t.Fatalf("deleting a violation root should shrink the repair (%d vs %d)", got.Size(), prev.Size())
	}
}

// TestCheckStableWarm: incremental stability probing matches full probes
// across update shapes — outside the read-set, deletion-only, and
// insert-driven instability.
func TestCheckStableWarm(t *testing.T) {
	schema, err := engine.ParseSchema("A(x)\nB(x)\nAudit(x)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := datalog.ParseAndValidate("Delta_A(x) :- A(x), B(x).", schema)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(prog, schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	db.MustInsert("A", engine.Int(1))
	db.MustInsert("B", engine.Int(2)) // disjoint: stable
	snap := db.Freeze()
	if stable, err := CheckStableP(snap.Fork(), prep); err != nil || !stable {
		t.Fatalf("fixture should start stable (err=%v)", err)
	}

	check := func(name string, snap *engine.Snapshot, info *engine.ApplyInfo) {
		t.Helper()
		warm := &WarmStart{PrevStable: true, ChangedRels: info.Changed, Inserted: info.InsertedTuples}
		got, err := CheckStableWarmCtx(nil, snap.Fork(), prep, warm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := CheckStableP(snap.Fork(), prep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: warm stability %v, full probe %v", name, got, want)
		}
	}

	// Outside the read-set: no evaluation needed, still stable.
	s1, info, err := snap.Apply([]engine.Row{{Rel: "Audit", Vals: []engine.Value{engine.Int(1)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("outside read-set", s1, info)

	// Deletion-only: stable stays stable.
	s2, info, err := snap.Apply(nil, []engine.Row{{Rel: "B", Vals: []engine.Value{engine.Int(2)}}})
	if err != nil {
		t.Fatal(err)
	}
	check("deletion-only", s2, info)

	// Insert that keeps stability (no join partner).
	s3, info, err := snap.Apply([]engine.Row{{Rel: "B", Vals: []engine.Value{engine.Int(3)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("benign insert", s3, info)

	// Insert that creates a violation: B(1) joins A(1).
	s4, info, err := snap.Apply([]engine.Row{{Rel: "B", Vals: []engine.Value{engine.Int(1)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("violating insert", s4, info)
	warm := &WarmStart{PrevStable: true, ChangedRels: info.Changed, Inserted: info.InsertedTuples}
	if stable, _ := CheckStableWarmCtx(nil, s4.Fork(), prep, warm); stable {
		t.Fatal("violating insert reported stable")
	}

	// Without usable hints the warm probe falls back to a full check.
	if stable, err := CheckStableWarmCtx(nil, s4.Fork(), prep, nil); err != nil || stable {
		t.Fatalf("nil hints fallback: stable=%v err=%v", stable, err)
	}
}
