package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
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

// warmInfo folds an ApplyInfo and the previous result into the WarmStart
// a serving layer would pass for the next request at the new version.
func warmInfo(prev *Result, info *engine.ApplyInfo) *WarmStart {
	return &WarmStart{
		PrevResult: prev,
		Inserted:   info.InsertedTuples,
		Deleted:    info.DeletedTuples,
	}
}

// exactKeys is the byte-identity comparison: Seq-ordered keys, valid when
// both results were computed on forks of the same snapshot lineage.
func exactKeys(res *Result) string { return fmt.Sprintf("%v", res.Keys()) }

func warmRow(rel string, vals ...int) engine.Row {
	r := engine.Row{Rel: rel}
	for _, v := range vals {
		r.Vals = append(r.Vals, engine.Int(v))
	}
	return r
}

// checkWarmProbe applies one batch to the warm fixture and, for every
// semantics, runs warm from the previous result and cold on the new
// instance. The answers must be equal and the repaired fork stable. With
// replay the previous answer carries over unchanged; without it the batch
// binds a rule and every repair must grow.
func checkWarmProbe(t *testing.T, inserts, deletes []engine.Row, replay bool) {
	t.Helper()
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()
	next, info, err := snap.Apply(inserts, deletes)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics {
		prev, _, err := RunWith(snap.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if prev.Size() == 0 {
			t.Fatalf("%s: fixture should require deletions", sem)
		}
		warm := &WarmStart{PrevResult: prev, Inserted: info.InsertedTuples, Deleted: info.DeletedTuples}
		got, repaired, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep, Warm: warm})
		if err != nil {
			t.Fatalf("%s warm: %v", sem, err)
		}
		cold, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s cold: %v", sem, err)
		}
		if exactKeys(got) != exactKeys(cold) || got.Rounds != cold.Rounds {
			t.Fatalf("%s: warm %s in %d rounds != cold %s in %d", sem, exactKeys(got), got.Rounds, exactKeys(cold), cold.Rounds)
		}
		if stable, err := CheckStable(repaired, nil, Options{Prepared: prep}); err != nil || !stable {
			t.Errorf("%s: warm repaired fork not stable (err=%v)", sem, err)
		}
		if !replay {
			if got.Size() <= prev.Size() {
				t.Errorf("%s: a binding insert should grow the repair (%d vs %d)", sem, got.Size(), prev.Size())
			}
			continue
		}
		// A replay derives nothing: the previous answer and its
		// diagnostics carry over and no executor time is charged.
		if exactKeys(got) != exactKeys(prev) || got.Rounds != prev.Rounds || got.Optimal != prev.Optimal || got.Timing.Eval != 0 {
			t.Errorf("%s: not replayed (keys %s vs %s, rounds %d vs %d, optimal %v vs %v, eval %v)", sem,
				exactKeys(got), exactKeys(prev), got.Rounds, prev.Rounds, got.Optimal, prev.Optimal, got.Timing.Eval)
		}
	}
}

// TestWarmShortcutOutsideReadSet: a batch confined to a relation no rule
// reads binds nothing, so every semantics replays the previous result.
func TestWarmShortcutOutsideReadSet(t *testing.T) {
	checkWarmProbe(t, []engine.Row{warmRow("Audit", 9, 9)}, []engine.Row{warmRow("Audit", 1, 1)}, true)
}

// TestWarmShortcutRefusedInsideReadSet: an insert that binds a rule must
// not replay — A(9) violates the condition rule, so every semantics
// recomputes and its repair grows.
func TestWarmShortcutRefusedInsideReadSet(t *testing.T) {
	checkWarmProbe(t, []engine.Row{warmRow("A", 9)}, nil, false)
}

// TestWarmProbeReplay: a batch that touches relations rules read, with rows
// that join nothing, still binds no rule assignment and replays — C(7) has
// no B partner and B(20, 9) neither an A nor a C one.
func TestWarmProbeReplay(t *testing.T) {
	checkWarmProbe(t, []engine.Row{warmRow("C", 7), warmRow("B", 20, 9)}, nil, true)
}

// TestWarmReplayRefusesStaleHint: hints claiming nothing changed while a
// tuple the previous result deletes is gone from the new version are
// wrong, and the replay must notice — every previously deleted tuple must
// still be live — and fall back to the full policy, not return a repair
// that deletes a tuple the database no longer has.
func TestWarmReplayRefusesStaleHint(t *testing.T) {
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()
	next, _, err := snap.Apply(nil, []engine.Row{warmRow("A", 7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics {
		prev, _, err := RunWith(snap.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		stale := &WarmStart{PrevResult: prev} // an empty range: "nothing changed"
		got, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep, Warm: stale})
		if err != nil {
			t.Fatalf("%s with a stale hint: %v", sem, err)
		}
		cold, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s cold: %v", sem, err)
		}
		if exactKeys(got) != exactKeys(cold) {
			t.Fatalf("%s: stale hint gave %s, cold %s", sem, exactKeys(got), exactKeys(cold))
		}
	}
}

// TestWarmEndContinuation: along a chain of insert-only updates that bind
// rules, end semantics run with the previous version's result as hints
// matches a from-scratch run on the same snapshot exactly — the deleted
// tuples in order and the round count — including when the inserts
// cascade through delta joins: a version's answer does not depend on
// which version was asked before it.
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
		warm := &WarmStart{PrevResult: prev, Inserted: info.InsertedTuples, Deleted: info.DeletedTuples}
		got, repaired, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		scratch, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		if exactKeys(got) != exactKeys(scratch) || got.Rounds != scratch.Rounds {
			t.Fatalf("step %d: warm end %s in %d rounds != scratch %s in %d", step, exactKeys(got), got.Rounds, exactKeys(scratch), scratch.Rounds)
		}
		if got.Size() <= prev.Size() {
			t.Fatalf("step %d: cascade should grow the end repair", step)
		}
		stable, err := CheckStable(repaired, nil, Options{Prepared: prep})
		if err != nil || !stable {
			t.Fatalf("step %d: warm repaired fork not stable (err=%v)", step, err)
		}
		cur, prev = next, got
	}
}

// TestWarmEndRefusedAfterDeletes: a batch whose deletion unsupports
// previously derived deltas must not replay; end derives cold and matches
// scratch, round count included.
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
	warm := &WarmStart{PrevResult: prev, Inserted: info.InsertedTuples, Deleted: info.DeletedTuples}
	got, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	scratch, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if exactKeys(got) != exactKeys(scratch) || got.Rounds != scratch.Rounds {
		t.Fatalf("post-delete warm end %s in %d rounds != scratch %s in %d", exactKeys(got), got.Rounds, exactKeys(scratch), scratch.Rounds)
	}
	if got.Size() >= prev.Size() {
		t.Fatalf("deleting a violation root should shrink the repair (%d vs %d)", got.Size(), prev.Size())
	}
}

// TestCheckStableWarm: stability after each update shape a serving layer
// sees — a relation no rule reads, deletion-only, a benign insert and an
// insert-driven violation — is the verdict of probing that version alone.
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
	if stable, err := CheckStable(snap.Fork(), nil, Options{Prepared: prep}); err != nil || !stable {
		t.Fatalf("fixture should start stable (err=%v)", err)
	}

	for _, c := range []struct {
		name             string
		inserts, deletes []engine.Row
		want             bool
	}{
		// A relation no rule reads: still stable.
		{"unread relation", []engine.Row{warmRow("Audit", 1)}, nil, true},
		// Deletion-only: stable stays stable.
		{"deletion-only", nil, []engine.Row{warmRow("B", 2)}, true},
		// Insert that keeps stability (no join partner).
		{"benign insert", []engine.Row{warmRow("B", 3)}, nil, true},
		// Insert that creates a violation: B(1) joins A(1).
		{"violating insert", []engine.Row{warmRow("B", 1)}, nil, false},
	} {
		next, _, err := snap.Apply(c.inserts, c.deletes)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := CheckStable(next.Fork(), nil, Options{Prepared: prep}); err != nil || got != c.want {
			t.Fatalf("%s: stable = %v (err=%v), want %v", c.name, got, err, c.want)
		}
	}
}

// TestWarmChangeProbeReplay: for the semantics without an incremental
// executor, a delete-containing batch whose tuples provably join no rule
// replays the cached result, while an interacting batch recomputes.
func TestWarmChangeProbeReplay(t *testing.T) {
	schema, err := engine.ParseSchema("A(x)\nB(x)")
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
	db.MustInsert("A", engine.Int(2))
	db.MustInsert("B", engine.Int(2))
	snap := db.Freeze()

	for _, sem := range []Semantics{SemStage, SemStep, SemIndependent} {
		prev, _, err := RunWith(snap.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if prev.Size() != 1 {
			t.Fatalf("%s: fixture repair has %d tuples, want 1", sem, prev.Size())
		}

		// A(1) has no B partner in either version: the probe finds no
		// assignment binding it, so the cached result replays verbatim.
		next, info, err := snap.Apply(nil, []engine.Row{{Rel: "A", Vals: []engine.Value{engine.Int(1)}}})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep, Warm: warmInfo(prev, info)})
		if err != nil {
			t.Fatalf("%s warm: %v", sem, err)
		}
		cold, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s cold: %v", sem, err)
		}
		if exactKeys(got) != exactKeys(cold) {
			t.Fatalf("%s: replay %s != cold %s", sem, exactKeys(got), exactKeys(cold))
		}
		if got.Timing.Eval != 0 {
			t.Errorf("%s: probe replay ran an executor (eval %v)", sem, got.Timing.Eval)
		}

		// Deleting B(2) interacts (it bound the only assignment): the
		// probe hits, the executor reruns, and the repair empties.
		next2, info2, err := snap.Apply(nil, []engine.Row{{Rel: "B", Vals: []engine.Value{engine.Int(2)}}})
		if err != nil {
			t.Fatal(err)
		}
		got2, _, err := RunWith(next2.Fork(), prog, sem, Options{Prepared: prep, Warm: warmInfo(prev, info2)})
		if err != nil {
			t.Fatalf("%s warm interacting: %v", sem, err)
		}
		if got2.Size() != 0 {
			t.Fatalf("%s: deleting the join partner should empty the repair, got %s", sem, exactKeys(got2))
		}
	}
}

// TestWarmDeleteMASPrograms is the acceptance sweep: all 20 MAS programs
// plus the running example, × all four semantics. Each program gets a
// mixed batch deleting two tuples of the previous repair (guaranteed
// fixpoint interaction) plus one unrelated base row resurrection; the
// warm result must be byte-identical to a cold recompute on the same
// lineage.
func TestWarmDeleteMASPrograms(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 11})
	type fixture struct {
		name string
		db   *engine.Database
		prog *datalog.Program
	}
	var fixtures []fixture
	for n := 1; n <= 20; n++ {
		p, err := programs.MAS(n, ds)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("mas%02d", n), ds.DB, p})
	}
	reProg, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"running-example", programs.RunningExampleDB(), reProg})

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			prep, err := datalog.Prepare(fx.prog, fx.db.Schema)
			if err != nil {
				t.Fatal(err)
			}
			snap := fx.db.Freeze()
			for _, sem := range AllSemantics {
				prev, _, err := RunWith(snap.Fork(), fx.prog, sem, Options{Prepared: prep})
				if err != nil {
					t.Fatalf("%s prev: %v", sem, err)
				}

				// Delete the first and last tuples of the previous repair
				// (when it has any — both live as base rows under end/step/
				// stage/independent deletion-only semantics), and resurrect
				// the first: a mixed batch on relations the program reads.
				var deletes, inserts []engine.Row
				if prev.Size() > 0 {
					first := prev.Deleted[0]
					last := prev.Deleted[len(prev.Deleted)-1]
					deletes = append(deletes, engine.Row{Rel: first.Rel, Vals: first.Vals})
					if last.TID != first.TID {
						deletes = append(deletes, engine.Row{Rel: last.Rel, Vals: last.Vals})
					}
					inserts = append(inserts, engine.Row{Rel: first.Rel, Vals: first.Vals})
				} else {
					// Stable program: delete an arbitrary base row so the
					// batch still contains an effective delete.
					found := false
					for _, rs := range fx.db.Schema.Relations {
						snap.Fork().Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
							deletes = append(deletes, engine.Row{Rel: tp.Rel, Vals: tp.Vals})
							found = true
							return false
						})
						if found {
							break
						}
					}
					if !found {
						t.Skipf("%s: empty instance", sem)
					}
				}
				next, info, err := snap.Apply(inserts, deletes)
				if err != nil {
					t.Fatalf("%s apply: %v", sem, err)
				}
				cold, _, err := RunWith(next.Fork(), fx.prog, sem, Options{Prepared: prep})
				if err != nil {
					t.Fatalf("%s cold: %v", sem, err)
				}
				got, repaired, err := RunWith(next.Fork(), fx.prog, sem, Options{Prepared: prep, Warm: warmInfo(prev, info)})
				if err != nil {
					t.Fatalf("%s warm: %v", sem, err)
				}
				if exactKeys(got) != exactKeys(cold) {
					t.Fatalf("%s: warm %s != cold %s", sem, exactKeys(got), exactKeys(cold))
				}
				if stable, err := CheckStable(repaired, nil, Options{Prepared: prep}); err != nil || !stable {
					t.Fatalf("%s: warm-repaired fork not stable (err=%v)", sem, err)
				}
			}
		})
	}
}
