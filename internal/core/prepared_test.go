package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
)

// assertIdentical fails unless the two results are the same set in the
// same deletion order — byte-identical repairs, not just set-equivalent.
func assertIdentical(t *testing.T, label string, sem Semantics, want, got *Result) {
	t.Helper()
	if !want.SameSet(got) {
		t.Fatalf("%s/%s: set %v, want %v", label, sem, got.Keys(), want.Keys())
	}
	wk, gk := want.Keys(), got.Keys()
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s/%s: deletion order diverges at %d: got %v, want %v", label, sem, i, gk, wk)
		}
	}
	if want.Optimal != got.Optimal || want.Rounds != got.Rounds {
		t.Fatalf("%s/%s: diagnostics diverge: got (optimal=%v rounds=%d), want (optimal=%v rounds=%d)",
			label, sem, got.Optimal, got.Rounds, want.Optimal, want.Rounds)
	}
}

// TestPreparedRepeatedRunsShareState exercises the amortization path: many
// repeated repairs through one Prepared must keep producing identical
// results (pooled contexts and scratch relations must not leak state
// between runs).
func TestPreparedRepeatedRunsShareState(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 2})
	p, err := programs.MAS(10, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 5; i++ {
		res, _, err := RunWith(ds.DB, p, SemStage, Options{Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		assertIdentical(t, fmt.Sprintf("run-%d", i), SemStage, first, res)
	}
}

// TestIndependentWithStaleIndexes covers the pre-existing-deletion
// initialization (§3.6) over stale index buckets: the caller's database
// already has lazily built indexes whose buckets went stale through the
// earlier deletions, and Algorithm 1 must produce the same repair as on a
// copy that received the same deletions before any index existed.
func TestIndependentWithStaleIndexes(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fresh := db.Clone() // no index built yet, so none is cloned
	// Build every index the plans probe, then delete tuples so the built
	// buckets go stale.
	prep.WarmIndexes(db)
	rels := []string{"AuthGrant", "Writes"}
	for _, rel := range rels {
		if len(db.Relation(rel).IndexedColumns()) == 0 {
			t.Fatalf("%s has no built index: the test would not cover stale buckets", rel)
		}
	}
	for _, d := range []*engine.Database{db, fresh} {
		for _, rel := range rels {
			tuples := d.Relation(rel).Tuples()
			d.DeleteTupleToDelta(tuples[len(tuples)-1])
		}
	}
	got, _, err := RunWith(db, p, SemIndependent, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := RunWith(fresh, p, SemIndependent, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "stale-index", SemIndependent, want, got)
}

// TestPreparedAcceptsStructurallyEqualSchema: a snapshot-restored database
// has a distinct but structurally equal schema object; prepared plans must
// keep working against it, while a genuinely different schema errors
// instead of panicking mid-derivation.
func TestPreparedSchemaCompatibility(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	p, err := programs.MAS(10, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Different schema object, same structure (clone by re-declaring).
	clone := engine.NewSchema()
	for _, rs := range ds.DB.Schema.Relations {
		clone.MustAddRelation(rs.Name, rs.IDPrefix, rs.Attrs...)
	}
	db2 := engine.NewDatabase(clone)
	ds.DB.Relation(ds.DB.Schema.Relations[0].Name).Scan(func(tp *engine.Tuple) bool {
		db2.MustInsert(tp.Rel, tp.Vals...)
		return true
	})
	if _, _, err := RunWith(db2, p, SemStage, Options{Prepared: prep}); err != nil {
		t.Fatalf("structurally equal schema rejected: %v", err)
	}
	// Genuinely different schema: error, not panic.
	other := engine.NewSchema()
	other.MustAddRelation("Unrelated", "u", "a")
	db3 := engine.NewDatabase(other)
	if _, _, err := RunWith(db3, p, SemStage, Options{Prepared: prep}); err == nil {
		t.Fatal("mismatched schema accepted")
	}
}

// TestRunWithRejectsMismatchedPrepared guards the misuse path: a plan
// prepared from one program cannot silently execute another.
func TestRunWithRejectsMismatchedPrepared(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	p1, err := programs.MAS(1, ds)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := programs.MAS(2, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p1, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunWith(ds.DB, p2, SemEnd, Options{Prepared: prep}); err == nil {
		t.Fatal("mismatched prepared program accepted")
	}
}

// TestCheckStablePRejectsMismatchedSchema: the stability probe enforces
// the same schema-compatibility guard as the executors.
func TestCheckStablePRejectsMismatchedSchema(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	p, err := programs.MAS(10, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	other := engine.NewSchema()
	other.MustAddRelation("Unrelated", "u", "a")
	if _, err := CheckStable(engine.NewDatabase(other), nil, Options{Prepared: prep}); err == nil {
		t.Fatal("mismatched schema accepted by CheckStable")
	}
	if stable, err := CheckStable(ds.DB, nil, Options{Prepared: prep}); err != nil || stable {
		t.Fatalf("CheckStable on matching schema = (%v, %v), want (false, nil)", stable, err)
	}
}
