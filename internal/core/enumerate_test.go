package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// spaceKeys renders a repair space as the ordered list of per-repair key
// lists — the byte-identity currency of the determinism tests.
func spaceKeys(rs *RepairSpace) [][]string {
	out := make([][]string, len(rs.Repairs))
	for i, r := range rs.Repairs {
		out[i] = r.Keys()
	}
	return out
}

func TestEnumerateK1MatchesRunIndependent(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	single, _, err := RunWith(academicDB(), p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	space, err := EnumerateRepairsWith(db, p, Options{}, EnumerateOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if space.K() != 1 {
		t.Fatalf("k=1 returned %d repairs", space.K())
	}
	got := space.Repairs[0]
	if !reflect.DeepEqual(got.Keys(), single.Keys()) {
		t.Fatalf("k=1 repair %v != RunIndependent %v", got.Keys(), single.Keys())
	}
	if got.Optimal != single.Optimal || got.RepairCost != single.RepairCost ||
		got.SolverNodes != single.SolverNodes {
		t.Fatalf("k=1 diagnostics diverged: %+v vs %+v", got, single)
	}
	// k=1 classification is trivial: certain == possible == the repair.
	if !reflect.DeepEqual(keysOf(space.CertainlyDeleted()), single.Keys()) ||
		!reflect.DeepEqual(keysOf(space.PossiblyDeleted()), single.Keys()) {
		t.Fatal("k=1 classification must equal the single repair")
	}
}

func keysOf(ts []*engine.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

func TestEnumerateRunningExampleSpace(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	space, err := EnumerateRepairsWith(db, p, Options{}, EnumerateOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !space.Optimal {
		t.Fatal("default budget should prove optimality on the running example")
	}
	if space.K() < 2 {
		t.Fatalf("running example has multiple minimal repairs, got %d", space.K())
	}
	seen := make(map[string]bool)
	var prevCost int64 = -1
	for i, res := range space.Repairs {
		// Distinct.
		key := ""
		for _, k := range res.Keys() {
			key += k + ";"
		}
		if seen[key] {
			t.Fatalf("repair %d duplicates an earlier one: %v", i, res.Keys())
		}
		seen[key] = true
		// Nondecreasing cost.
		if res.RepairCost < prevCost {
			t.Fatalf("repair %d cost %d < previous %d", i, res.RepairCost, prevCost)
		}
		prevCost = res.RepairCost
		// Stabilizing and deletion-only (Apply checks both: it deletes
		// exactly the result set and verifies stability).
		mustStable(t, db, p, res)
	}
	// Classification == brute force over the enumerated set.
	inter := make(map[engine.TupleID]int)
	union := make(map[engine.TupleID]bool)
	for _, res := range space.Repairs {
		for _, tp := range res.Deleted {
			inter[tp.TID]++
			union[tp.TID] = true
		}
	}
	var wantCertain, wantPossible int
	for _, n := range inter {
		if n == space.K() {
			wantCertain++
		}
	}
	wantPossible = len(union)
	if len(space.CertainlyDeleted()) != wantCertain {
		t.Fatalf("certainly-deleted %d, brute force %d", len(space.CertainlyDeleted()), wantCertain)
	}
	if len(space.PossiblyDeleted()) != wantPossible {
		t.Fatalf("possibly-deleted %d, brute force %d", len(space.PossiblyDeleted()), wantPossible)
	}
	for _, tp := range space.CertainlyDeleted() {
		if inter[tp.TID] != space.K() {
			t.Fatalf("%s marked certainly deleted but missing from some repair", tp.Key())
		}
	}
	for _, tp := range space.PossiblyDeleted() {
		if !union[tp.TID] {
			t.Fatalf("%s marked possibly deleted but deleted nowhere", tp.Key())
		}
	}
	// Mask consistency: certain ⊆ every repair's deletions, possible = union.
	for _, tp := range space.CertainlyDeleted() {
		for i, res := range space.Repairs {
			if !res.ContainsTuple(tp) {
				t.Fatalf("certainly-deleted %s absent from repair %d", tp.Key(), i)
			}
		}
	}
}

func TestEnumerateCardinalityOnly(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	space, err := EnumerateRepairsWith(db, p, Options{}, EnumerateOptions{K: MaxEnumRepairs, CardinalityOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !space.Complete || !space.Optimal {
		t.Fatalf("cardinality band should complete within budget: %+v", space)
	}
	min := space.Repairs[0].RepairCost
	for i, res := range space.Repairs {
		if res.RepairCost != min {
			t.Fatalf("repair %d cost %d, want tie at %d", i, res.RepairCost, min)
		}
	}
	// The band is a prefix of the set-minimal enumeration.
	full, err := EnumerateRepairsWith(academicDB(), p, Options{}, EnumerateOptions{K: MaxEnumRepairs})
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for _, res := range full.Repairs {
		if res.RepairCost == min {
			ties++
		}
	}
	if space.K() != ties {
		t.Fatalf("cardinality band %d repairs, set-minimal enumeration has %d ties", space.K(), ties)
	}
	if !reflect.DeepEqual(spaceKeys(space), spaceKeys(full)[:space.K()]) {
		t.Fatal("cardinality band is not a prefix of the set-minimal enumeration")
	}
}

// TestEnumerateDeterminism: the same database and k yield byte-identical
// repair lists across sequential, prepared, and forked
// execution, and across a save/load round trip.
func TestEnumerateDeterminism(t *testing.T) {
	p := academicProgram(t)
	ref, err := EnumerateRepairsWith(academicDB(), p, Options{}, EnumerateOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := spaceKeys(ref)

	// Prepared plan.
	db := academicDB()
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EnumerateRepairsWith(db, p, Options{Prepared: prep}, EnumerateOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spaceKeys(got), want) {
		t.Fatalf("prepared enumeration diverged:\n %v\n %v", spaceKeys(got), want)
	}

	// CoW fork of a frozen snapshot.
	base := academicDB()
	snap := base.Freeze()
	got, err = EnumerateRepairsWith(snap.Fork(), p, Options{}, EnumerateOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spaceKeys(got), want) {
		t.Fatalf("forked enumeration diverged:\n %v\n %v", spaceKeys(got), want)
	}

	// Save/load round trip.
	var buf bytes.Buffer
	if err := academicDB().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := engine.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := datalog.ParseAndValidate(p.String(), loaded.Schema)
	if err != nil {
		t.Fatal(err)
	}
	got, err = EnumerateRepairsWith(loaded, lp, Options{}, EnumerateOptions{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spaceKeys(got), want) {
		t.Fatalf("save/load enumeration diverged:\n %v\n %v", spaceKeys(got), want)
	}
}

// TestEnumerateBudgetTruncation: an exhausted solver budget must surface
// Optimal=false on the space and stop the enumeration early rather than
// return repairs in unproven order.
func TestEnumerateBudgetTruncation(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	space, err := EnumerateRepairsWith(db, p, Options{Independent: IndependentOptions{MaxNodes: 1}}, EnumerateOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if space.Optimal {
		t.Fatal("1-node budget reported Optimal=true")
	}
	if space.Complete {
		t.Fatal("truncated enumeration reported Complete")
	}
	last := space.Repairs[space.K()-1]
	if last.Optimal {
		t.Fatal("last repair of a truncated enumeration marked Optimal")
	}
	// Even best-effort repairs must stabilize.
	for _, res := range space.Repairs {
		mustStable(t, db, p, res)
	}
}

func TestEnumerateKClamping(t *testing.T) {
	if got := ClampEnumK(0); got != 1 {
		t.Fatalf("ClampEnumK(0) = %d", got)
	}
	if got := ClampEnumK(-3); got != 1 {
		t.Fatalf("ClampEnumK(-3) = %d", got)
	}
	if got := ClampEnumK(1000); got != MaxEnumRepairs {
		t.Fatalf("ClampEnumK(1000) = %d", got)
	}
	db, p := academicDB(), academicProgram(t)
	space, err := EnumerateRepairsWith(db, p, Options{}, EnumerateOptions{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if space.K() != 1 {
		t.Fatalf("K=0 returned %d repairs, want 1", space.K())
	}
}
