package gen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cqa"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/sideeffect"
)

// enumScenarios is the fixed-seed budget for the enumeration cross-check:
// smaller than quickScenarios because every scenario runs k solver calls
// plus a per-repair brute-force query sweep. CI runs this under -race.
const enumScenarios = 120

// enumK is the repair-space width checked per scenario.
const enumK = 4

// checkEnumeration asserts the repair-space invariants on one scenario:
//
//  1. Every enumerated repair stabilizes the database and deletes only
//     live input tuples (core.Materialize and core.CheckStable verify
//     both).
//  2. Repairs are pairwise distinct, in nondecreasing cost order, and
//     Repairs[0] matches the single RunIndependent result.
//  3. Classification is exact: certainly-deleted = intersection of the
//     repairs' deletions, possibly-deleted = union.
//  4. Determinism: prepared and forked-input enumeration are
//     byte-identical to the sequential one.
//  5. CQA agreement: for a full scan of each relation, the certain and
//     possible answers match brute-force re-evaluation over every
//     enumerated repair.
func checkEnumeration(t *testing.T, sc *Scenario) {
	t.Helper()
	space, err := core.EnumerateRepairsWith(sc.DB, sc.Program, core.Options{}, core.EnumerateOptions{K: enumK})
	if err != nil {
		t.Fatalf("seed %d: enumerate: %v", sc.Seed, err)
	}

	// (1) + (2): stability, deletion-only, distinctness, cost order.
	single, _, err := core.RunWith(sc.DB.Clone(), sc.Program, core.SemIndependent, core.Options{})
	if err != nil {
		t.Fatalf("seed %d: single independent: %v", sc.Seed, err)
	}
	if got, want := fmt.Sprintf("%v", space.Repairs[0].Keys()), fmt.Sprintf("%v", single.Keys()); got != want {
		t.Fatalf("seed %d: repairs[0] %s != RunIndependent %s\nprogram:\n%s", sc.Seed, got, want, sc.ProgramSource)
	}
	seen := make(map[string]bool, space.K())
	prevCost := int64(-1)
	for i, res := range space.Repairs {
		key := fmt.Sprintf("%v", res.Keys())
		if seen[key] {
			t.Fatalf("seed %d: repair %d duplicates an earlier one: %s\nprogram:\n%s", sc.Seed, i, key, sc.ProgramSource)
		}
		seen[key] = true
		if res.RepairCost < prevCost {
			t.Fatalf("seed %d: repair %d cost %d < previous %d", sc.Seed, i, res.RepairCost, prevCost)
		}
		prevCost = res.RepairCost
		work, err := core.Materialize(sc.DB, res)
		if err != nil {
			t.Fatalf("seed %d: repair %d: %v\nprogram:\n%s", sc.Seed, i, err, sc.ProgramSource)
		}
		if stable, err := core.CheckStable(work, sc.Program, core.Options{}); err != nil || !stable {
			t.Fatalf("seed %d: repair %d does not stabilize (err=%v)\nprogram:\n%s", sc.Seed, i, err, sc.ProgramSource)
		}
	}

	// (3) Classification == brute force over the enumerated set.
	inter := make(map[engine.TupleID]int)
	union := make(map[engine.TupleID]bool)
	for _, res := range space.Repairs {
		for _, tp := range res.Deleted {
			inter[tp.TID]++
			union[tp.TID] = true
		}
	}
	wantCertain := 0
	for _, n := range inter {
		if n == space.K() {
			wantCertain++
		}
	}
	if len(space.CertainlyDeleted()) != wantCertain || len(space.PossiblyDeleted()) != len(union) {
		t.Fatalf("seed %d: classification certain=%d/%d possible=%d/%d\nprogram:\n%s",
			sc.Seed, len(space.CertainlyDeleted()), wantCertain, len(space.PossiblyDeleted()), len(union), sc.ProgramSource)
	}
	for _, tp := range space.CertainlyDeleted() {
		for i, res := range space.Repairs {
			if !res.ContainsTuple(tp) {
				t.Fatalf("seed %d: certain tuple %s missing from repair %d", sc.Seed, tp.Key(), i)
			}
		}
	}

	// (4) Determinism across execution strategies.
	wantKeys := spaceFingerprint(space)
	prep, err := datalog.Prepare(sc.Program, sc.Schema)
	if err != nil {
		t.Fatalf("seed %d: prepare: %v", sc.Seed, err)
	}
	prepared, err := core.EnumerateRepairsWith(sc.DB, sc.Program, core.Options{Prepared: prep}, core.EnumerateOptions{K: enumK})
	if err != nil {
		t.Fatalf("seed %d: prepared enumerate: %v", sc.Seed, err)
	}
	if got := spaceFingerprint(prepared); got != wantKeys {
		t.Fatalf("seed %d: prepared enumeration diverged:\n %s\n %s\nprogram:\n%s", sc.Seed, got, wantKeys, sc.ProgramSource)
	}
	forked, err := core.EnumerateRepairsWith(sc.DB.Freeze().Fork(), sc.Program, core.Options{}, core.EnumerateOptions{K: enumK})
	if err != nil {
		t.Fatalf("seed %d: forked enumerate: %v", sc.Seed, err)
	}
	if got := spaceFingerprint(forked); got != wantKeys {
		t.Fatalf("seed %d: forked enumeration diverged:\n %s\n %s\nprogram:\n%s", sc.Seed, got, wantKeys, sc.ProgramSource)
	}

	// (5) CQA vs brute force, one full-scan query per relation.
	for _, rs := range sc.Schema.Relations {
		vars := make([]string, rs.Arity())
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
		}
		src := fmt.Sprintf("Q(%s) :- %s(%s).", strings.Join(vars, ", "), rs.Name, strings.Join(vars, ", "))
		v, err := sideeffect.ParseView(src, sc.Schema)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", sc.Seed, src, err)
		}
		ans, err := cqa.Answer(sc.DB, v, space)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", sc.Seed, src, err)
		}
		wantC, wantP := bruteCQA(t, sc, v, space)
		if got := rowKeys(ans.Certain); !sameKeySet(got, wantC) {
			t.Fatalf("seed %d: %s certain %v != brute force %v\nprogram:\n%s", sc.Seed, src, got, wantC, sc.ProgramSource)
		}
		if got := rowKeys(ans.Possible); !sameKeySet(got, wantP) {
			t.Fatalf("seed %d: %s possible %v != brute force %v\nprogram:\n%s", sc.Seed, src, got, wantP, sc.ProgramSource)
		}
	}
}

func spaceFingerprint(space *core.RepairSpace) string {
	parts := make([]string, space.K())
	for i, res := range space.Repairs {
		parts[i] = fmt.Sprintf("%v", res.Keys())
	}
	return strings.Join(parts, " | ")
}

func rowKeys(rows [][]engine.Value) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, vals := range rows {
		out[(&sideeffect.Row{Values: vals}).Key()] = true
	}
	return out
}

func sameKeySet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// bruteCQA evaluates the view on each materialized repair and intersects
// and unions the row keys — the definitionally correct answers.
func bruteCQA(t *testing.T, sc *Scenario, v *sideeffect.View, space *core.RepairSpace) (certain, possible map[string]bool) {
	t.Helper()
	possible = make(map[string]bool)
	for _, res := range space.Repairs {
		work := sc.DB.Fork()
		for _, tp := range res.Deleted {
			if !work.DeleteTupleToDelta(tp) {
				t.Fatalf("seed %d: repair tuple %s not deletable", sc.Seed, tp.Key())
			}
		}
		rows, err := v.Eval(work)
		if err != nil {
			t.Fatalf("seed %d: brute eval: %v", sc.Seed, err)
		}
		keys := make(map[string]bool, len(rows))
		for _, row := range rows {
			keys[row.Key()] = true
			possible[row.Key()] = true
		}
		if certain == nil {
			certain = keys
		} else {
			for k := range certain {
				if !keys[k] {
					delete(certain, k)
				}
			}
		}
	}
	return certain, possible
}

// TestGeneratedEnumerationQuick cross-checks repair enumeration and CQA on
// fixed seeds; failures reproduce locally from the seed in the message.
func TestGeneratedEnumerationQuick(t *testing.T) {
	for seed := int64(1); seed <= enumScenarios; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkEnumeration(t, Generate(seed))
		})
	}
}
