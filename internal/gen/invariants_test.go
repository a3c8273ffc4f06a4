package gen

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
)

// quickScenarios is the fixed-seed CI budget: every run checks the same
// seeds 1..quickScenarios, so a red CI reproduces locally from the seed in
// the failure message. CI runs this under -race (see .github/workflows).
const quickScenarios = 500

// checkScenario asserts the paper-proved invariants on one scenario:
//
//  1. Stability: each semantics' repaired database is stable (Def. 3.12).
//  2. Deletion-only: the stabilizing set ⊆ input tuples, the repaired
//     instance ⊆ input instance, and sizes reconcile exactly.
//  3. Determinism: unprepared, prepared, and forked-input execution
//     produce byte-identical results, and so does RunAll's shared
//     Derivation.
//  4. Containments (Prop. 3.20): Stage ⊆ End, Step ⊆ End, and — when the
//     solver proved minimality — |Ind| ≤ |Step|, |Ind| ≤ |Stage|.
//  5. Warm deletes: a warm run after a mixed batch equals a cold one.
//  6. Stage by definition: stage's deleted set and stage count equal a
//     literal Def. 3.7 transcription's, as generated and with every third
//     tuple deleted beforehand.
func checkScenario(t *testing.T, sc *Scenario) {
	t.Helper()
	prep, err := datalog.Prepare(sc.Program, sc.Schema)
	if err != nil {
		t.Fatalf("seed %d: prepare: %v", sc.Seed, err)
	}
	snap := sc.DB.Freeze()

	results := make(map[core.Semantics]*core.Result, len(core.AllSemantics))
	for _, sem := range core.AllSemantics {
		res, repaired, err := core.RunWith(sc.DB, sc.Program, sem, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", sc.Seed, sem, err)
		}
		results[sem] = res

		// (1) Stability of the repaired instance.
		stable, err := core.CheckStable(repaired, sc.Program, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %s stability check: %v", sc.Seed, sem, err)
		}
		if !stable {
			t.Fatalf("seed %d: %s repaired database is not stable\nprogram:\n%s", sc.Seed, sem, sc.ProgramSource)
		}

		// (2) Deletion-only.
		for _, tp := range res.Deleted {
			if sc.DB.Lookup(tp.Key()) == nil {
				t.Fatalf("seed %d: %s deleted %s, which is not a live input tuple", sc.Seed, sem, tp.Key())
			}
		}
		live := 0
		for _, rs := range sc.Schema.Relations {
			repaired.Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
				live++
				if sc.DB.Lookup(tp.Key()) == nil {
					t.Fatalf("seed %d: %s repaired instance contains %s, absent from the input", sc.Seed, sem, tp.Key())
				}
				return true
			})
		}
		if want := sc.DB.TotalTuples() - res.Size(); live != want {
			t.Fatalf("seed %d: %s repaired instance has %d tuples, want %d (input %d - deleted %d)",
				sc.Seed, sem, live, want, sc.DB.TotalTuples(), res.Size())
		}

		// (3) Determinism across execution strategies.
		seqKeys := fmt.Sprintf("%v", res.Keys())
		strategies := []struct {
			name string
			run  func() (*core.Result, error)
		}{
			{"prepared", func() (*core.Result, error) {
				r, _, err := core.RunWith(sc.DB, sc.Program, sem, core.Options{Prepared: prep})
				return r, err
			}},
			{"forked", func() (*core.Result, error) {
				r, _, err := core.RunWith(snap.Fork(), sc.Program, sem, core.Options{})
				return r, err
			}},
		}
		for _, st := range strategies {
			r, err := st.run()
			if err != nil {
				t.Fatalf("seed %d: %s/%s: %v", sc.Seed, sem, st.name, err)
			}
			if got := fmt.Sprintf("%v", r.Keys()); got != seqKeys {
				t.Fatalf("seed %d: %s/%s nondeterministic:\n sequential: %s\n %s: %s\nprogram:\n%s",
					sc.Seed, sem, st.name, seqKeys, st.name, got, sc.ProgramSource)
			}
		}
	}

	// (3b) Sharing: RunAll's one Derivation gives every semantics the result
	// its own Run gave it.
	all, err := core.RunAll(sc.DB, sc.Program, core.Options{})
	if err != nil {
		t.Fatalf("seed %d: RunAll: %v", sc.Seed, err)
	}
	for _, sem := range core.AllSemantics {
		if got, want := fmt.Sprintf("%v", all[sem].Keys()), fmt.Sprintf("%v", results[sem].Keys()); got != want {
			t.Fatalf("seed %d: RunAll %s %s != Run %s\nprogram:\n%s", sc.Seed, sem, got, want, sc.ProgramSource)
		}
	}

	// (4) Always-true containments.
	cont := core.CheckContainment(results)
	if !cont.StageInEnd {
		t.Fatalf("seed %d: Stage ⊄ End\nprogram:\n%s", sc.Seed, sc.ProgramSource)
	}
	if !cont.StepInEnd {
		t.Fatalf("seed %d: Step ⊄ End\nprogram:\n%s", sc.Seed, sc.ProgramSource)
	}
	if ind := results[core.SemIndependent]; ind.Optimal {
		if !cont.IndLeStep || !cont.IndLeStage {
			t.Fatalf("seed %d: optimal |Ind|=%d exceeds |Step|=%d or |Stage|=%d\nprogram:\n%s",
				sc.Seed, ind.Size(), results[core.SemStep].Size(), results[core.SemStage].Size(), sc.ProgramSource)
		}
	}

	// (6) Stage by definition, as generated and with pre-deletions.
	preDeleted := sc.DB.Fork()
	n := 0
	for _, rs := range sc.Schema.Relations {
		var victims []*engine.Tuple
		sc.DB.Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
			if n++; n%3 == 0 {
				victims = append(victims, tp)
			}
			return true
		})
		for _, tp := range victims {
			preDeleted.DeleteTupleToDelta(tp)
		}
	}
	for _, db := range []*engine.Database{sc.DB, preDeleted} {
		res, _, err := core.RunWith(db, nil, core.SemStage, core.Options{Prepared: prep})
		if err != nil {
			t.Fatalf("seed %d: stage: %v", sc.Seed, err)
		}
		got := slices.Sorted(slices.Values(res.Keys()))
		want, stages := stageByDefinition(t, db, prep)
		if !slices.Equal(got, want) || res.Rounds != stages {
			t.Fatalf("seed %d: stage deletes %v in %d stages, Def. 3.7 %v in %d\nprogram:\n%s",
				sc.Seed, got, res.Rounds, want, stages, sc.ProgramSource)
		}
	}

	// (5) Warm-delete byte-identity: a deterministic mixed batch — three
	// spread-out rows deleted, one of them re-inserted (a resurrection
	// with a fresh tuple identity) — is applied to the frozen scenario,
	// and every semantics' warm run (previous result + ApplyInfo hints)
	// must be byte-identical (exact Seq-ordered keys — warm and cold
	// share the post-batch lineage) to a cold run. Every semantics takes
	// the seeded change probe or falls back to a full run, without
	// changing the answer.
	var rows []engine.Row
	for _, rs := range sc.Schema.Relations {
		sc.DB.Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
			rows = append(rows, engine.Row{Rel: tp.Rel, Vals: tp.Vals})
			return true
		})
	}
	if len(rows) == 0 {
		return
	}
	pick := map[int]bool{0: true, len(rows) / 2: true, len(rows) - 1: true}
	var deletes []engine.Row
	for i := range rows {
		if pick[i] {
			deletes = append(deletes, rows[i])
		}
	}
	next, info, err := snap.Apply([]engine.Row{rows[0]}, deletes)
	if err != nil {
		t.Fatalf("seed %d: warm-delete batch: %v", sc.Seed, err)
	}
	for _, sem := range core.AllSemantics {
		prev, _, err := core.RunWith(snap.Fork(), sc.Program, sem, core.Options{Prepared: prep})
		if err != nil {
			t.Fatalf("seed %d: warm-delete prev %s: %v", sc.Seed, sem, err)
		}
		warm := &core.WarmStart{
			PrevResult: prev,
			Inserted:   info.InsertedTuples,
			Deleted:    info.DeletedTuples,
		}
		cold, _, err := core.RunWith(next.Fork(), sc.Program, sem, core.Options{Prepared: prep})
		if err != nil {
			t.Fatalf("seed %d: warm-delete cold %s: %v", sc.Seed, sem, err)
		}
		got, repaired, err := core.RunWith(next.Fork(), sc.Program, sem, core.Options{Prepared: prep, Warm: warm})
		if err != nil {
			t.Fatalf("seed %d: warm-delete warm %s: %v", sc.Seed, sem, err)
		}
		if gotKeys, wantKeys := fmt.Sprintf("%v", got.Keys()), fmt.Sprintf("%v", cold.Keys()); gotKeys != wantKeys {
			t.Fatalf("seed %d: %s warm-delete %s != cold %s\nprogram:\n%s",
				sc.Seed, sem, gotKeys, wantKeys, sc.ProgramSource)
		}
		if stable, err := core.CheckStable(repaired, nil, core.Options{Prepared: prep}); err != nil || !stable {
			t.Fatalf("seed %d: %s warm-delete repaired fork not stable (err=%v)", sc.Seed, sem, err)
		}
	}
}

// stageByDefinition is Def. 3.7 taken literally, sharing no code with the
// stage policy: on a fork, every stage evaluates every rule's operational
// plan against the database the stages before it left and deletes all of
// the new heads at once, until a stage derives none. It returns the
// deleted tuples' content keys, sorted, and the number of stages that
// deleted one.
func stageByDefinition(t *testing.T, db *engine.Database, prep *datalog.Prepared) ([]string, int) {
	t.Helper()
	work := db.Fork()
	var keys []string
	for stage := 0; ; stage++ {
		var heads []*engine.Tuple
		seen := make(map[engine.TupleID]bool)
		for _, pr := range prep.Rules {
			err := pr.EvalOperational(work, nil, func(asn *datalog.Assignment) bool {
				if h := asn.Head(); !seen[h.TID] {
					seen[h.TID] = true
					heads = append(heads, h)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(heads) == 0 {
			slices.Sort(keys)
			return keys, stage
		}
		for _, h := range heads {
			if !work.DeleteTupleToDelta(h) {
				t.Fatalf("stage %d derived %s, which is not live", stage+1, h.Key())
			}
			keys = append(keys, h.Key())
		}
	}
}

// TestGeneratedInvariantsQuick is the fixed-seed CI mode: 500 scenarios,
// every paper invariant, each scenario an independent subtest so failures
// name their seed.
func TestGeneratedInvariantsQuick(t *testing.T) {
	for seed := int64(1); seed <= quickScenarios; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkScenario(t, Generate(seed))
		})
	}
}

// soakBase makes `go test -count=N` cover disjoint seed blocks: each run
// of the soak test claims the next block, so repeated runs explore new
// scenarios instead of re-checking the same ones.
var soakBase atomic.Int64

// TestGeneratedInvariantsSoak scales beyond CI: set GEN_SOAK to a scenario
// count (and optionally -count to multiply runs over fresh seed blocks):
//
//	GEN_SOAK=5000 go test -race -run Soak -count=4 ./internal/gen
func TestGeneratedInvariantsSoak(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("GEN_SOAK"))
	if n <= 0 {
		t.Skip("set GEN_SOAK=<scenarios> to run the soak suite")
	}
	base := soakBase.Add(int64(n)) - int64(n)
	// Soak seeds live far above the quick block so the two modes never
	// overlap.
	const soakOffset = 1 << 20
	for i := 0; i < n; i++ {
		seed := soakOffset + base + int64(i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkScenario(t, Generate(seed))
		})
	}
}

// TestGeneratorDeterminism: the same seed yields the same scenario.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.SchemaSource != b.SchemaSource || a.ProgramSource != b.ProgramSource {
			t.Fatalf("seed %d: generator nondeterministic", seed)
		}
		if a.DB.TotalTuples() != b.DB.TotalTuples() {
			t.Fatalf("seed %d: database nondeterministic", seed)
		}
	}
}

// TestGeneratorCoversBothShapes: the seed space must exercise recursive
// and non-recursive programs, and non-trivial databases.
func TestGeneratorCoversBothShapes(t *testing.T) {
	recursive, acyclic, nonEmpty, firing := 0, 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		if sc.Program.Recursive {
			recursive++
		} else {
			acyclic++
		}
		if sc.DB.TotalTuples() > 0 {
			nonEmpty++
		}
		if stable, _ := core.CheckStable(sc.DB, sc.Program, core.Options{}); !stable {
			firing++
		}
	}
	if recursive == 0 || acyclic == 0 {
		t.Errorf("shape coverage: %d recursive, %d acyclic — want both", recursive, acyclic)
	}
	if nonEmpty < 150 {
		t.Errorf("only %d/200 scenarios have tuples", nonEmpty)
	}
	// Scenarios where no rule fires are legal but boring; most seeds must
	// produce actual repair work.
	if firing < 50 {
		t.Errorf("only %d/200 scenarios are unstable (have repair work)", firing)
	}
}

// TestGenerateWithPartialConfig: unspecified bounds default instead of
// panicking inside the generator.
func TestGenerateWithPartialConfig(t *testing.T) {
	sc, err := GenerateWith(1, Config{MaxRelations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Program == nil || sc.DB == nil {
		t.Fatal("partial config produced an incomplete scenario")
	}
	if _, err := GenerateWith(2, Config{MaxRules: 1, MaxExtraAtoms: 0, MaxTuplesPerRelation: 0}); err != nil {
		t.Fatal(err)
	}
}
