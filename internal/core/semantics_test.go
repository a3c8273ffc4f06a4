package core

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// TestEndSemanticsRunningExample checks Example 3.11 / 1.3: End(P, D) =
// {g2, a2, a3, w1, w2, p1, p2, c}.
func TestEndSemanticsRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, repaired, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, res, "g2", "a2", "a3", "w1", "w2", "p1", "p2", "c1")
	mustStable(t, db, p, res)
	// The repaired database of Figure 4: only g1, ag*, a1 remain plus empty
	// Writes/Pub/Cite.
	if repaired.Relation("Writes").Len() != 0 || repaired.Relation("Pub").Len() != 0 ||
		repaired.Relation("Cite").Len() != 0 {
		t.Fatal("end semantics should empty Writes, Pub, Cite")
	}
	if repaired.Relation("Author").Len() != 1 || repaired.Relation("Grant").Len() != 1 {
		t.Fatal("end semantics should keep a1 and g1")
	}
	if repaired.Relation("AuthGrant").Len() != 3 {
		t.Fatal("AuthGrant should be untouched")
	}
	// Deltas recorded.
	if repaired.Delta("Author").Len() != 2 || repaired.Delta("Cite").Len() != 1 {
		t.Fatal("delta relations not recorded")
	}
	// Derivation takes 4 rounds (layers of Figure 5).
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Rounds)
	}
	// The input database must be untouched.
	if db.TotalTuples() != 13 || db.TotalDeltaTuples() != 0 {
		t.Fatal("input database was mutated")
	}
}

// TestStageSemanticsRunningExample checks Example 3.8: Stage(P, D) =
// {g2, a2, a3, w1, w2, p1, p2} — the Cite tuple survives because Writes is
// already empty when rule (4) could fire.
func TestStageSemanticsRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, repaired, err := RunWith(db, p, SemStage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, res, "g2", "a2", "a3", "w1", "w2", "p1", "p2")
	mustStable(t, db, p, res)
	if repaired.Relation("Cite").Len() != 1 {
		t.Fatal("stage semantics must keep the Cite tuple")
	}
	if res.Rounds != 3 {
		t.Fatalf("stages = %d, want 3", res.Rounds)
	}
}

// TestStepGreedyRunningExample checks Example 5.2: Algorithm 2 returns
// S = {g2, a2, a3, w1, w2}.
func TestStepGreedyRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, repaired, err := RunWith(db, p, SemStep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, res, "g2", "a2", "a3", "w1", "w2")
	mustStable(t, db, p, res)
	if repaired.Relation("Pub").Len() != 2 {
		t.Fatal("step semantics must keep both publications")
	}
	if res.GraphAssignments == 0 {
		t.Fatal("provenance graph diagnostics missing")
	}
}

// TestStepExhaustiveRunningExample: the true Step(P, D) minimum is also 5
// (Example 1.3 modulo the initiating tuple g2, which the formal definition
// S = D⁰ \ Dᵗ includes).
func TestStepExhaustiveRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, _, err := RunStepExhaustive(db, p, StepExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 5 {
		t.Fatalf("exhaustive step size = %d (%v), want 5", res.Size(), res.Keys())
	}
	if !res.Optimal {
		t.Fatal("exhaustive search should mark results optimal")
	}
	mustStable(t, db, p, res)
}

// TestIndependentRunningExample checks Examples 3.4 and 5.1:
// Ind(P, D) = {g2, ag2, ag3}.
func TestIndependentRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, repaired, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, res, "g2", "ag2", "ag3")
	if !res.Optimal {
		t.Fatal("solver should prove optimality on the running example")
	}
	mustStable(t, db, p, res)
	// Figure 4 (independent): authors survive, links are gone.
	if repaired.Relation("Author").Len() != 3 {
		t.Fatal("independent semantics must keep all authors")
	}
	if repaired.Relation("AuthGrant").Len() != 1 {
		t.Fatal("independent semantics should keep only ag1")
	}
	if res.FormulaClauses == 0 || res.SolverNodes == 0 {
		t.Fatalf("diagnostics missing: %+v", res)
	}
}

// TestRandomStepIsStabilizing: any nondeterministic step execution yields a
// stabilizing set (Prop. 3.18) that contains the end result's bound.
func TestRandomStepIsStabilizing(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	endRes, _, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		res, _, err := RunStepRandom(db, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		mustStable(t, db, p, res)
		if !res.SubsetOf(endRes) {
			t.Fatalf("seed %d: step execution deleted tuples outside End: %v", seed, res.Keys())
		}
		if res.Size() < 5 {
			t.Fatalf("seed %d: no step execution can beat the minimum 5, got %d", seed, res.Size())
		}
	}
}

// TestRelationshipsRunningExample verifies the Figure 3 relationships on the
// running example: |Ind| ≤ |Step| ≤ ... and Stage, Step ⊆ End.
func TestRelationshipsRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	rs, err := RunAll(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := CheckContainment(rs)
	if !c.StageInEnd || !c.StepInEnd {
		t.Fatalf("Stage/Step must be contained in End: %+v", c)
	}
	if !c.IndLeStep || !c.IndLeStage {
		t.Fatalf("|Ind| must be ≤ |Step|, |Stage|: %+v", c)
	}
	// For this program the independent result ({g2, ag2, ag3}) is NOT
	// contained in step or stage (AuthGrant tuples are not derivable).
	if c.IndInStage || c.IndInStep {
		t.Fatalf("Ind ⊆ Stage/Step should not hold here: %+v", c)
	}
	if c.StepEqStage {
		t.Fatal("Step and Stage differ on the running example")
	}
	// Sizes per Example 1.3 (+g2): 3, 5, 7, 8.
	sizes := []int{rs[SemIndependent].Size(), rs[SemStep].Size(), rs[SemStage].Size(), rs[SemEnd].Size()}
	want := []int{3, 5, 7, 8}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

// TestProposition319 reproduces the two-result construction: D = {R1(a),
// R2(b)} with rules ∆1(x) :- R1(x), R2(y) and ∆2(y) :- R1(x), R2(y). Both
// independent and step semantics have two minimum results of size 1; our
// deterministic executors must return one of them.
func TestProposition319(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("R1", "r", "a")
	s.MustAddRelation("R2", "q", "a")
	db := engine.NewDatabase(s)
	db.MustInsert("R1", engine.Str("a"))
	db.MustInsert("R2", engine.Str("b"))
	p, err := datalog.ParseAndValidate(`
Delta_R1(x) :- R1(x), R2(y).
Delta_R2(y) :- R1(x), R2(y).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	indRes, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if indRes.Size() != 1 {
		t.Fatalf("Ind size = %d, want 1", indRes.Size())
	}
	stepRes, _, err := RunStepExhaustive(db, p, StepExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stepRes.Size() != 1 {
		t.Fatalf("Step size = %d, want 1", stepRes.Size())
	}
	greedyRes, _, err := RunWith(db, p, SemStep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if greedyRes.Size() != 1 {
		t.Fatalf("greedy step size = %d, want 1", greedyRes.Size())
	}
	mustStable(t, db, p, indRes)
	mustStable(t, db, p, stepRes)
	mustStable(t, db, p, greedyRes)
	// End and Stage delete both tuples.
	endRes, _, _ := RunWith(db, p, SemEnd, Options{})
	if endRes.Size() != 2 {
		t.Fatalf("End size = %d, want 2", endRes.Size())
	}
}

// TestProposition320Item1 uses the proof's construction: R1(a1..an), R2(b)
// with the single rule ∆1(x) :- R1(x), R2(y). Ind = {b} (size 1); every
// other semantics must delete all n R1 tuples.
func TestProposition320Item1(t *testing.T) {
	const n = 6
	s := engine.NewSchema()
	s.MustAddRelation("R1", "r", "a")
	s.MustAddRelation("R2", "q", "a")
	db := engine.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("R1", engine.Int(i))
	}
	db.MustInsert("R2", engine.Str("b"))
	p, err := datalog.ParseAndValidate("Delta_R1(x) :- R1(x), R2(y).", s)
	if err != nil {
		t.Fatal(err)
	}
	ind, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Size() != 1 || ind.Deleted[0].Rel != "R2" {
		t.Fatalf("Ind = %v, want the single R2 tuple", ind.Keys())
	}
	for _, sem := range []Semantics{SemEnd, SemStage, SemStep} {
		res, _, err := RunWith(db, p, sem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != n {
			t.Fatalf("%s size = %d, want %d", sem, res.Size(), n)
		}
		mustStable(t, db, p, res)
	}
}

// TestProposition320Item2 uses the chain construction where End strictly
// contains Stage: rules (1) ∆1(x) :- R1(x); (2) ∆2(x) :- ∆1(x), R2(x);
// (3) ∆3(y) :- R1(x), ∆2(x), R3(y). Stage stops after {R1(a), R2(a)};
// End also deletes every R3 tuple.
func TestProposition320Item2(t *testing.T) {
	const n = 5
	s := engine.NewSchema()
	s.MustAddRelation("R1", "r", "a")
	s.MustAddRelation("R2", "q", "a")
	s.MustAddRelation("R3", "u", "a")
	db := engine.NewDatabase(s)
	db.MustInsert("R1", engine.Str("a"))
	db.MustInsert("R2", engine.Str("a"))
	for i := 0; i < n; i++ {
		db.MustInsert("R3", engine.Int(i))
	}
	p, err := datalog.ParseAndValidate(`
Delta_R1(x) :- R1(x).
Delta_R2(x) :- R2(x), Delta_R1(x).
Delta_R3(y) :- R3(y), R1(x), Delta_R2(x).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	stage, _, err := RunWith(db, p, SemStage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	end, _, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stage.Size() != 2 {
		t.Fatalf("Stage size = %d (%v), want 2", stage.Size(), stage.Keys())
	}
	if end.Size() != n+2 {
		t.Fatalf("End size = %d, want %d", end.Size(), n+2)
	}
	if !stage.SubsetOf(end) || stage.SameSet(end) {
		t.Fatal("Stage must be strictly contained in End")
	}
	mustStable(t, db, p, stage)
	mustStable(t, db, p, end)
}

// TestProposition320Item4Part1 is the Step ⊊ Stage construction: two rules
// with the same body R1(x), R2(y) and heads ∆1(x) / ∆2(y). Stage deletes
// everything; one step execution deletes only R1(a).
func TestProposition320Item4Part1(t *testing.T) {
	const n = 4
	s := engine.NewSchema()
	s.MustAddRelation("R1", "r", "a")
	s.MustAddRelation("R2", "q", "a")
	db := engine.NewDatabase(s)
	db.MustInsert("R1", engine.Str("a"))
	for i := 0; i < n; i++ {
		db.MustInsert("R2", engine.Int(i))
	}
	p, err := datalog.ParseAndValidate(`
Delta_R1(x) :- R1(x), R2(y).
Delta_R2(y) :- R1(x), R2(y).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	stage, _, err := RunWith(db, p, SemStage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stage.Size() != n+1 {
		t.Fatalf("Stage size = %d, want %d (the whole database)", stage.Size(), n+1)
	}
	step, _, err := RunWith(db, p, SemStep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if step.Size() != 1 || step.Deleted[0].Rel != "R1" {
		t.Fatalf("greedy step = %v, want just R1(a)", step.Keys())
	}
	exh, _, err := RunStepExhaustive(db, p, StepExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Size() != 1 {
		t.Fatalf("exhaustive step size = %d, want 1", exh.Size())
	}
	mustStable(t, db, p, step)
}

// TestProposition320Item4Part2 is the Stage ⊊ Step construction (proof of
// item 4, part 2): stage stops at {R1(a), R2(b)} while every step execution
// is forced through all R3 tuples.
func TestProposition320Item4Part2(t *testing.T) {
	const n = 4
	s := engine.NewSchema()
	s.MustAddRelation("R1", "r", "a")
	s.MustAddRelation("R2", "q", "a")
	s.MustAddRelation("R3", "u", "a")
	db := engine.NewDatabase(s)
	db.MustInsert("R1", engine.Str("a"))
	db.MustInsert("R2", engine.Str("b"))
	for i := 0; i < n; i++ {
		db.MustInsert("R3", engine.Int(i))
	}
	p, err := datalog.ParseAndValidate(`
Delta_R1(x) :- R1(x), R2(y).
Delta_R2(y) :- R1(x), R2(y).
Delta_R3(z) :- R3(z), Delta_R1(x), R2(y).
Delta_R3(z) :- R3(z), R1(x), Delta_R2(y).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	stage, _, err := RunWith(db, p, SemStage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stage.Size() != 2 {
		t.Fatalf("Stage size = %d (%v), want 2", stage.Size(), stage.Keys())
	}
	step, _, err := RunWith(db, p, SemStep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if step.Size() != n+1 {
		t.Fatalf("greedy step size = %d (%v), want %d", step.Size(), step.Keys(), n+1)
	}
	mustStable(t, db, p, stage)
	mustStable(t, db, p, step)
	// Exhaustive confirms no execution beats n+1.
	exh, _, err := RunStepExhaustive(db, p, StepExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Size() != n+1 {
		t.Fatalf("exhaustive step size = %d, want %d", exh.Size(), n+1)
	}
}

// TestVertexCoverReduction reproduces the Prop. 4.2 reduction on a small
// graph and checks that independent semantics computes a minimum vertex
// cover. Graph: triangle {1,2,3} plus pendant edge 3-4; min VC = {1or2, 3}.
func TestVertexCoverReduction(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("E", "e", "u", "v")
	s.MustAddRelation("VC", "n", "v")
	db := engine.NewDatabase(s)
	edges := [][2]int{{1, 2}, {2, 3}, {1, 3}, {3, 4}}
	for _, e := range edges {
		db.MustInsert("E", engine.Int(e[0]), engine.Int(e[1]))
		db.MustInsert("E", engine.Int(e[1]), engine.Int(e[0]))
	}
	for v := 1; v <= 4; v++ {
		db.MustInsert("VC", engine.Int(v))
	}
	p, err := datalog.ParseAndValidate(`
Delta_VC(x) :- E(x, y), VC(x), VC(y).
Delta_VC(x) :- VC(x), Delta_E(x, y).
Delta_VC(y) :- VC(y), Delta_E(x, y).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	ind, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Size() != 2 {
		t.Fatalf("Ind size = %d (%v), want 2 (min vertex cover)", ind.Size(), ind.Keys())
	}
	for _, tp := range ind.Deleted {
		if tp.Rel != "VC" {
			t.Fatalf("reduction should delete only VC tuples, got %v", tp)
		}
	}
	mustStable(t, db, p, ind)
}

// TestStableDatabaseNeedsNoRepair: on a stable database every semantics
// returns the empty set (Prop. 3.18 footnote).
func TestStableDatabaseNeedsNoRepair(t *testing.T) {
	db := academicDB()
	s := academicSchema()
	// A program whose condition matches nothing.
	p, err := datalog.ParseAndValidate("Delta_Grant(g, n) :- Grant(g, n), n = 'NIH'.", s)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics {
		res, repaired, err := RunWith(db, p, sem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != 0 {
			t.Fatalf("%s deleted %d tuples from a stable database", sem, res.Size())
		}
		if repaired.TotalTuples() != db.TotalTuples() {
			t.Fatalf("%s changed a stable database", sem)
		}
	}
	stable, err := CheckStable(db, p, Options{})
	if err != nil || !stable {
		t.Fatalf("CheckStable = %v, %v", stable, err)
	}
}

// TestPreExistingDeltasSeedDerivation: the "user deletes a specific set of
// tuples" initialization (§3.6) — deltas present before the run cascade.
func TestPreExistingDeltasSeedDerivation(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	// Drop rule (0); instead pre-delete g2 by hand.
	p2 := datalog.NewProgram(p.Rules[1:]...)
	if err := p2.Validate(academicSchema()); err != nil {
		t.Fatal(err)
	}
	work := db.Clone()
	work.DeleteToDelta(engine.ContentKey("Grant", []engine.Value{engine.Int(2), engine.Str("ERC")}))

	res, _, err := RunWith(work, p2, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same cascade as the full program minus the g2 self-derivation:
	// a2, a3, w1, w2, p1, p2, c.
	wantIDs(t, res, "a2", "a3", "w1", "w2", "p1", "p2", "c1")
}

// TestIndependentWithPreExistingDeltas regression-tests the §3.6 user-
// initiated-deletion scenario for Algorithm 1: with g2 already deleted,
// the provenance must still see constraints flowing through the existing
// delta tuple, and the minimum completion is {ag2, ag3}.
func TestIndependentWithPreExistingDeltas(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	work := db.Clone()
	work.DeleteToDelta(engine.ContentKey("Grant", []engine.Value{engine.Int(2), engine.Str("ERC")}))

	res, repaired, err := RunWith(work, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The result reports only NEW deletions: the two AuthGrant links.
	wantIDs(t, res, "ag2", "ag3")
	stable, err := CheckStable(repaired, p, Options{})
	if err != nil || !stable {
		t.Fatal("repair with pre-existing deltas must stabilize")
	}
	// Also with every other semantics for parity.
	for _, sem := range []Semantics{SemEnd, SemStage, SemStep} {
		res, repaired, err := RunWith(work, p, sem, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if ok, _ := CheckStable(repaired, p, Options{}); !ok {
			t.Fatalf("%s: unstable after repair", sem)
		}
		if res.Contains(engine.ContentKey("Grant", []engine.Value{engine.Int(2), engine.Str("ERC")})) {
			t.Fatalf("%s: pre-deleted tuple reported as new deletion", sem)
		}
	}
}

// TestIndependentClosureSeededByPreDeletions: Algorithm 1's formula covers
// the possible-deletion closure of the §3.6 initialization — the tuples
// deleted before the run seed it, and a delta rule contributes clauses only
// through them. Forgetting the seed leaves the formula empty and the
// "repair" unstable.
func TestIndependentClosureSeededByPreDeletions(t *testing.T) {
	schema, err := engine.ParseSchema("A(x)\nB(x)\nC(x)")
	if err != nil {
		t.Fatal(err)
	}
	key := func(rel string, x int) string {
		return engine.ContentKey(rel, []engine.Value{engine.Int(x)})
	}
	cases := []struct {
		name       string
		program    string
		preDeleted []string
		want       []string
		clauses    int
	}{
		{
			name:       "pre-deleted A(1) forces B(1) only",
			program:    "Delta_B(x) :- B(x), Delta_A(x).",
			preDeleted: []string{key("A", 1)},
			want:       []string{key("B", 1)},
			clauses:    1,
		},
		{
			name:    "nothing pre-deleted: no clause can matter",
			program: "Delta_B(x) :- B(x), Delta_A(x).",
		},
		{
			name:       "the closure follows a cascade",
			program:    "Delta_B(x) :- B(x), Delta_A(x).\nDelta_C(x) :- C(x), Delta_B(x).",
			preDeleted: []string{key("A", 1)},
			want:       []string{key("B", 1), key("C", 1)},
			clauses:    2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := datalog.ParseAndValidate(tc.program, schema)
			if err != nil {
				t.Fatal(err)
			}
			db := engine.NewDatabase(schema)
			db.MustInsert("A", engine.Int(1))
			db.MustInsert("B", engine.Int(1))
			db.MustInsert("B", engine.Int(2))
			db.MustInsert("C", engine.Int(1))
			db.MustInsert("C", engine.Int(2))
			for _, k := range tc.preDeleted {
				if !db.DeleteToDelta(k) {
					t.Fatalf("fixture: %s not found", k)
				}
			}
			res, repaired, err := RunWith(db, p, SemIndependent, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Size() != len(tc.want) {
				t.Fatalf("deleted %v, want %v", res.Keys(), tc.want)
			}
			for _, k := range tc.want {
				if !res.Contains(k) {
					t.Fatalf("deleted %v, want %v", res.Keys(), tc.want)
				}
			}
			for _, k := range tc.preDeleted {
				if res.Contains(k) {
					t.Fatalf("pre-deleted %s reported as a new deletion", k)
				}
			}
			if res.FormulaClauses != tc.clauses {
				t.Fatalf("FormulaClauses = %d, want %d", res.FormulaClauses, tc.clauses)
			}
			if stable, err := CheckStable(repaired, p, Options{}); err != nil || !stable {
				t.Fatalf("repaired database not stable (err=%v)", err)
			}
		})
	}
}

func TestRunDispatcherAndErrors(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	if _, _, err := RunWith(db, p, Semantics(99), Options{}); err == nil {
		t.Fatal("unknown semantics should error")
	}
	res, _, err := RunWith(db, p, SemStage, Options{})
	if err != nil || res.Semantics != SemStage {
		t.Fatalf("dispatch failed: %v %v", res, err)
	}
	if Semantics(99).String() == "" {
		t.Fatal("unknown semantics should still render")
	}
	all, err := RunAll(db, p, Options{})
	if err != nil || len(all) != 4 {
		t.Fatalf("RunAll = %v, %v", all, err)
	}
}

func TestResultHelpers(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(engine.ContentKey("Grant", []engine.Value{engine.Int(2), engine.Str("ERC")})) {
		t.Fatal("Contains(g2) should hold")
	}
	by := res.ByRelation()
	if by["AuthGrant"] != 2 || by["Grant"] != 1 {
		t.Fatalf("ByRelation = %v", by)
	}
	if res.String() == "" {
		t.Fatal("String should render")
	}
	if len(res.Keys()) != res.Size() {
		t.Fatal("Keys length mismatch")
	}
}
