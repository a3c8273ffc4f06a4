package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// randomInstance builds a random small database and a random valid delta
// program, deterministically from a seed. Databases use a tiny value domain
// so joins actually hit; programs mix condition rules, cascades, and
// DC-style multi-head rules.
func randomInstance(seed int64) (*engine.Database, *datalog.Program, error) {
	rng := rand.New(rand.NewSource(seed))
	s := engine.NewSchema()
	s.MustAddRelation("R1", "r", "a")
	s.MustAddRelation("R2", "q", "a", "b")
	s.MustAddRelation("R3", "u", "a")

	db := engine.NewDatabase(s)
	dom := 1 + rng.Intn(4)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		db.MustInsert("R1", engine.Int(rng.Intn(dom)))
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		db.MustInsert("R2", engine.Int(rng.Intn(dom)), engine.Int(rng.Intn(dom)))
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		db.MustInsert("R3", engine.Int(rng.Intn(dom)))
	}

	rels := []struct {
		name  string
		arity int
	}{{"R1", 1}, {"R2", 2}, {"R3", 1}}

	varPool := []string{"x", "y", "z", "w"}
	nRules := 1 + rng.Intn(3)
	var rules []*datalog.Rule
	for ri := 0; ri < nRules; ri++ {
		hi := rng.Intn(len(rels))
		head := rels[hi]
		headTerms := make([]datalog.Term, head.arity)
		for i := range headTerms {
			headTerms[i] = datalog.V(varPool[i]) // distinct head vars
		}
		body := []datalog.Atom{{Rel: head.name, Terms: headTerms}}
		// 0-2 extra atoms, possibly delta, sharing variables.
		for ei, nExtra := 0, rng.Intn(3); ei < nExtra; ei++ {
			bi := rng.Intn(len(rels))
			b := rels[bi]
			terms := make([]datalog.Term, b.arity)
			for i := range terms {
				terms[i] = datalog.V(varPool[rng.Intn(len(varPool))])
			}
			body = append(body, datalog.Atom{
				Delta: rng.Intn(3) == 0, // one third delta atoms
				Rel:   b.name,
				Terms: terms,
			})
		}
		var comps []datalog.Comparison
		if rng.Intn(3) == 0 {
			comps = append(comps, datalog.Comparison{
				Left:  datalog.V(varPool[0]),
				Op:    datalog.CompOp(rng.Intn(6)),
				Right: datalog.C(engine.Int64(int64(rng.Intn(4)))),
			})
		}
		rules = append(rules, datalog.NewRule(fmt.Sprint(ri), datalog.Atom{Delta: true, Rel: head.name, Terms: headTerms}, body, comps...))
	}
	p := datalog.NewProgram(rules...)
	if err := p.Validate(s); err != nil {
		return nil, nil, err
	}
	return db, p, nil
}

// TestPropertyAllSemanticsStabilize: for random instances, every executor's
// output is a stabilizing set (Prop. 3.18 / Defs. 3.3-3.10).
func TestPropertyAllSemanticsStabilize(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			t.Logf("seed %d: instance generation failed: %v", seed, err)
			return false
		}
		for _, sem := range AllSemantics {
			res, _, err := RunWith(db, p, sem, Options{})
			if err != nil {
				t.Logf("seed %d %s: %v", seed, sem, err)
				return false
			}
			if _, err := applyVerified(db, p, res); err != nil {
				t.Logf("seed %d %s: %v", seed, sem, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyContainmentAndSizes: Stage ⊆ End, Step ⊆ End, and |Ind| is no
// larger than any other result (Prop. 3.20 item 1, using the exact solver).
func TestPropertyContainmentAndSizes(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		rs, err := RunAll(db, p, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		c := CheckContainment(rs)
		if !c.StageInEnd {
			t.Logf("seed %d: Stage ⊄ End", seed)
			return false
		}
		if !c.StepInEnd {
			t.Logf("seed %d: Step ⊄ End", seed)
			return false
		}
		if !rs[SemIndependent].Optimal {
			return true // solver budget exhausted: size bound not guaranteed
		}
		if !c.IndLeStage || !c.IndLeStep {
			t.Logf("seed %d: |Ind|=%d > |Stage|=%d or |Step|=%d", seed,
				rs[SemIndependent].Size(), rs[SemStage].Size(), rs[SemStep].Size())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGreedyStepVsExhaustive: the true Step minimum never exceeds
// the greedy Algorithm 2 output, and |Ind| ≤ |Step| with exact solvers.
func TestPropertyGreedyStepVsExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		greedy, _, err := RunWith(db, p, SemStep, Options{})
		if err != nil {
			t.Logf("seed %d greedy: %v", seed, err)
			return false
		}
		exh, _, err := RunStepExhaustive(db, p, StepExhaustiveOptions{MaxStates: 30000})
		if err != nil {
			return true // state budget blown: skip comparison
		}
		if exh.Size() > greedy.Size() {
			t.Logf("seed %d: exhaustive %d > greedy %d", seed, exh.Size(), greedy.Size())
			return false
		}
		ind, _, err := RunWith(db, p, SemIndependent, Options{})
		if err != nil {
			t.Logf("seed %d ind: %v", seed, err)
			return false
		}
		if ind.Optimal && ind.Size() > exh.Size() {
			t.Logf("seed %d: |Ind|=%d > |Step*|=%d", seed, ind.Size(), exh.Size())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStageEndRuleOrderInvariance: stage and end results are unique
// fixpoints (Prop. 3.9), so permuting the program's rules cannot change them.
func TestPropertyStageEndRuleOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		perm := rng.Perm(len(p.Rules))
		rules := make([]*datalog.Rule, len(p.Rules))
		for i, j := range perm {
			rules[i] = p.Rules[j]
		}
		p2 := datalog.NewProgram(rules...)
		if err := p2.Validate(db.Schema); err != nil {
			return false
		}
		for _, sem := range []Semantics{SemEnd, SemStage} {
			a, _, err1 := RunWith(db, p, sem, Options{})
			b, _, err2 := RunWith(db, p2, sem, Options{})
			if err1 != nil || err2 != nil {
				t.Logf("seed %d: %v %v", seed, err1, err2)
				return false
			}
			if !a.SameSet(b) {
				t.Logf("seed %d: %s differs under rule permutation: %v vs %v",
					seed, sem, a.Keys(), b.Keys())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeterminism: running any semantics twice yields identical
// results (full pipeline determinism, including SAT tie-breaking and greedy
// traversal ordering).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		for _, sem := range AllSemantics {
			a, _, err1 := RunWith(db, p, sem, Options{})
			b, _, err2 := RunWith(db, p, sem, Options{})
			if err1 != nil || err2 != nil {
				return false
			}
			if !a.SameSet(b) {
				t.Logf("seed %d: %s nondeterministic: %v vs %v", seed, sem, a.Keys(), b.Keys())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRandomStepSubsetOfEnd: any random step execution deletes only
// end-derivable tuples and stabilizes.
func TestPropertyRandomStepSubsetOfEnd(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		endRes, _, err := RunWith(db, p, SemEnd, Options{})
		if err != nil {
			return false
		}
		res, _, err := RunStepRandom(db, p, seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !res.SubsetOf(endRes) {
			t.Logf("seed %d: random step escaped End", seed)
			return false
		}
		if _, err := applyVerified(db, p, res); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestStabilityHelpers covers FirstViolation and IsStabilizing directly.
func TestStabilityHelpers(t *testing.T) {
	db := academicDB()
	p := academicProgram(t)
	w, err := FirstViolation(db, p)
	if err != nil || w == nil {
		t.Fatalf("unstable database must have a violation witness, got %v, %v", w, err)
	}
	if w.Head().ID != "g2" {
		t.Fatalf("first violation should be rule (0) on g2, got %v", w.Head())
	}
	ok, err := IsStabilizing(db, p, []string{})
	if err != nil || ok {
		t.Fatal("empty set must not stabilize an unstable database")
	}
	// The whole database is always a stabilizing set (Prop. 3.18).
	var all []string
	for _, rs := range db.Schema.Relations {
		all = append(all, db.Relation(rs.Name).Keys()...)
	}
	ok, err = IsStabilizing(db, p, all)
	if err != nil || !ok {
		t.Fatalf("the full database must be stabilizing: %v, %v", ok, err)
	}
	// applyVerified with a bogus result errors.
	bogus := newResult(SemEnd, nil)
	if _, err := applyVerified(db, p, bogus); err == nil {
		t.Fatal("applying a non-stabilizing result should error")
	}
}

// TestExhaustiveStepBudget exercises the state-budget failure path.
func TestExhaustiveStepBudget(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	if _, _, err := RunStepExhaustive(db, p, StepExhaustiveOptions{MaxStates: 3}); err == nil {
		t.Fatal("tiny state budget should error")
	}
}

// TestIndependentClauseBudget exercises the formula-cap failure path.
func TestIndependentClauseBudget(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	if _, _, err := RunWith(db, p, SemIndependent, Options{Independent: IndependentOptions{MaxClauses: 1}}); err == nil {
		t.Fatal("tiny clause budget should error")
	}
}

// TestIndependentPreferenceToggle: with and without the derivable-tuple
// preference the result size must be identical (both optimal), though the
// chosen set may differ.
func TestIndependentPreferenceToggle(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	a, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunWith(db, p, SemIndependent, Options{Independent: IndependentOptions{DisablePreferDerivable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatalf("preference changed optimal size: %d vs %d", a.Size(), b.Size())
	}
}

// applyVerified deletes the result's stabilizing set from a fork of db and
// returns the repaired database; it verifies stability and errors if the
// set does not stabilize (which would indicate an executor bug).
func applyVerified(db *engine.Database, p *datalog.Program, res *Result) (*engine.Database, error) {
	work, err := Materialize(db, res)
	if err != nil {
		return nil, err
	}
	stable, err := CheckStable(work, p, Options{})
	if err != nil {
		return nil, err
	}
	if !stable {
		w, _ := FirstViolation(work, p)
		return nil, fmt.Errorf("core: %s result of size %d does not stabilize the database (witness: %v)",
			res.Semantics, res.Size(), w)
	}
	return work, nil
}
