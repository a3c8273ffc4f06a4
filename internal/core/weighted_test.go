package core

import (
	"testing"

	"repro/internal/engine"
)

// TestWeightedIndependentRunningExample: with AuthGrant links made
// expensive, the minimum-weight repair abandons the paper's {g2, ag2, ag3}
// in favor of the cascade through authors and writes — demonstrating the
// minimum-weight generalization of the paper's cardinality metric.
func TestWeightedIndependentRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)

	// Baseline: cardinality-minimum is {g2, ag2, ag3}.
	base, _, err := RunWith(db, p, SemIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Size() != 3 || base.RepairCost != 3 {
		t.Fatalf("baseline: size %d cost %d", base.Size(), base.RepairCost)
	}

	// AuthGrant deletions cost 10: {g2, ag2, ag3} now costs 21, while
	// {g2, a2, a3, w1, w2} costs 5 — the solver must switch.
	weighted, _, err := RunWith(db, p, SemIndependent, Options{Independent: IndependentOptions{
		Weight: func(tp *engine.Tuple) int64 {
			if tp.Rel == "AuthGrant" {
				return 10
			}
			return 1
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !weighted.Optimal {
		t.Fatal("tiny instance should be proven optimal")
	}
	if weighted.RepairCost != 5 {
		t.Fatalf("weighted cost = %d (%v), want 5", weighted.RepairCost, weighted.Keys())
	}
	by := weighted.ByRelation()
	if by["AuthGrant"] != 0 {
		t.Fatalf("weighted repair must avoid AuthGrant: %v", by)
	}
	mustStable(t, db, p, weighted)
}

// TestWeightedIndependentMildWeightKeepsOptimum: a small penalty that does
// not flip the balance keeps the cardinality-optimal set, with its cost
// reported under the weighted metric.
func TestWeightedIndependentMildWeightKeepsOptimum(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	res, _, err := RunWith(db, p, SemIndependent, Options{Independent: IndependentOptions{
		Weight: func(tp *engine.Tuple) int64 {
			if tp.Rel == "Grant" {
				return 2
			}
			return 1
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// {g2, ag2, ag3} costs 2+1+1 = 4; the cascade alternative costs 5.
	if res.RepairCost != 4 || res.Size() != 3 {
		t.Fatalf("cost = %d size = %d (%v)", res.RepairCost, res.Size(), res.Keys())
	}
}

// TestWeightedIndependentStillStabilizes on random instances with a
// relation-based weight function.
func TestWeightedIndependentStillStabilizes(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		db, p, err := randomInstance(seed)
		if err != nil {
			continue
		}
		res, _, err := RunWith(db, p, SemIndependent, Options{Independent: IndependentOptions{
			Weight: func(tp *engine.Tuple) int64 {
				if tp.Rel == "R2" {
					return 3
				}
				return 1
			},
		}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := applyVerified(db, p, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Cost accounting: recompute and compare.
		var want int64
		for _, tp := range res.Deleted {
			if tp.Rel == "R2" {
				want += 3
			} else {
				want++
			}
		}
		if res.RepairCost != want {
			t.Fatalf("seed %d: reported cost %d, recomputed %d", seed, res.RepairCost, want)
		}
	}
}
