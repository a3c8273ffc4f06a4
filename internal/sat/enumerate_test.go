package sat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// trueSet renders an assignment as its set of true variables.
func trueSet(asn []bool) []int {
	var out []int
	for v := 1; v < len(asn); v++ {
		if asn[v] {
			out = append(out, v)
		}
	}
	return out
}

// bruteMinimalSolutions enumerates all set-minimal satisfying assignments
// of f (no other satisfying assignment is a strict subset), as sets of
// true variables. Only usable for small n.
func bruteMinimalSolutions(f *Formula) [][]int {
	n := f.NumVars()
	var sats []uint
	asn := make([]bool, n+1)
	for mask := uint(0); mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			asn[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(asn) {
			sats = append(sats, mask)
		}
	}
	var out [][]int
	for _, m := range sats {
		minimal := true
		for _, o := range sats {
			if o != m && o&m == o {
				minimal = false
				break
			}
		}
		if minimal {
			var set []int
			for v := 1; v <= n; v++ {
				if m&(1<<(v-1)) != 0 {
					set = append(set, v)
				}
			}
			out = append(out, set)
		}
	}
	return out
}

// chainFormula builds (x1 ∨ x2) ∧ (x2 ∨ x3) ∧ (x3 ∨ x4): minimal
// solutions {2,3}, {2,4}, {1,3}, {1,2,4}... computed by brute force in the
// tests rather than by hand.
func chainFormula(t *testing.T) *Formula {
	t.Helper()
	f := NewFormula(4)
	for _, c := range [][]int{{1, 2}, {2, 3}, {3, 4}} {
		if _, err := f.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestEnumerateFirstMatchesMinOnes(t *testing.T) {
	single := MinOnes(chainFormula(t), Options{})
	enum := EnumerateMinOnes(chainFormula(t), 1, false, Options{})
	if len(enum.Solutions) != 1 {
		t.Fatalf("k=1 returned %d solutions", len(enum.Solutions))
	}
	got := enum.Solutions[0]
	if !reflect.DeepEqual(got.Assignment, single.Assignment) ||
		got.Cost != single.Cost || got.WeightedCost != single.WeightedCost ||
		got.Optimal != single.Optimal || got.Nodes != single.Nodes {
		t.Fatalf("k=1 solution %+v != single MinOnes %+v", got, single)
	}
	if enum.Complete {
		t.Fatal("k=1 on a multi-solution formula must not report Complete")
	}
}

func TestEnumerateAllMinimalSolutions(t *testing.T) {
	want := bruteMinimalSolutions(chainFormula(t))
	enum := EnumerateMinOnes(chainFormula(t), 64, false, Options{})
	if !enum.Complete || !enum.Optimal {
		t.Fatalf("enum flags = %+v", enum)
	}
	if len(enum.Solutions) != len(want) {
		t.Fatalf("enumerated %d solutions, brute force found %d minimal", len(enum.Solutions), len(want))
	}
	// Every enumerated solution is one of the brute-force minimal sets,
	// each exactly once, and costs never decrease.
	seen := make(map[string]bool)
	for i, sol := range enum.Solutions {
		set := trueSet(sol.Assignment)
		key := ""
		for _, v := range set {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Fatalf("solution %v enumerated twice", set)
		}
		seen[key] = true
		found := false
		for _, w := range want {
			if reflect.DeepEqual(set, w) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("enumerated non-minimal solution %v", set)
		}
		if i > 0 && sol.WeightedCost < enum.Solutions[i-1].WeightedCost {
			t.Fatalf("cost order violated at %d: %d < %d", i, sol.WeightedCost, enum.Solutions[i-1].WeightedCost)
		}
	}
}

func TestEnumerateMinCostOnly(t *testing.T) {
	f := chainFormula(t)
	minCost := MinOnes(chainFormula(t), Options{}).WeightedCost
	enum := EnumerateMinOnes(f, 64, true, Options{})
	if !enum.Complete || !enum.Optimal {
		t.Fatalf("enum flags = %+v", enum)
	}
	if len(enum.Solutions) == 0 {
		t.Fatal("no solutions")
	}
	for _, sol := range enum.Solutions {
		if sol.WeightedCost != minCost {
			t.Fatalf("minCostOnly returned cost %d, want %d", sol.WeightedCost, minCost)
		}
	}
	// Cross-check the tie count against the set-minimal enumeration.
	all := EnumerateMinOnes(chainFormula(t), 64, false, Options{})
	ties := 0
	for _, sol := range all.Solutions {
		if sol.WeightedCost == minCost {
			ties++
		}
	}
	if len(enum.Solutions) != ties {
		t.Fatalf("minCostOnly found %d solutions, set-minimal enumeration has %d ties", len(enum.Solutions), ties)
	}
}

func TestEnumerateForcedSingleton(t *testing.T) {
	// x1 forced true and nothing else constrainable: the only set-minimal
	// solution is {1}; blocking it must terminate the enumeration.
	f := NewFormula(2)
	if _, err := f.AddClause(1); err != nil {
		t.Fatal(err)
	}
	enum := EnumerateMinOnes(f, 8, false, Options{})
	if len(enum.Solutions) != 1 || !enum.Complete || !enum.Optimal {
		t.Fatalf("enum = %+v", enum)
	}
	if got := trueSet(enum.Solutions[0].Assignment); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("solution = %v, want [1]", got)
	}
}

func TestEnumerateEmptySolutionCompletes(t *testing.T) {
	// (¬x1 ∨ ¬x2) is satisfied by the empty set: one solution, then the
	// empty blocking clause proves completeness.
	f := NewFormula(2)
	if _, err := f.AddClause(-1, -2); err != nil {
		t.Fatal(err)
	}
	enum := EnumerateMinOnes(f, 4, false, Options{})
	if len(enum.Solutions) != 1 || enum.Solutions[0].Cost != 0 || !enum.Complete {
		t.Fatalf("enum = %+v", enum)
	}
}

func TestEnumerateUnsat(t *testing.T) {
	f := NewFormula(1)
	if _, err := f.AddClause(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddClause(-1); err != nil {
		t.Fatal(err)
	}
	enum := EnumerateMinOnes(f, 4, false, Options{})
	if len(enum.Solutions) != 0 || !enum.Complete || !enum.Optimal {
		t.Fatalf("enum = %+v", enum)
	}
}

func TestEnumerateBudgetTruncation(t *testing.T) {
	// A 1-node budget on a random vertex-cover formula (all-positive
	// 2-literal clauses — no root propagation, real branching) exhausts
	// mid-search; the enumeration must stop after the best-effort solution
	// and say so.
	f := NewFormula(20)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		if _, err := f.AddClause(rng.Intn(20)+1, rng.Intn(20)+1); err != nil {
			t.Fatal(err)
		}
	}
	enum := EnumerateMinOnes(f, 8, false, Options{MaxNodes: 1})
	if enum.Optimal {
		t.Fatal("1-node budget reported Optimal")
	}
	if enum.Complete {
		t.Fatal("truncated enumeration reported Complete")
	}
	if len(enum.Solutions) > 1 {
		t.Fatalf("enumeration continued past a truncated solve: %d solutions", len(enum.Solutions))
	}
	for _, sol := range enum.Solutions {
		if sol.Optimal {
			t.Fatal("truncated solve marked its solution Optimal")
		}
		if !f.Eval(sol.Assignment) {
			t.Fatal("best-effort solution does not satisfy the formula")
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	build := func() *Formula {
		f := NewFormula(10)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 25; i++ {
			lits := []int{rng.Intn(10) + 1, rng.Intn(10) + 1, rng.Intn(10) + 1}
			if _, err := f.AddClause(lits...); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	a := EnumerateMinOnes(build(), 6, false, Options{})
	b := EnumerateMinOnes(build(), 6, false, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("enumeration not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}

// TestEnumerateLeavesFormulaUnchanged: the blocking clauses go into a fork,
// so the formula enumerated keeps its clauses and its dedup table — also
// when the fork's first blocking clause grows the fork's table (256 clauses
// fill a table exactly).
func TestEnumerateLeavesFormulaUnchanged(t *testing.T) {
	f := NewFormula(20)
	rng := rand.New(rand.NewSource(5))
	for f.NumClauses() < 256 {
		if _, err := f.AddClause(rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(20)+1); err != nil {
			t.Fatal(err)
		}
	}
	clauses, buckets, next := f.DIMACS(), slices.Clone(f.buckets), slices.Clone(f.next)
	first := EnumerateMinOnes(f, 4, false, Options{})
	if len(first.Solutions) < 2 || len(buckets) != f.NumClauses() {
		t.Fatalf("fixture: %d solutions, a %d-bucket table; want ≥ 2 and %d", len(first.Solutions), len(buckets), f.NumClauses())
	}
	if f.DIMACS() != clauses || !slices.Equal(f.buckets, buckets) || !slices.Equal(f.next, next) {
		t.Fatal("enumeration changed the formula's clauses or its dedup table")
	}
	if again := EnumerateMinOnes(f, 4, false, Options{}); !reflect.DeepEqual(first, again) {
		t.Fatalf("a second enumeration differs:\n%+v\n%+v", first, again)
	}
}
