package sat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// DIMACS renders the formula in DIMACS CNF format, for failure messages.
func (f *Formula) DIMACS() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.numVars, f.NumClauses())
	for ci := range f.NumClauses() {
		for _, l := range f.Clause(ci) {
			fmt.Fprintf(&b, "%d ", l)
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// bruteMinOnes computes the exact Min-Ones cost by enumerating all 2^n
// assignments; -1 when unsatisfiable. Only usable for small n.
func bruteMinOnes(f *Formula) int {
	n := f.NumVars()
	best := -1
	asn := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		ones := 0
		for v := 1; v <= n; v++ {
			asn[v] = mask&(1<<(v-1)) != 0
			if asn[v] {
				ones++
			}
		}
		if f.Eval(asn) && (best < 0 || ones < best) {
			best = ones
		}
	}
	return best
}

func TestMinOnesTrivial(t *testing.T) {
	f := NewFormula(2)
	// (x1) ∧ (¬x2): forced x1=true, x2=false.
	if _, err := f.AddClause(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddClause(-2); err != nil {
		t.Fatal(err)
	}
	res := MinOnes(f, Options{})
	if !res.Satisfiable || !res.Optimal {
		t.Fatalf("result = %+v", res)
	}
	if res.Cost != 1 || !res.Assignment[1] || res.Assignment[2] {
		t.Fatalf("assignment = %v cost = %d", res.Assignment, res.Cost)
	}
}

func TestMinOnesEmptyClauseUnsat(t *testing.T) {
	f := NewFormula(1)
	if _, err := f.AddClause(); err != nil {
		t.Fatal(err)
	}
	res := MinOnes(f, Options{})
	if res.Satisfiable {
		t.Fatal("empty clause should be unsatisfiable")
	}
}

func TestMinOnesConflictUnsat(t *testing.T) {
	f := NewFormula(1)
	f.AddClause(1)
	f.AddClause(-1)
	res := MinOnes(f, Options{})
	if res.Satisfiable {
		t.Fatal("x ∧ ¬x should be unsatisfiable")
	}
}

func TestMinOnesNoClausesAllFalse(t *testing.T) {
	f := NewFormula(3)
	res := MinOnes(f, Options{})
	if !res.Satisfiable || res.Cost != 0 {
		t.Fatalf("empty formula should cost 0, got %+v", res)
	}
}

func TestMinOnesPrefersFalse(t *testing.T) {
	// (x1 ∨ ¬x2): both satisfiable with zero ones via x2=false.
	f := NewFormula(2)
	f.AddClause(1, -2)
	res := MinOnes(f, Options{})
	if res.Cost != 0 {
		t.Fatalf("cost = %d, want 0", res.Cost)
	}
}

func TestMinOnesVertexCoverPath(t *testing.T) {
	// Path graph 1-2-3-4: clauses (x1∨x2)(x2∨x3)(x3∨x4).
	// Minimum vertex cover = {2, 3}, cost 2.
	f := NewFormula(4)
	f.AddClause(1, 2)
	f.AddClause(2, 3)
	f.AddClause(3, 4)
	res := MinOnes(f, Options{})
	if res.Cost != 2 || !res.Optimal {
		t.Fatalf("path cover: %+v", res)
	}
	if !res.Assignment[2] || !res.Assignment[3] {
		t.Fatalf("expected {2,3} cover, got %v", res.Assignment)
	}
}

func TestMinOnesVertexCoverStar(t *testing.T) {
	// Star: center 1 connected to 2..6. Minimum cover = {1}.
	f := NewFormula(6)
	for v := 2; v <= 6; v++ {
		f.AddClause(1, v)
	}
	res := MinOnes(f, Options{})
	if res.Cost != 1 || !res.Assignment[1] {
		t.Fatalf("star cover: %+v", res)
	}
}

func TestMinOnesCascadeImplications(t *testing.T) {
	// x1 forced; implications x1→x2→x3→x4 encoded as (¬x_i ∨ x_{i+1}).
	// All four must be true: exactly the shape of cascade-deletion CNF.
	f := NewFormula(4)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-2, 3)
	f.AddClause(-3, 4)
	res := MinOnes(f, Options{})
	if res.Cost != 4 || !res.Optimal {
		t.Fatalf("cascade: %+v", res)
	}
}

func TestMinOnesChoiceVsCascade(t *testing.T) {
	// The running-example shape (Example 5.1): deleting g2 is forced; then
	// per author either the author or the authgrant link must go.
	//   (g) ∧ (a1 ∨ l1 ∨ ¬g) ∧ (a2 ∨ l2 ∨ ¬g)
	// Wait: the paper's negated provenance is (¬g2)∧(¬a2∨¬ag2∨g2)... with
	// deletion variables the clause is (g) ∧ (a1 ∨ l1) ∧ (a2 ∨ l2) after g
	// fixed true; minimum = 3 (g plus one per author).
	f := NewFormula(5) // g=1, a1=2, l1=3, a2=4, l2=5
	f.AddClause(1)
	f.AddClause(2, 3, -1)
	f.AddClause(4, 5, -1)
	res := MinOnes(f, Options{})
	if res.Cost != 3 {
		t.Fatalf("choice cost = %d, want 3", res.Cost)
	}
}

func TestMinOnesPreferSteersTies(t *testing.T) {
	// (x1 ∨ x2): both optima cost 1. Preference picks the winner.
	for _, pref := range [][]int{{1}, {2}} {
		f := NewFormula(2)
		f.AddClause(1, 2)
		res := MinOnes(f, Options{Prefer: pref})
		if res.Cost != 1 {
			t.Fatalf("cost = %d", res.Cost)
		}
		if !res.Assignment[pref[0]] {
			t.Fatalf("prefer %v: assignment %v should set x%d", pref, res.Assignment, pref[0])
		}
	}
}

func TestMinOnesAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(8) // 3..10 vars
		f := NewFormula(n)
		m := 1 + rng.Intn(3*n)
		for c := 0; c < m; c++ {
			k := 1 + rng.Intn(3)
			lits := make([]int, 0, k)
			for i := 0; i < k; i++ {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					v = -v
				}
				lits = append(lits, v)
			}
			if _, err := f.AddClause(lits...); err != nil {
				t.Fatal(err)
			}
		}
		want := bruteMinOnes(f)
		res := MinOnes(f, Options{})
		if want < 0 {
			if res.Satisfiable {
				t.Fatalf("iter %d: solver found solution for unsat formula\n%s", iter, f.DIMACS())
			}
			continue
		}
		if !res.Satisfiable {
			t.Fatalf("iter %d: solver missed solution, brute force found cost %d\n%s", iter, want, f.DIMACS())
		}
		if !res.Optimal {
			t.Fatalf("iter %d: budget exhausted on tiny formula", iter)
		}
		if res.Cost != want {
			t.Fatalf("iter %d: cost = %d, brute force = %d\n%s", iter, res.Cost, want, f.DIMACS())
		}
		if !f.Eval(res.Assignment) {
			t.Fatalf("iter %d: returned assignment does not satisfy formula", iter)
		}
		if CountOnes(res.Assignment) != res.Cost {
			t.Fatalf("iter %d: cost %d mismatches assignment ones %d", iter, res.Cost, CountOnes(res.Assignment))
		}
	}
}

func TestMinOnesBudgetExhaustionStillSatisfies(t *testing.T) {
	// A larger random instance with a tiny node budget: the solver must
	// still return some satisfying assignment, just not prove optimality.
	rng := rand.New(rand.NewSource(7))
	n := 60
	f := NewFormula(n)
	for c := 0; c < 150; c++ {
		a, b := 1+rng.Intn(n), 1+rng.Intn(n)
		f.AddClause(a, b) // all-positive 2-clauses: always satisfiable
	}
	res := MinOnes(f, Options{MaxNodes: 50})
	if !res.Satisfiable {
		t.Fatal("budget-limited search must still return its first descent solution")
	}
	if !f.Eval(res.Assignment) {
		t.Fatal("assignment does not satisfy formula")
	}
}

func TestMinOnesLargeForcedChain(t *testing.T) {
	// 20k-variable implication chain: exercises iterative propagation depth
	// and trail handling at cascade scale (programs 16-20 shape).
	n := 20000
	f := NewFormula(n)
	f.AddClause(1)
	for v := 1; v < n; v++ {
		f.AddClause(-v, v+1)
	}
	res := MinOnes(f, Options{})
	if !res.Satisfiable || res.Cost != n {
		t.Fatalf("chain: cost = %d, want %d (sat=%v)", res.Cost, n, res.Satisfiable)
	}
	if !res.Optimal {
		t.Fatal("forced chain should be proven optimal by propagation")
	}
}

func TestFormulaAPI(t *testing.T) {
	f := NewFormula(2)
	v := f.AddVar()
	if v != 3 || f.NumVars() != 3 {
		t.Fatalf("AddVar = %d, NumVars = %d", v, f.NumVars())
	}
	if _, err := f.AddClause(4); err == nil {
		t.Fatal("out-of-range literal should error")
	}
	if _, err := f.AddClause(0); err == nil {
		t.Fatal("zero literal should error")
	}
	// Tautology dropped.
	if _, err := f.AddClause(1, -1); err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 0 {
		t.Fatalf("tautology stored: %d clauses", f.NumClauses())
	}
	// Duplicate literals deduped.
	f.AddClause(1, 1, 2)
	if got := f.Clause(0); len(got) != 2 {
		t.Fatalf("dedup failed: %v", got)
	}
	d := f.DIMACS()
	if !strings.HasPrefix(d, "p cnf 3 1\n") || !strings.Contains(d, "1 2 0") {
		t.Fatalf("DIMACS = %q", d)
	}
}
