package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// decodeComponents turns bytes into a formula of 2–4 disjoint parts over
// at most 12 variables, plus solver options. Byte 0 picks the part count,
// byte 1 the options (bit 0 a weight of 1..5 per variable, bit 1 a Prefer
// list). The variables are dealt to the parts in an order the bytes
// shuffle, so a part's variables are not contiguous. Each part then reads
// a byte whose low bit makes it all-positive (a hitting set) or mixed,
// and whose upper bits give 1..6 clauses of 1..3 literals over the part's
// variables, one byte per literal. Missing bytes read as 0.
func decodeComponents(data []byte) (*Formula, Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	k := 2 + next()%3
	flags := next()
	size := 12 / k
	n := k * size
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i + 1
	}
	for i := n - 1; i > 0; i-- {
		j := next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var opts Options
	if flags&1 != 0 {
		opts.Weights = make([]int64, n+1)
		for v := 1; v <= n; v++ {
			opts.Weights[v] = int64(1 + next()%5)
		}
	}
	if flags&2 != 0 {
		for j := next() % (n + 1); j > 0; j-- {
			opts.Prefer = append(opts.Prefer, 1+next()%n)
		}
	}
	f := NewFormula(n)
	for p := range k {
		vars := perm[p*size : (p+1)*size]
		b := next()
		for range 1 + b>>1%6 {
			lits := make([]int, 1+next()%3)
			for j := range lits {
				l := next()
				lits[j] = vars[l>>1%len(vars)]
				if b&1 == 0 && l&1 != 0 {
					lits[j] = -lits[j]
				}
			}
			if _, err := f.AddClause(lits...); err != nil {
				panic(err) // unreachable: every literal is in range
			}
		}
	}
	return f, opts
}

// TestMinOnesComponentsAgainstBruteForce runs checkMinOnes on random
// formulas of disjoint parts and requires every one to be solved to a
// proven optimum.
func TestMinOnesComponentsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	data := make([]byte, 128)
	for iter := 0; iter < 2000; iter++ {
		rng.Read(data)
		f, opts := decodeComponents(data)
		if res := checkMinOnes(t, f, opts); !res.Optimal {
			t.Fatalf("iter %d: budget exhausted on a tiny formula\n%s", iter, f.DIMACS())
		}
	}
}

func formula(t *testing.T, n int, clauses ...[]int) *Formula {
	t.Helper()
	f := NewFormula(n)
	for _, c := range clauses {
		if _, err := f.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// split runs MinOnes' split on f, root propagation first, without the
// greedy root bound that skips it when it cannot pay.
func split(t *testing.T, f *Formula, opts Options) *solver {
	t.Helper()
	s := newSolver(f, opts)
	if !s.rootPropagate() || !s.split() {
		t.Fatal("no split or reduction")
	}
	return s
}

// TestReduceUnits: on the path 1-2-3-4, dominance drops the ends 1 and 4
// (each in one clause of its neighbour's two), which leaves (x2) and (x3)
// as units; the units force 2 and 3, and nothing is left to search.
func TestReduceUnits(t *testing.T) {
	s := split(t, formula(t, 4, []int{1, 2}, []int{2, 3}, []int{3, 4}), Options{})
	if want := []int8{0, -1, 1, 1, -1}; !slices.Equal(s.state, want) || s.nodes != 0 {
		t.Fatalf("state = %v after %d nodes, want %v after none", s.state, s.nodes, want)
	}
}

// TestReduceSubsumption: (x1 ∨ x2) drops its superset (x1 ∨ x2 ∨ x3) and
// stays; of two clauses left with the same variables, the later goes.
func TestReduceSubsumption(t *testing.T) {
	s := newSolver(formula(t, 3, []int{1, 2, 3}, []int{1, 2}), Options{})
	if !s.subsume(1) || !s.satisfied[0] || s.satisfied[1] {
		t.Fatalf("satisfied = %v: (x1 ∨ x2) must drop (x1 ∨ x2 ∨ x3) and stay", s.satisfied)
	}
	s = newSolver(formula(t, 4, []int{1, 2, 3}, []int{1, 2, 4}), Options{})
	s.assign(3, false)
	s.assign(4, false)
	if s.subsume(1) || !s.subsume(0) || s.satisfied[0] || !s.satisfied[1] {
		t.Fatalf("satisfied = %v: of two clauses left as (x1 ∨ x2), the later must go", s.satisfied)
	}
}

// TestReduceDominance: in (x1 ∨ x2) ∧ (x2 ∨ x3), x1's one clause lies in
// x2's two. x1 goes when it is no lighter than x2 (as heavy, x2 has more
// occurrences); it stays when it is lighter, or as heavy but Prefer ranks
// it first.
func TestReduceDominance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		dropped bool
	}{
		{"equal", Options{}, true},
		{"heavier", Options{Weights: []int64{0, 2, 1, 1}}, true},
		{"lighter", Options{Weights: []int64{0, 1, 2, 2}}, false},
		{"preferred", Options{Prefer: []int{1}}, false},
		{"heavier-preferred", Options{Weights: []int64{0, 2, 1, 1}, Prefer: []int{1}}, true},
	} {
		f := formula(t, 3, []int{1, 2}, []int{2, 3})
		s := newSolver(f, tc.opts)
		if got := s.dominated(1, 0); got != tc.dropped {
			t.Errorf("%s: x1 dominated = %v, want %v", tc.name, got, tc.dropped)
		}
		checkMinOnes(t, f, tc.opts)
	}
	// With the same clauses, weight and rank, the higher index goes, and a
	// Prefer rank overrides the index.
	f := formula(t, 2, []int{1, 2})
	if s := split(t, f, Options{}); s.state[1] != 1 || s.state[2] != -1 {
		t.Fatalf("tie: state %v, want x1 kept and x2 dropped", s.state)
	}
	if s := split(t, f, Options{Prefer: []int{2}}); s.state[1] != -1 || s.state[2] != 1 {
		t.Fatalf("preferred tie: state %v, want x2 kept and x1 dropped", s.state)
	}
}

// TestMinOnesComponentBudget: one component of a split formula exhausts a
// tiny budget. The answer is not optimal, still satisfies the formula, and
// the components solved before it — smaller ones, searched first — keep
// their minimum.
func TestMinOnesComponentBudget(t *testing.T) {
	// Three small mixed parts (no reduction applies) over 1..9, each with
	// a minimum of two variables — (x1 ∨ x2) sets one, which forces x3 —
	// and over 10..69 a random vertex cover made
	// mixed by one clause with a negative literal.
	f := NewFormula(69)
	for _, c := range [][]int{{1, 2}, {-1, 3}, {-2, 3}, {4, 5}, {-4, 6}, {-5, 6}, {7, 8}, {-7, 9}, {-8, 9}} {
		f.AddClause(c...)
	}
	rng := rand.New(rand.NewSource(7))
	for range 150 {
		f.AddClause(10+rng.Intn(60), 10+rng.Intn(60))
	}
	f.AddClause(-10, 11, 12)
	res := MinOnes(f, Options{MaxNodes: 50})
	if res.Optimal || !res.Satisfiable || !f.Eval(res.Assignment) {
		t.Fatalf("want a truncated, satisfying answer: optimal %v, satisfiable %v", res.Optimal, res.Satisfiable)
	}
	for _, part := range [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}} {
		ones := 0
		for _, v := range part {
			if res.Assignment[v] {
				ones++
			}
		}
		if ones != 2 {
			t.Errorf("part %v: %d variables true, its minimum is 2", part, ones)
		}
	}
}

// TestMinOnesSharedBudget: two disjoint copies of a part that needs n
// nodes alone cost exactly 2n, and a budget of 1.5n, enough for either
// copy alone, is not enough for both.
func TestMinOnesSharedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := make([][2]int, 60)
	for i := range edges {
		edges[i] = [2]int{1 + rng.Intn(30), 1 + rng.Intn(30)}
	}
	copies := func(k int) *Formula {
		f := NewFormula(30 * k)
		for c := range k {
			for _, e := range edges {
				f.AddClause(30*c+e[0], 30*c+e[1])
			}
			f.AddClause(-(30*c + 1), 30*c+2, 30*c+3) // mixed: no reduction applies
		}
		return f
	}
	one := MinOnes(copies(1), Options{})
	if !one.Optimal || one.Nodes < 4 {
		t.Fatalf("one copy: %+v, want a proven search of several nodes", one)
	}
	if two := MinOnes(copies(2), Options{}); !two.Optimal || two.Nodes != 2*one.Nodes || two.Cost != 2*one.Cost {
		t.Fatalf("two copies: nodes %d cost %d, want %d and %d", two.Nodes, two.Cost, 2*one.Nodes, 2*one.Cost)
	}
	if two := MinOnes(copies(2), Options{MaxNodes: one.Nodes * 3 / 2}); two.Optimal {
		t.Fatalf("two copies under %d nodes: proven optimal in %d nodes", one.Nodes*3/2, two.Nodes)
	}
}
