// Package sat implements a deterministic Min-Ones-SAT solver: given a CNF
// formula, find a satisfying assignment mapping the minimum number of
// variables to true.
//
// The paper's Algorithm 1 negates the provenance formula of all possible
// delta tuples and feeds it to the Z3 optimizing SMT solver; this package is
// the offline substitution. It is exact when the branch-and-bound search
// completes within its node budget; when the budget runs out it returns the
// best satisfying assignment found so far (which still yields a stabilizing
// set, per the paper's remark that any satisfying assignment stabilizes the
// database).
//
// Unless the root bound proves its greedy solution, MinOnes splits the
// clauses left after root propagation into components sharing no variable,
// reduces each all-positive one (a minimum hitting set) by units,
// subsumption and dominance, and searches what is left component by
// component, smallest first, under one shared budget.
//
// A Formula is one flat clause store — every clause's literals in a single
// []int32 — and it is the only copy of Algorithm 1's clauses: the
// provenance formula writes each assignment's literals straight into one as
// clauses are derived; the solver reads it in place; the end graph, step's
// traversal, the Explainer and the DOT rendering hold clause indexes into
// it. Occurrences is the one way to index clauses by literal: the solver
// builds one per search, and the provenance formula one over its clauses.
package sat

import (
	"fmt"
	"slices"
)

// Formula is a CNF formula over variables 1..NumVars, kept as one flat
// clause store: all literals concatenated in one slice, clause i being
// lits[start[i]:start[i+1]]. Literals are signed: +v means "v is true", -v
// means "v is false". A clause is stored canonically — literals sorted
// ascending, duplicates removed — tautologies are dropped, and a body that
// is already stored is not stored again (delta-rule provenance frequently
// derives the same CNF clause from several rules or symmetric join orders).
// Clauses keep the order they were first added in. The dedup hashes the
// canonical literals into a bucket table whose chains run through the
// clause indexes, so adding a clause allocates nothing of its own: only the
// flat slices grow.
type Formula struct {
	numVars int
	lits    []int32
	start   []int32 // clause i is lits[start[i]:start[i+1]]
	buckets []int32 // hash bucket → 1 + its latest clause, 0 if empty; a power of two long
	next    []int32 // clause → 1 + the clause before it in its bucket, 0 at the chain's end
}

// NewFormula creates a formula over numVars variables.
func NewFormula(numVars int) *Formula {
	return &Formula{numVars: numVars, start: []int32{0}}
}

// NumVars returns the number of variables.
func (f *Formula) NumVars() int { return f.numVars }

// NumClauses returns the number of stored clauses (tautologies and repeated
// bodies are dropped at AddClause time).
func (f *Formula) NumClauses() int { return len(f.start) - 1 }

// AddVar adds a fresh variable and returns its 1-based index.
func (f *Formula) AddVar() int {
	f.numVars++
	return f.numVars
}

// AddClause adds the disjunction of lits and returns the index of the clause
// holding it: a new clause, or the stored one with the same body. A
// tautology (v ∨ ¬v) is dropped and yields -1. An empty clause makes the
// formula unsatisfiable and is stored as such. The literals are
// canonicalised in place at the end of the store, so lits is not modified.
func (f *Formula) AddClause(lits ...int) (int, error) {
	n := len(f.lits)
	for _, l := range lits {
		if l == 0 || abs(l) > f.numVars {
			f.lits = f.lits[:n]
			return -1, fmt.Errorf("sat: literal %d out of range (numVars=%d)", l, f.numVars)
		}
		f.lits = append(f.lits, int32(l))
	}
	slices.Sort(f.lits[n:])
	c := slices.Compact(f.lits[n:])
	f.lits = f.lits[:n+len(c)]
	for i := 0; i < len(c) && c[i] < 0; i++ {
		if _, taut := slices.BinarySearch(c, -c[i]); taut {
			f.lits = f.lits[:n]
			return -1, nil
		}
	}
	if f.NumClauses() >= len(f.buckets) {
		f.grow()
	}
	b := hashLits(c) & uint64(len(f.buckets)-1)
	for ci := f.buckets[b]; ci != 0; ci = f.next[ci-1] {
		if slices.Equal(f.Clause(int(ci-1)), c) {
			f.lits = f.lits[:n]
			return int(ci - 1), nil
		}
	}
	f.next = append(f.next, f.buckets[b])
	f.buckets[b] = int32(len(f.start))
	f.start = append(f.start, int32(len(f.lits)))
	return f.NumClauses() - 1, nil
}

// grow doubles the bucket table and rechains every clause into it.
func (f *Formula) grow() {
	f.buckets = make([]int32, max(64, 2*len(f.buckets)))
	mask := uint64(len(f.buckets) - 1)
	for ci := range f.NumClauses() {
		b := hashLits(f.Clause(ci)) & mask
		f.next[ci], f.buckets[b] = f.buckets[b], int32(ci+1)
	}
}

// hashLits is an FNV-1a hash over a canonical clause, one literal per step,
// folded so that the low bits the bucket mask keeps depend on every bit.
func hashLits(c []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range c {
		h = (h ^ uint64(uint32(l))) * 1099511628211
	}
	return h ^ h>>29
}

// fork returns a formula equal to f that grows apart from it: the two share
// f's clauses (the shared slices are clipped, so either side's appends
// reallocate), and only the dedup table, which grow rewrites in place, is
// copied.
func (f *Formula) fork() *Formula {
	return &Formula{numVars: f.numVars, lits: slices.Clip(f.lits), start: slices.Clip(f.start),
		buckets: slices.Clone(f.buckets), next: slices.Clone(f.next)}
}

// Clause returns the i-th stored clause in canonical form (shared slice; do
// not mutate).
func (f *Formula) Clause(i int) []int32 { return f.lits[f.start[i]:f.start[i+1]:f.start[i+1]] }

// Occurrences indexes a clause set by literal: for every variable, the
// clauses holding it positively and those holding it negatively, each list
// in clause order, all in one compressed-row slice.
type Occurrences struct {
	occ   []int32
	start []int32 // +v's clauses are occ[start[2v]:start[2v+1]], -v's run to start[2v+2]
}

// NewOccurrences indexes clauses 0..m-1 over variables 1..n, clause ci
// being clause(ci). It counts each literal's occurrences into its slot and
// sums them into slot ends, then fills every slot backwards from its end,
// taking clauses in reverse, so each list comes out in clause order and
// each slot's cursor ends at its start.
func NewOccurrences(n, m int, clause func(int) []int32) Occurrences {
	slot := func(l int32) int32 {
		if l < 0 {
			return 1 - 2*l
		}
		return 2 * l
	}
	o := Occurrences{start: make([]int32, 2*n+3)}
	for ci := range m {
		for _, l := range clause(ci) {
			o.start[slot(l)]++
		}
	}
	for i := 1; i < len(o.start); i++ {
		o.start[i] += o.start[i-1]
	}
	o.occ = make([]int32, o.start[len(o.start)-1])
	for ci := m - 1; ci >= 0; ci-- {
		for _, l := range clause(ci) {
			o.start[slot(l)]--
			o.occ[o.start[slot(l)]] = int32(ci)
		}
	}
	return o
}

// Of returns the clauses holding +v and those holding -v. The slices are
// shared; do not modify them.
func (o *Occurrences) Of(v int32) (pos, neg []int32) {
	return o.occ[o.start[2*v]:o.start[2*v+1]], o.occ[o.start[2*v+1]:o.start[2*v+2]]
}

// Eval reports whether the assignment (1-based; assignment[v] is v's value)
// satisfies every clause.
func (f *Formula) Eval(assignment []bool) bool {
	for ci := range f.NumClauses() {
		if !slices.ContainsFunc(f.Clause(ci), func(l int32) bool { return (l > 0) == assignment[abs(l)] }) {
			return false
		}
	}
	return true
}

// CountOnes returns the number of true variables in the assignment.
func CountOnes(assignment []bool) int {
	n := 0
	for _, b := range assignment {
		if b {
			n++
		}
	}
	return n
}
