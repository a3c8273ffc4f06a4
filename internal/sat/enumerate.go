package sat

// Solution is one satisfying assignment found during an enumeration: the
// Result of the search that found it, whose Optimal reports that it is
// minimal among the solutions not blocked before it.
type Solution = Result

// EnumResult reports a blocking-clause enumeration.
type EnumResult struct {
	// Solutions lists distinct solutions in nondecreasing (weighted) cost
	// order. While Optimal holds, every solution is set-minimal: a
	// non-minimal solution is a strict superset of some cheaper minimal one
	// (weights are ≥ 1), which is found first and whose blocking clause
	// then excludes all its supersets.
	Solutions []Solution
	// Complete reports that the enumeration provably exhausted the space:
	// the final search was unsatisfiable, or — with minCostOnly — proved
	// the next-best cost exceeds the minimum. False when the enumeration
	// stopped at k solutions or on an exhausted node budget.
	Complete bool
	// Optimal reports whether every search proved optimality. False means
	// some node budget ran out: the last solution (and the cost order near
	// it) is best-effort.
	Optimal bool
	// Nodes totals search nodes across all searches.
	Nodes int64
}

// EnumerateMinOnes enumerates up to k satisfying assignments of f in
// nondecreasing (weighted) cost order by iterating MinOnes with blocking
// clauses: after each solution with true-set T, the clause (∨_{v∈T} ¬v) is
// added to f, excluding T and every superset of T from later searches. The
// first search is exactly MinOnes(f, opts), so k=1 reproduces the single
// solve byte for byte. When minCostOnly is set, only solutions tied with
// the first (minimum) cost are returned, and the enumeration reports
// Complete as soon as a search proves the next-best cost exceeds it.
//
// Every search runs under opts anew, so the total node budget is at most
// k+1 times the per-search budget. A budget-exhausted search contributes
// its best-effort solution and stops the enumeration with Optimal=false:
// continuing would yield solutions in unproven order.
//
// The blocking clauses go into a fork of f that shares f's clauses, so f
// itself is not modified. The whole enumeration is deterministic.
func EnumerateMinOnes(f *Formula, k int, minCostOnly bool, opts Options) EnumResult {
	if k < 1 {
		k = 1
	}
	f = f.fork()
	out := EnumResult{Optimal: true}
	for len(out.Solutions) < k {
		solved := MinOnes(f, opts)
		out.Nodes += solved.Nodes
		if !solved.Optimal {
			out.Optimal = false
		}
		if !solved.Satisfiable {
			// No further solutions — provably, unless the search was cut
			// off before it could find (or rule out) one.
			out.Complete = solved.Optimal
			return out
		}
		if minCostOnly && len(out.Solutions) > 0 && solved.WeightedCost > out.Solutions[0].WeightedCost {
			// The next-best solution costs strictly more: the minimum-cost
			// band is exhausted iff the search proved that minimum.
			out.Complete = solved.Optimal
			return out
		}
		out.Solutions = append(out.Solutions, solved)
		if !solved.Optimal {
			return out
		}
		// Block this solution and all its supersets. An all-false solution
		// yields the empty clause, making f unsatisfiable — correct: the
		// empty set is a subset of everything, so no other set-minimal
		// solution exists.
		lits := make([]int, 0, solved.Cost)
		for v := 1; v < len(solved.Assignment); v++ {
			if solved.Assignment[v] {
				lits = append(lits, -v)
			}
		}
		if _, err := f.AddClause(lits...); err != nil {
			// Unreachable: the literals come from f's own variables. Report
			// a truncated enumeration rather than panic.
			out.Optimal = false
			return out
		}
	}
	return out
}
