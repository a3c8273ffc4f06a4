package sat

import (
	"cmp"
	"slices"
)

// split solves what root propagation left of f component by component: it
// reduces every all-positive component, then searches each component left
// with a solver of its own, smallest first, on s's one budget. It reports
// false, having changed nothing the search reads, when there is at most one
// component and no reduction fired; the caller then searches f whole.
func (s *solver) split() bool {
	w := s.work
	clauses, bounds := s.components()
	reduced := false
	for k := range len(bounds) - 1 {
		part := clauses[bounds[k]:bounds[k+1]]
		if !slices.ContainsFunc(part, func(ci int32) bool { return s.freeNeg[ci] != 0 }) {
			reduced = s.reduce(part) || reduced
		}
	}
	if !reduced && len(bounds) <= 2 {
		// A pass that fired nothing is not charged: f is searched whole
		// under the budget it always had.
		s.work = w
		return false
	}
	if reduced {
		clauses, bounds = s.components()
	}
	s.bestAsn = make([]bool, s.f.numVars+1)
	for v := range s.bestAsn {
		s.bestAsn[v] = s.state[v] == 1
	}
	s.bestCost, s.foundAny = s.costNow, false
	local := make([]int32, s.f.numVars+1)
	for k := range len(bounds) - 1 {
		if !s.solvePart(clauses[bounds[k]:bounds[k+1]], local) {
			return true
		}
	}
	s.foundAny = true
	return true
}

// components groups the unsatisfied clauses into components, two clauses
// being connected when they share an unassigned variable, by union–find
// over the occurrence lists. Component k is clauses[bounds[k]:bounds[k+1]],
// its clauses in clause order; components come smallest first, ties in the
// order of their first clauses.
func (s *solver) components() (clauses, bounds []int32) {
	m := len(s.free)
	parent := make([]int32, m)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := int32(1); v <= int32(s.f.numVars); v++ {
		if s.state[v] != 0 {
			continue
		}
		root := int32(-1)
		pos, neg := s.occ.Of(v)
		for _, occ := range [2][]int32{pos, neg} {
			for _, ci := range occ {
				if s.satisfied[ci] {
					continue
				}
				if r := find(ci); root < 0 {
					root = r
				} else if r != root {
					parent[r] = root
				}
			}
		}
	}
	// Number the components by first clause and count their clauses, then
	// order them by size and lay their clauses out in that order.
	id := make([]int32, m) // a root clause's 1 + component number
	var size []int32
	for ci := range m {
		if s.satisfied[ci] {
			continue
		}
		r := find(int32(ci))
		if id[r] == 0 {
			size = append(size, 0)
			id[r] = int32(len(size))
		}
		size[id[r]-1]++
	}
	order := make([]int32, len(size))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(size[a], size[b]) })
	fill := make([]int32, len(size)) // component number → its next slot
	bounds = make([]int32, len(size)+1)
	for i, k := range order {
		fill[k] = bounds[i]
		bounds[i+1] = bounds[i] + size[k]
	}
	clauses = make([]int32, bounds[len(size)])
	for ci := range m {
		if !s.satisfied[ci] {
			k := id[find(int32(ci))] - 1
			clauses[fill[k]] = int32(ci)
			fill[k]++
		}
	}
	return clauses, bounds
}

// reduce closes what it can of a hitting-set component in place, applying
// three rules until none fires:
//
//   - units: a clause left with one variable forces it (the propagation
//     that follows setting a dominated variable false);
//   - subsumption: a clause holding every variable of another one is
//     dropped, marked satisfied: whatever hits the smaller one hits it;
//   - dominance: u is set false when every clause holding u holds a v
//     that is lighter, or as heavy and ordered first by litLess — by
//     Prefer rank, then by more occurrences, then by index. Swapping u
//     for v keeps a solution one at no greater cost, so an optimum
//     survives, and u is never dropped for an equally heavy v that
//     Prefer ranks after it.
//
// The scans are charged to the work budget, and the passes stop when it
// runs out. reduce reports whether any rule fired.
func (s *solver) reduce(clauses []int32) bool {
	fired := false
	for changed := true; changed && s.work <= s.maxWork; fired = fired || changed {
		changed = false
		for _, a := range clauses {
			changed = !s.satisfied[a] && s.subsume(a) || changed
		}
		// Each variable is tested once a pass, at the first unsatisfied
		// clause it is met in; usedStamp marks it met.
		s.usedEpoch++
		for _, c := range clauses {
			for _, u := range s.f.Clause(int(c)) {
				if s.satisfied[c] || u < 0 || s.state[u] != 0 || s.usedStamp[u] == s.usedEpoch {
					continue
				}
				if s.usedStamp[u] = s.usedEpoch; s.dominated(u, c) {
					s.assignAndPropagate(u, false) // cannot conflict: c holds the dominator
					changed = true
				}
			}
		}
	}
	return fired
}

// subsume drops every other unsatisfied clause that holds all of clause
// a's unassigned variables; of two left with the same variables, the later
// goes. Each such clause holds a's rarest variable, so only its
// occurrences are scanned. It reports whether it dropped any.
func (s *solver) subsume(a int32) bool {
	var rare int32
	for _, l := range s.f.Clause(int(a)) {
		if l > 0 && s.state[l] == 0 && (rare == 0 || s.posCount(l) < s.posCount(rare)) {
			rare = l
		}
	}
	occ, _ := s.occ.Of(rare)
	free := func(l int32) bool { return l > 0 && s.state[l] == 0 }
	dropped := false
	for _, b := range occ {
		if b != a && !s.satisfied[b] && (s.free[b] > s.free[a] || s.free[b] == s.free[a] && b > a) &&
			s.within(s.f.Clause(int(a)), s.f.Clause(int(b)), free) {
			s.satisfied[b], dropped = true, true
		}
	}
	return dropped
}

// dominated reports whether clause c, which holds u, holds a variable
// that dominates u: one in every unsatisfied clause holding u.
func (s *solver) dominated(u, c int32) bool {
	occ, _ := s.occ.Of(u)
	unsat := func(ci int32) bool { return !s.satisfied[ci] }
	for _, v := range s.f.Clause(int(c)) {
		if v > 0 && v != u && s.state[v] == 0 && s.weights[v] <= s.weights[u] &&
			(s.weights[v] < s.weights[u] || s.litLess(v, u)) {
			if vocc, _ := s.occ.Of(v); s.within(occ, vocc, unsat) {
				return true
			}
		}
	}
	return false
}

// within reports whether the sorted list b holds every element of the
// sorted list a that keep accepts. Each is found by binary search, since b
// may be a hub's long occurrence list; a's length is charged as work.
func (s *solver) within(a, b []int32, keep func(int32) bool) bool {
	s.work += int64(len(a))
	for _, x := range a {
		if keep(x) {
			i, found := slices.BinarySearch(b, x)
			if !found {
				return false
			}
			b = b[i+1:]
		}
	}
	return true
}

// solvePart searches one component, the given clauses' unassigned
// literals renumbered in order (local, left zeroed, maps s's variables to
// the part's), with a solver that counts nodes and work on from s's, and
// lifts its solution into s.bestAsn and s.bestCost. Once the budget is
// spent, a part keeps its greedy solution. It reports whether one exists.
func (s *solver) solvePart(clauses []int32, local []int32) bool {
	var vars []int32
	for _, ci := range clauses {
		for _, l := range s.f.Clause(int(ci)) {
			if v := abs(l); s.state[v] == 0 && local[v] == 0 {
				local[v] = 1
				vars = append(vars, v)
			}
		}
	}
	slices.Sort(vars)
	for i, v := range vars {
		local[v] = int32(i + 1)
	}
	g := &Formula{numVars: len(vars), start: make([]int32, 1, len(clauses)+1)}
	for _, ci := range clauses {
		for _, l := range s.f.Clause(int(ci)) {
			if v := abs(l); s.state[v] == 0 {
				g.lits = append(g.lits, l/v*local[v])
			}
		}
		g.start = append(g.start, int32(len(g.lits)))
	}
	p := newSearch(g)
	for i, v := range vars {
		local[v] = 0
		p.weights[i+1], p.prefRank[i+1] = s.weights[v], s.prefRank[v]
	}
	p.weighted, p.cancel = s.weighted, s.cancel
	p.nodes, p.work, p.maxNodes, p.maxWork = s.nodes, s.work, s.maxNodes, s.maxWork
	if p.rootPropagate() {
		p.greedyDescent()
		if !s.exhausted {
			p.search(0)
		}
	}
	s.nodes, s.work, s.exhausted = p.nodes, p.work, s.exhausted || p.exhausted
	if !p.foundAny {
		return false
	}
	for i, v := range vars {
		s.bestAsn[v] = p.bestAsn[i+1]
	}
	s.bestCost += p.bestCost
	return true
}
