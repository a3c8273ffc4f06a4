package sat

import "slices"

// Options configures the Min-Ones search.
type Options struct {
	// MaxNodes bounds the number of search nodes, and MaxNodes×workPerNode
	// the clause positions scanned; 0 means a generous default. The
	// components of a formula and the reductions share this one budget.
	// When it is exhausted the best solution found so far is returned with
	// Optimal=false: the component it ran out on and those after it keep
	// their best (greedy, if unsearched) solution, the ones before their
	// proven minimum.
	MaxNodes int64
	// Prefer ranks variables for tie-breaking: when branching must set some
	// variable true, lower-ranked (earlier) preferred variables are tried
	// first, steering which of several equally-sized optima is found; the
	// dominance reduction never drops a variable for an equally heavy one
	// ranked after it. Variables absent from Prefer rank after all present
	// ones.
	Prefer []int
	// Weights assigns a positive cost to setting each variable true
	// (1-based; index 0 unused). Nil means uniform weight 1, i.e. classic
	// Min-Ones. The search minimizes total weight; Result.Cost still
	// counts true variables while Result.WeightedCost is the objective.
	Weights []int64
	// Cancel, when non-nil, is polled every cancelCheckEvery search nodes,
	// counted across components; returning true aborts the search as if
	// the node budget were exhausted (the best solution found so far is
	// returned with Optimal=false). Used to thread request cancellation
	// into the solver.
	Cancel func() bool
}

// cancelCheckEvery is the node interval between Options.Cancel polls.
const cancelCheckEvery = 256

// DefaultMaxNodes is the search budget used when Options.MaxNodes is 0.
// The greedy descent seeds a good solution before the search starts, so an
// exhausted budget still returns a high-quality (if unproven) answer.
const DefaultMaxNodes = 400_000

// Result reports the outcome of a Min-Ones search.
type Result struct {
	// Satisfiable reports whether any satisfying assignment was found.
	Satisfiable bool
	// Assignment holds variable values (index 1..NumVars; index 0 unused).
	Assignment []bool
	// Cost is the number of true variables in Assignment.
	Cost int
	// WeightedCost is the minimized objective: the total weight of true
	// variables (equal to Cost under uniform weights).
	WeightedCost int64
	// Optimal reports whether the search proved minimality: whether every
	// component was reduced or searched to the end within the budget.
	Optimal bool
	// Nodes is the number of search nodes explored, summed over the
	// components searched. A formula searched whole counts at least one;
	// one whose components the reductions all close counts none.
	Nodes int64
}

// MinOnes finds a satisfying assignment with as few true variables as the
// search budget allows; it is exact (Optimal=true) when the budget is not
// exhausted. The search is fully deterministic, and reads f in place. When
// the root bound does not already prove the greedy solution, f is split and
// reduced first (see split); a formula left as one component that no
// reduction touches is searched whole.
func MinOnes(f *Formula, opts Options) Result {
	s := newSolver(f, opts)
	if slices.Contains(s.free, 0) || !s.rootPropagate() {
		return s.result() // an empty clause or a root conflict: unsatisfiable
	}
	// Seed the bound with a greedy max-coverage solution: it makes the
	// search prune and is a good answer if the budget runs out. When the
	// root bound meets its cost, the search stops at its first node and
	// splitting cannot pay (that bound's scan is not charged).
	s.greedyDescent()
	w, margin := s.work, s.bestCost-s.costNow
	closed := s.foundAny && (margin <= 0 || s.lowerBound(margin) >= margin)
	if s.work = w; closed || !s.split() {
		s.search(0)
	}
	return s.result()
}

type solver struct {
	f        *Formula
	maxNodes int64

	state    []int8 // per var: 0 unknown, +1 true, -1 false
	prefRank []int32

	// Per clause: whether it is satisfied, and its counts of unassigned
	// literals and of unassigned negative literals. The counts are kept
	// exact only while the clause is unsatisfied — the only time they are
	// read — so an assignment does not touch a clause satisfied before it,
	// and undoing one touches only the clauses it counted down.
	satisfied []bool
	free      []int32
	freeNeg   []int32

	// occ lists, in clause order, the clauses holding each literal. It is
	// built once per search off the flat store.
	occ Occurrences

	trail    []assigned // assignments in order
	satTrail []int32    // clauses satisfied in order

	// usedStamp is lowerBound's disjointness set without allocation or
	// clearing: an unassigned variable is "used" iff its stamp equals
	// usedEpoch, which each call bumps. An assigned variable's stamp is -1,
	// so the stamp alone tells whether a variable may be used.
	usedStamp []int64
	usedEpoch int64

	// litsStack holds per-depth branching-literal scratch, reused across
	// the whole search (recursion depth d always reuses slot d).
	litsStack [][]int32

	cancel    func() bool
	weights   []int64 // per var: the cost of setting it true
	weighted  bool    // Options.Weights was set
	costNow   int64
	bestCost  int64
	bestAsn   []bool
	foundAny  bool
	nodes     int64
	work      int64 // clause positions scanned; bounds per-node scan cost
	maxWork   int64
	exhausted bool

	firstUnsat int // scan hint: all clauses before it are satisfied
}

// workPerNode converts the node budget into a work budget. Work is charged
// one unit per clause position a scan passes over — lowerBound's from the
// firstUnsat hint to the clause it stops at, and pickClause's over the
// satisfied prefix and its lookahead window — so huge formulas exhaust
// proportionally sooner than small ones (a node on a 100K-clause formula is
// far more expensive than on a 100-clause one).
const workPerNode = 64

func newSolver(f *Formula, opts Options) *solver {
	n := f.numVars
	s := newSearch(f)
	s.maxNodes, s.cancel = opts.MaxNodes, opts.Cancel
	if s.maxNodes <= 0 {
		s.maxNodes = DefaultMaxNodes
	}
	s.maxWork = s.maxNodes * workPerNode
	s.weighted = opts.Weights != nil
	for v := 1; v <= n; v++ {
		s.weights[v] = 1
		if v < len(opts.Weights) && opts.Weights[v] > 0 {
			s.weights[v] = opts.Weights[v]
		}
	}
	for v := range s.prefRank {
		s.prefRank[v] = int32(n + 1)
	}
	for i, v := range opts.Prefer {
		if v >= 1 && v <= n && s.prefRank[v] == int32(n+1) {
			s.prefRank[v] = int32(i)
		}
	}
	return s
}

// newSearch allocates a solver's state over f, with every clause's counts
// set; the caller fills in the weights, ranks and budget.
func newSearch(f *Formula) *solver {
	n, m := f.numVars, f.NumClauses()
	s := &solver{
		f:         f,
		state:     make([]int8, n+1),
		prefRank:  make([]int32, n+1),
		weights:   make([]int64, n+1),
		satisfied: make([]bool, m),
		free:      make([]int32, m),
		freeNeg:   make([]int32, m),
		occ:       NewOccurrences(n, m, f.Clause),
		usedStamp: make([]int64, n+1),
	}
	for ci := range m {
		c := f.Clause(ci)
		s.free[ci] = int32(len(c))
		for _, l := range c {
			if l < 0 {
				s.freeNeg[ci]++
			}
		}
	}
	return s
}

func (s *solver) result() Result {
	res := Result{Satisfiable: s.foundAny, Nodes: s.nodes, Optimal: !s.exhausted}
	if s.foundAny {
		res.Assignment = s.bestAsn
		res.Cost = CountOnes(res.Assignment)
		res.WeightedCost = s.bestCost
	}
	return res
}

// rootPropagate is the root simplification: it assigns pure-negative
// variables false (free) and propagates root units, reporting false on a
// conflict.
func (s *solver) rootPropagate() bool {
	for v := int32(1); v <= int32(s.f.numVars); v++ {
		if pos, neg := s.occ.Of(v); s.state[v] == 0 && len(pos) == 0 && len(neg) > 0 && !s.assignAndPropagate(v, false) {
			return false
		}
	}
	for ci := range s.free {
		if !s.satisfied[ci] && s.free[ci] == 1 && !s.propagateClause(int32(ci)) {
			return false
		}
	}
	return true
}

// assign sets v to val, updating clause states. It reports false on
// conflict (an unsatisfied clause ran out of literals). All bookkeeping is
// reversible via undoTo regardless of conflicts.
func (s *solver) assign(v int32, val bool) bool {
	if val {
		s.state[v] = 1
		s.costNow += s.weights[v]
	} else {
		s.state[v] = -1
	}
	s.usedStamp[v] = -1
	s.trail = append(s.trail, assigned{v, int32(len(s.satTrail))})
	trueOcc, falseOcc := s.occ.Of(v)
	if !val {
		trueOcc, falseOcc = falseOcc, trueOcc
	}
	for _, ci := range trueOcc {
		if !s.satisfied[ci] {
			s.satisfied[ci] = true
			s.satTrail = append(s.satTrail, ci)
		}
	}
	ok := true
	for _, ci := range falseOcc {
		if !s.satisfied[ci] {
			s.free[ci]--
			if val {
				s.freeNeg[ci]--
			}
			if s.free[ci] == 0 {
				ok = false
			}
		}
	}
	return ok
}

// propagateClause resolves a unit clause: find its sole unassigned literal
// and assign it satisfying the clause, then chain propagation.
func (s *solver) propagateClause(ci int32) bool {
	if s.satisfied[ci] {
		return true
	}
	for _, l := range s.f.Clause(int(ci)) {
		if v := abs(l); s.state[v] == 0 {
			return s.assignAndPropagate(v, l > 0)
		}
	}
	// No unassigned literal left in an unsatisfied clause: conflict.
	return false
}

// assignAndPropagate assigns and then resolves any unit clauses created.
func (s *solver) assignAndPropagate(v int32, val bool) bool {
	if !s.assign(v, val) {
		return false
	}
	falseOcc, neg := s.occ.Of(v)
	if val {
		falseOcc = neg
	}
	for _, ci := range falseOcc {
		if !s.satisfied[ci] && s.free[ci] == 1 && !s.propagateClause(ci) {
			return false
		}
	}
	return true
}

// assigned is a trail entry: the variable, and the length satTrail had
// before its assignment.
type assigned struct{ v, satLen int32 }

type checkpoint struct{ trailLen, firstUnsat int }

func (s *solver) mark() checkpoint { return checkpoint{len(s.trail), s.firstUnsat} }

// undoTo unassigns, latest first, every variable assigned since cp. Each
// one counts back up the clauses its assignment counted down — those with
// its falsified literal that are unsatisfied again by now, since whatever
// satisfied them later is already undone — and unsatisfies the clauses it
// satisfied.
func (s *solver) undoTo(cp checkpoint) {
	s.firstUnsat = cp.firstUnsat
	for i := len(s.trail) - 1; i >= cp.trailLen; i-- {
		a := s.trail[i]
		pos, neg := s.occ.Of(a.v)
		if s.state[a.v] == 1 {
			s.costNow -= s.weights[a.v]
			for _, ci := range neg {
				if !s.satisfied[ci] {
					s.free[ci]++
					s.freeNeg[ci]++
				}
			}
		} else {
			for _, ci := range pos {
				if !s.satisfied[ci] {
					s.free[ci]++
				}
			}
		}
		s.state[a.v], s.usedStamp[a.v] = 0, 0
		for _, ci := range s.satTrail[a.satLen:] {
			s.satisfied[ci] = false
		}
		s.satTrail = s.satTrail[:a.satLen]
	}
	s.trail = s.trail[:cp.trailLen]
}

// lowerBound counts variable-disjoint unsatisfied clauses whose remaining
// literals are all positive: each such clause forces at least one more true
// variable. Scanning stops as soon as the bound suffices to prune, and the
// clause positions scanned are charged against the work budget (an early
// abort just returns a weaker — still valid — bound). A clause with a free
// negative literal is passed over on its count alone, and the rest read
// only the stamps of their positive literals.
func (s *solver) lowerBound(enough int64) int64 {
	if enough <= 0 {
		return 0
	}
	s.usedEpoch++
	epoch, used := s.usedEpoch, s.usedStamp
	lits, start, satisfied, freeNeg := s.f.lits, s.f.start, s.satisfied, s.freeNeg
	var lb int64
	for ci := s.firstUnsat; ci < len(satisfied); ci++ {
		if satisfied[ci] || freeNeg[ci] != 0 {
			continue
		}
		c := lits[start[ci]:start[ci+1]]
		disjoint := true
		for _, l := range c {
			if l > 0 && used[l] == epoch {
				disjoint = false
				break
			}
		}
		if !disjoint {
			continue
		}
		// The clause forces at least its cheapest unassigned literal.
		minW := int64(1)
		if s.weighted {
			minW = 1 << 62
			for _, l := range c {
				if l > 0 && used[l] >= 0 {
					minW = min(minW, s.weights[l])
				}
			}
		}
		if lb += minW; lb >= enough {
			s.work += int64(ci - s.firstUnsat + 1)
			return lb
		}
		for _, l := range c {
			if l > 0 && used[l] >= 0 {
				used[l] = epoch
			}
		}
	}
	s.work += int64(len(satisfied) - s.firstUnsat)
	return lb
}

// pickClause chooses an unsatisfied clause to branch on; returns -1 when
// every clause is satisfied. It scans from the firstUnsat hint (advancing
// the hint over the satisfied prefix — restored on undo via checkpoints)
// and picks the clause with the fewest unassigned literals within a small
// lookahead window past the first unsatisfied one, bounding per-node cost.
func (s *solver) pickClause() int {
	for s.firstUnsat < len(s.free) && s.satisfied[s.firstUnsat] {
		s.firstUnsat++
		s.work++
	}
	if s.firstUnsat >= len(s.free) {
		return -1
	}
	const lookahead = 128
	bestCi, bestN := s.firstUnsat, s.free[s.firstUnsat]
	end := min(s.firstUnsat+lookahead, len(s.free))
	for ci := s.firstUnsat + 1; ci < end && bestN > 2; ci++ {
		s.work++
		if n := s.free[ci]; !s.satisfied[ci] && n < bestN {
			bestCi, bestN = ci, n
		}
	}
	return bestCi
}

// greedyDescent runs one greedy pass from the current (root-propagated)
// state: repeatedly satisfy the tightest unsatisfied clause, using a free
// negative literal when available and otherwise the positive variable
// covering the most currently-unsatisfied clauses (set-cover greedy).
// Preference ranks break coverage ties. The resulting solution seeds the
// branch-and-bound's best bound; all assignments are undone afterwards.
func (s *solver) greedyDescent() {
	cp := s.mark()
	defer s.undoTo(cp)
	for {
		ci := s.pickClause()
		if ci < 0 {
			s.record()
			return
		}
		// Free move: a negative unassigned literal satisfies the clause at
		// zero cost.
		var bestVar int32
		bestCover := -1
		for _, l := range s.f.Clause(ci) {
			v := abs(l)
			if s.state[v] != 0 {
				continue
			}
			if l < 0 {
				if !s.assignAndPropagate(v, false) {
					return // greedy dead end: give up, search() will handle it
				}
				bestVar = 0
				break
			}
			cover := 0
			pos, _ := s.occ.Of(v)
			for _, cj := range pos {
				if !s.satisfied[cj] {
					cover++
				}
			}
			// Maximize coverage per unit weight (cover/w), comparing as
			// cross products to stay in integers; prefRank breaks ties.
			lhs, rhs := int64(cover)*s.weights[bestVar], int64(bestCover)*s.weights[v]
			if bestCover < 0 || lhs > rhs || lhs == rhs && s.prefRank[v] < s.prefRank[bestVar] {
				bestCover, bestVar = cover, v
			}
		}
		if bestVar != 0 && !s.assignAndPropagate(bestVar, true) {
			return
		}
	}
}

func (s *solver) record() {
	if s.foundAny && s.costNow >= s.bestCost {
		return
	}
	s.foundAny = true
	s.bestCost = s.costNow
	s.bestAsn = make([]bool, s.f.numVars+1)
	for v := range s.bestAsn {
		s.bestAsn[v] = s.state[v] == 1 // unassigned vars default to false
	}
}

// litLess orders branching literals: negative (free) first, then positive
// by preference rank, then by weight, then by static occurrence
// (descending), then by variable index.
func (s *solver) litLess(li, lj int32) bool {
	ni, nj := li < 0, lj < 0
	if ni != nj {
		return ni
	}
	vi, vj := abs(li), abs(lj)
	if !ni { // both positive
		if s.prefRank[vi] != s.prefRank[vj] {
			return s.prefRank[vi] < s.prefRank[vj]
		}
		if s.weights[vi] != s.weights[vj] {
			return s.weights[vi] < s.weights[vj]
		}
		if pi, pj := s.posCount(vi), s.posCount(vj); pi != pj {
			return pi > pj
		}
	}
	return vi < vj
}

// posCount is v's static positive occurrence count, for branch ordering.
func (s *solver) posCount(v int32) int32 { return s.occ.start[2*v+1] - s.occ.start[2*v] }

func (s *solver) search(depth int) {
	s.nodes++
	if s.nodes > s.maxNodes || s.work > s.maxWork ||
		s.cancel != nil && s.nodes%cancelCheckEvery == 0 && s.cancel() {
		s.exhausted = true
		return
	}
	if s.foundAny {
		margin := s.bestCost - s.costNow
		if margin <= 0 || s.lowerBound(margin) >= margin {
			return
		}
	}
	ci := s.pickClause()
	if ci < 0 {
		s.record()
		return
	}
	// Collect the clause's unassigned literals into this depth's reusable
	// scratch slot (clauses are short, so the insertion sort below beats a
	// sort.Slice call — and neither allocates).
	if depth >= len(s.litsStack) {
		s.litsStack = append(s.litsStack, nil)
	}
	lits := s.litsStack[depth][:0]
	for _, l := range s.f.Clause(ci) {
		if s.state[abs(l)] == 0 {
			lits = append(lits, l)
		}
	}
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && s.litLess(lits[j], lits[j-1]); j-- {
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
	s.litsStack[depth] = lits
	// Branch: literal i true, literals 0..i-1 false.
	for i, l := range lits {
		cp := s.mark()
		ok := true
		for _, prev := range lits[:i] {
			if ok = s.force(-prev); !ok {
				break
			}
		}
		if ok && s.force(l) {
			s.search(depth + 1)
		}
		s.undoTo(cp)
		if s.exhausted {
			return
		}
	}
}

// force makes literal l true, propagating, and reports false on a
// conflict — l's variable already holding the other value included.
func (s *solver) force(l int32) bool {
	v, val := abs(l), l > 0
	if s.state[v] != 0 {
		return (s.state[v] == 1) == val
	}
	return s.assignAndPropagate(v, val)
}

func abs[T int | int32](x T) T {
	if x < 0 {
		return -x
	}
	return x
}
