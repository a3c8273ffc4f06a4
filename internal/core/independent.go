package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/sat"
)

// IndependentOptions configures Algorithm 1.
type IndependentOptions struct {
	// MaxNodes is the Min-Ones-SAT node budget (0 = solver default). When
	// the budget is exhausted the best satisfying assignment found is used:
	// it still yields a stabilizing set, just without a minimality proof —
	// mirroring the paper's remark that any satisfying assignment
	// stabilizes the database.
	MaxNodes int64
	// MaxClauses caps the provenance formula size; 0 means
	// DefaultMaxClauses. Exceeding the cap is an error (the positivized
	// join blew up; rescale the workload).
	MaxClauses int
	// DisablePreferDerivable turns off the tie-breaking preference for
	// end-derivable tuples. With the preference on (default), when several
	// minimum repairs exist the solver steers toward tuples that other
	// semantics can also delete, maximizing Ind ⊆ Step/Stage containment
	// (the configuration the paper's tables reflect).
	DisablePreferDerivable bool
	// Weight, when non-nil, turns the objective from minimum cardinality
	// into minimum total weight: deleting tuple t costs Weight(t) (values
	// < 1 count as 1). This generalizes the paper's minimum-cardinality
	// metric to tuples of unequal importance — e.g. penalize deleting
	// master-data rows over link rows.
	Weight func(*engine.Tuple) int64
}

// DefaultMaxClauses bounds the provenance formula of Algorithm 1.
const DefaultMaxClauses = 5_000_000

// errTooManyClauses is the error of a closure formula over maxClauses.
func errTooManyClauses(maxClauses int) error {
	return fmt.Errorf("core: provenance formula exceeded %d clauses", maxClauses)
}

// indCNF is the compiled Algorithm 1 instance — the positivized provenance
// formula negated into CNF over deletion variables, plus the solver
// steering derived from it. It is shared between the single-repair policy
// (runIndependent) and the repair-space enumerator (enumerate): both must
// see the byte-identical formula so their first solutions agree.
type indCNF struct {
	prov *closure
	cnf  *sat.Formula
	// preDeletedCost is what the pre-deleted variables contribute to every
	// model's weighted cost.
	preDeletedCost int64
	prefer         []int
	weights        []int64
	evalDur        time.Duration
	ppDur          time.Duration
}

// buildCNF runs phases 1–2 of Algorithm 1 (Eval + ProcessProv) and
// assembles the solver inputs.
//
// Line 1 of Algorithm 1 asks for the provenance of every possible delta
// tuple: one clause per assignment with delta atoms ranging over every base
// tuple. Phase 1 builds only the part of that formula that can matter, and
// the restriction is exact, not a heuristic.
//
// Lemma. Let F be the full CNF — a clause (∨ x_p ∨ ∨ ¬x_d) per assignment, a
// unit clause per pre-deleted tuple — plus the blocking clauses of any
// enumeration prefix. Let V be the least set that contains the pre-deleted
// tuples and, for every clause whose negative literals all lie in V, that
// clause's positive literals. Let F_V be the clauses whose negative
// literals all lie in V; every variable of F_V then lies in V.
//
//   - If M is a model of F, then M ∩ V is a model of F and of F_V: a
//     dropped clause has a negative literal outside V, false in M ∩ V; a
//     kept clause mentions only variables in V, on which M ∩ V agrees with
//     M (so one satisfied positively is satisfied by a variable in V); a
//     blocking clause (∨ ¬x_s, s ∈ S ⊆ V) stays satisfied for the same
//     reason.
//   - A model of F_V, extended by false outside V, is a model of F: every
//     dropped clause has a negative literal outside V.
//
// Hence F and F_V have the same set-minimal models (a set-minimal model M
// of F equals M ∩ V) and the same minimum cost, and — weights being ≥ 1, so
// that cost order refines set inclusion — the same cost-ordered k-best
// set-minimal enumeration with the same Complete flag. V is what derive's
// closure mode computes: seeded with db's deltas, each round adds the
// positive literals of the clauses whose negative literals the rounds
// before it put into V.
func (d *Derivation) buildCNF(ctx context.Context, opts IndependentOptions) (*indCNF, error) {
	// Phase 1 (Eval): provenance of the relevant possible delta tuples,
	// seeded with the deletions made before this run (the §3.6 "user deletes
	// a specific set of tuples" initialization), which are forced deleted in
	// the CNF below. Shared with step and the Explainer, and charged here
	// only if nobody built it before.
	prov, evalDur, err := d.closureArtefact(ctx, opts.MaxClauses)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	formula := prov.formula

	// Phase 2 (ProcessProv): negate into CNF over deletion variables
	// (lines 2–4): clause (t₁ ∧ … ∧ ¬d₁ ∧ …) negates to
	// (x_t₁ ∨ … ∨ ¬x_d₁ ∨ …) where x_t means "t is deleted". The formula
	// wrote that CNF as it derived the clauses, with the pre-deleted
	// tuples' unit clauses after them (closureArtefact), and the solver
	// reads it in place: SAT variables are the formula's, numbered 1:1 from
	// interned tuple IDs by first occurrence, and no copy of the clauses
	// exists anywhere on this path.
	ppStart := time.Now()
	// weightOf is the objective's cost of deleting t: 1 under minimum
	// cardinality, Weight(t) when that is larger.
	weightOf := func(t *engine.Tuple) int64 {
		if opts.Weight != nil && t != nil {
			if w := opts.Weight(t); w > 1 {
				return w
			}
		}
		return 1
	}
	// Every model pays for the forced pre-deleted tuples, so the reported
	// cost leaves them out — it is the cost of the new deletions, whichever
	// pre-deleted tuples the closure's clauses happen to mention.
	var preDeletedCost int64
	for _, t := range prov.seeds {
		if formula.Var(t.TID) != 0 {
			preDeletedCost += weightOf(t)
		}
	}

	// Tie preference: try end-derivable tuples first (deepest layer first),
	// steering equal-cost optima toward sets other semantics contain. The
	// order is read off the end fixpoint's provenance graph.
	var prefer []int
	if !opts.DisablePreferDerivable {
		graph, err := d.endGraph(ctx, prov)
		if err != nil {
			return nil, err
		}
		heads := slices.Clone(graph.Heads)
		sort.SliceStable(heads, func(i, j int) bool { return graph.Layer[heads[i]] > graph.Layer[heads[j]] })
		for _, h := range heads {
			if v := formula.Var(h); v != 0 {
				prefer = append(prefer, v)
			}
		}
	}
	ppDur := time.Since(ppStart)

	// Optional weighted objective: minimum total weight instead of
	// minimum cardinality.
	var weights []int64
	if opts.Weight != nil {
		weights = make([]int64, len(prov.tuples))
		for v := 1; v < len(weights); v++ {
			weights[v] = weightOf(prov.tuples[v])
		}
	}

	return &indCNF{
		prov:           prov,
		cnf:            formula.CNF(),
		preDeletedCost: preDeletedCost,
		prefer:         prefer,
		weights:        weights,
		evalDur:        evalDur,
		ppDur:          ppDur,
	}, nil
}

// closure is a Derivation's provenance: Algorithm 1's formula F_V with its
// occurrence index, the end graph read off it on first demand (endGraph),
// the tuple of each of the formula's variables (tuples[0] is nil), and the
// pre-deleted tuples seeding both (in scan order, and as a set). Everything
// but graph is fixed once closureArtefact publishes it; graph is written
// under the derivation's lock.
type closure struct {
	formula    *provenance.Formula
	graph      *provenance.Graph
	tuples     []*engine.Tuple
	seeds      []*engine.Tuple
	preDeleted map[engine.TupleID]bool
}

// endGraph returns the closure's end graph, read off the formula by
// EndGraph on first demand under the derivation's lock: step,
// independent's tie order, the end fixpoint and the Explainer read it,
// stage does not.
func (d *Derivation) endGraph(ctx context.Context, c *closure) (*provenance.Graph, error) {
	if err := d.lock(ctx); err != nil {
		return nil, err
	}
	defer d.unlock()
	return c.endGraphLocked(), nil
}

// endGraphLocked is endGraph for a caller holding the derivation's lock.
func (c *closure) endGraphLocked() *provenance.Graph {
	if c.graph == nil {
		c.graph = c.formula.EndGraph(c.preDeleted)
	}
	return c.graph
}

// closureArtefact returns the Derivation's provenance, built on first
// demand under the derivation's lock by derive's closure mode, which yields
// F_V, and indexed by occurrence there too, so that the policies only read
// it; evalDur times that, and is zero on a memo hit. maxClauses ≤ 0 means
// DefaultMaxClauses; a memoised formula over the cap fails as a fresh build
// under it would, and a build that fails is not memoised.
//
// Lemma. Let E be the end fixpoint (Def. 3.10) plus the pre-deleted tuples,
// and V, F_V as on buildCNF. Every end-semantics assignment is a clause of
// F_V, and E ⊆ V: by induction on rounds, an assignment binds base atoms to
// the live base and delta atoms to earlier members of E, in V, so its
// clause is in F_V, and its head, bound at the self atom (Def. 3.1), is a
// positive literal of it. Conversely a clause of F_V whose negative
// literals all lie in E is an end-semantics assignment. So E is the forward
// (Horn) closure of F_V from the pre-deleted tuples, the end graph is F_V's
// clauses with negative literals in E, and seminaive end evaluation
// enumerates each in round 1 + the latest round among its negative
// literals (pre-deleted: 0) — EndGraph's layers. V ⊋ E is possible (a base
// atom of one rule can be another's delta atom): the projection only drops.
func (d *Derivation) closureArtefact(ctx context.Context, maxClauses int) (prov *closure, evalDur time.Duration, err error) {
	if maxClauses <= 0 {
		maxClauses = DefaultMaxClauses
	}
	if err := d.lock(ctx); err != nil {
		return nil, 0, err
	}
	defer d.unlock()
	if d.prov != nil {
		if d.prov.formula.Len() > maxClauses {
			return nil, 0, errTooManyClauses(maxClauses)
		}
		return d.prov, 0, nil
	}
	start := time.Now()
	formula := provenance.NewFormula()
	derived, seeds, err := Closure(ctx, d.db, d.prep, formula, nil, maxClauses)
	if err != nil {
		return nil, 0, err
	}
	prov = &closure{formula: formula, tuples: make([]*engine.Tuple, len(formula.TupleIDs())+1), seeds: seeds, preDeleted: make(map[engine.TupleID]bool, len(seeds))}
	for _, t := range derived { // V less the seeds: each a clause's Pos tuple, so numbered
		prov.tuples[formula.Var(t.TID)] = t
	}
	for _, t := range seeds {
		prov.preDeleted[t.TID] = true
		if v := formula.Var(t.TID); v != 0 {
			prov.tuples[v] = t
		}
	}
	formula.Occurrences() // built here, once, so the policies' reads never write
	d.prov = prov
	return prov, time.Since(start), nil
}

// Closure writes Algorithm 1's restricted formula F_V into formula:
// derive's closure mode over db under prep, seeded with db's deltas as
// forced deletions and with possible as possible ones, then a unit clause
// per pre-deleted tuple the clauses mention (pre-existing deletions are
// facts, not choices). It returns the tuples derived — V less both kinds
// of seed, each a variable of formula — and the pre-deleted tuples in scan
// order. Past maxClauses clauses (≤ 0: DefaultMaxClauses) it fails.
//
// Lemma. formula may already hold clauses with no negative literal, such
// as §7's witness clauses "delete one of this view row's witness tuples"
// (sideeffect.DeleteViewTuple), if possible lists their tuples: the lemma
// on buildCNF carries over unchanged. Such a clause's negative literals
// lie in V vacuously, so its positive literals enter V, and the least V of
// the combined formula is the closure seeded with them, which derive
// computes. F_V then has the same set-minimal models and minimum cost as
// the full formula, whose delta atoms range over every possible deletion.
func Closure(ctx context.Context, db *engine.Database, prep *datalog.Prepared, formula *provenance.Formula, possible []*engine.Tuple, maxClauses int) (derived, preDeleted []*engine.Tuple, err error) {
	if maxClauses <= 0 {
		maxClauses = DefaultMaxClauses
	}
	derived, _, err = derive(db, prep, deriveConfig{closure: formula, possible: possible, maxClauses: maxClauses, ctx: ctx})
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range db.Schema.Relations {
		db.Delta(rs.Name).Scan(func(t *engine.Tuple) bool {
			preDeleted = append(preDeleted, t)
			if v := formula.Var(t.TID); v != 0 {
				_, _ = formula.CNF().AddClause(v) // v is one of the CNF's own variables
			}
			return true
		})
	}
	return derived, preDeleted, nil
}

// satOptions assembles the solver options for one Min-Ones search over the
// compiled CNF.
func (ic *indCNF) satOptions(ctx context.Context, opts IndependentOptions) sat.Options {
	var cancel func() bool
	if ctx != nil {
		cancel = func() bool { return ctx.Err() != nil }
	}
	return sat.Options{MaxNodes: opts.MaxNodes, Prefer: ic.prefer, Weights: ic.weights, Cancel: cancel}
}

// solution turns a satisfying assignment into the deleted-tuple set,
// verifying stabilization (correctness of Algorithm 1) on the repaired
// instance: fail loudly rather than return a bad repair.
func (d *Derivation) solution(ctx context.Context, ic *indCNF, assignment []bool) (*Result, error) {
	var chosen []engine.TupleID
	for i, id := range ic.prov.formula.TupleIDs() {
		if assignment[i+1] && !ic.prov.preDeleted[id] {
			chosen = append(chosen, id)
		}
	}
	res, err := d.finishIDs(SemIndependent, ic.prov, chosen)
	if err != nil {
		return nil, err
	}
	work, err := Materialize(d.db, res)
	if err != nil {
		return nil, err
	}
	stable, err := checkStable(ctx, work, d.prep)
	if err != nil {
		return nil, err
	}
	if !stable {
		return nil, fmt.Errorf("core: independent repair failed to stabilize (internal error)")
	}
	res.FormulaClauses = ic.prov.formula.Len()
	return res, nil
}

// runIndependent computes Ind(P, D) with Algorithm 1: store the DNF
// provenance of the relevant *possible* delta tuples (delta body atoms range
// over the possible-deletion closure V, not just derivable tuples — and, by
// the lemma on buildCNF, need range no further), negate into CNF over "tuple
// deleted" variables, and find a satisfying assignment setting the minimum
// number of variables true. The deleted-variable set is the repair;
// Result.Optimal reports whether the solver proved minimality.
func (d *Derivation) runIndependent(opts Options) (*Result, error) {
	ctx := opts.Ctx
	ic, err := d.buildCNF(ctx, opts.Independent)
	if err != nil {
		return nil, err
	}

	// Phase 3 (Solve): Min-Ones-SAT (line 5).
	solveStart := time.Now()
	solved := sat.MinOnes(ic.cnf, ic.satOptions(ctx, opts.Independent))
	solveDur := time.Since(solveStart)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !solved.Satisfiable {
		// Cannot happen: every clause has a positive literal (the self
		// atom), so the all-true assignment satisfies the CNF.
		return nil, fmt.Errorf("core: provenance CNF unexpectedly unsatisfiable")
	}

	// Output (line 6): tuples whose deletion variable is true. Update spans
	// the stabilization proof and its fork.
	updStart := time.Now()
	res, err := d.solution(ctx, ic, solved.Assignment)
	if err != nil {
		return nil, err
	}
	res.Optimal = solved.Optimal
	res.SolverNodes = solved.Nodes
	res.RepairCost = solved.WeightedCost - ic.preDeletedCost
	res.Timing = Breakdown{Eval: ic.evalDur, ProcessProv: ic.ppDur, Solve: solveDur, Update: time.Since(updStart)}
	return res, nil
}
