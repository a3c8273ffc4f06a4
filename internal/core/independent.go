package core

import (
	"context"
	"fmt"
	"sort"
	"time"

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

// indCNF is the compiled Algorithm 1 instance — the positivized provenance
// formula negated into CNF over deletion variables, plus the solver
// steering derived from it. It is shared between the single-repair policy
// (runIndependent) and the repair-space enumerator (enumerate): both must
// see the byte-identical formula so their first solutions agree.
type indCNF struct {
	formula    *provenance.Formula
	cnf        *sat.Formula
	ids        []engine.TupleID
	varOf      map[engine.TupleID]int
	preDeleted map[engine.TupleID]bool
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
	db := d.db
	maxClauses := opts.MaxClauses
	if maxClauses <= 0 {
		maxClauses = DefaultMaxClauses
	}

	// Phase 1 (Eval): provenance of the relevant possible delta tuples,
	// seeded with the deletions made before this run (the §3.6 "user deletes
	// a specific set of tuples" initialization), which are forced deleted in
	// the CNF below.
	evalStart := time.Now()
	formula, err := d.closureFormula(ctx, maxClauses)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	evalDur := time.Since(evalStart)

	// Phase 2 (ProcessProv): negate into CNF over deletion variables
	// (lines 2–4): clause (t₁ ∧ … ∧ ¬d₁ ∧ …) negates to
	// (x_t₁ ∨ … ∨ ¬x_d₁ ∨ …) where x_t means "t is deleted". SAT variables
	// map 1:1 to interned tuple IDs (numbered by first occurrence); no
	// string keys exist anywhere on this path.
	ppStart := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ids := formula.TupleIDs()
	varOf := make(map[engine.TupleID]int, len(ids))
	for i, id := range ids {
		varOf[id] = i + 1
	}
	cnf := sat.NewFormula(len(ids))
	for _, c := range formula.Clauses {
		lits := make([]int, 0, len(c.Pos)+len(c.Neg))
		for _, id := range c.Pos {
			lits = append(lits, varOf[id])
		}
		for _, id := range c.Neg {
			lits = append(lits, -varOf[id])
		}
		if err := cnf.AddClause(lits...); err != nil {
			return nil, err
		}
	}
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
	// Pre-existing deletions are facts, not choices: force their
	// variables true so the stability clauses respect them. Every model
	// pays for them, so the reported cost leaves them out — it is the cost
	// of the new deletions, whichever pre-deleted tuples the closure's
	// clauses happen to mention.
	preDeleted := make(map[engine.TupleID]bool)
	var preDeletedCost int64
	for _, rs := range db.Schema.Relations {
		db.Delta(rs.Name).Scan(func(t *engine.Tuple) bool {
			preDeleted[t.TID] = true
			if v, ok := varOf[t.TID]; ok {
				if err := cnf.AddClause(v); err != nil {
					return false
				}
				preDeletedCost += weightOf(t)
			}
			return true
		})
	}

	// Tie preference: try end-derivable tuples first (deepest layer first),
	// steering equal-cost optima toward sets other semantics contain. The
	// order is read off the end fixpoint's provenance graph, shared with
	// step and charged to this phase only if nobody produced it before.
	var prefer []int
	if !opts.DisablePreferDerivable {
		if _, _, err := d.endFixpoint(ctx, nil, true); err != nil {
			return nil, err
		}
		graph := d.graph
		heads := append([]engine.TupleID(nil), graph.Heads...)
		idx := make(map[engine.TupleID]int, len(heads))
		for i, h := range heads {
			idx[h] = i
		}
		sort.SliceStable(heads, func(i, j int) bool {
			li, lj := graph.Layer[heads[i]], graph.Layer[heads[j]]
			if li != lj {
				return li > lj
			}
			return idx[heads[i]] < idx[heads[j]]
		})
		for _, h := range heads {
			if v, ok := varOf[h]; ok {
				prefer = append(prefer, v)
			}
		}
	}
	ppDur := time.Since(ppStart)

	// Optional weighted objective: minimum total weight instead of
	// minimum cardinality.
	var weights []int64
	if opts.Weight != nil {
		weights = make([]int64, len(ids)+1)
		for i, id := range ids {
			weights[i+1] = weightOf(db.LookupID(id))
		}
	}

	return &indCNF{
		formula:        formula,
		cnf:            cnf,
		ids:            ids,
		varOf:          varOf,
		preDeleted:     preDeleted,
		preDeletedCost: preDeletedCost,
		prefer:         prefer,
		weights:        weights,
		evalDur:        evalDur,
		ppDur:          ppDur,
	}, nil
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

// materialize turns a satisfying assignment into the deleted-tuple set and
// the repaired fork, verifying stabilization (correctness of Algorithm 1):
// fail loudly rather than return a bad repair.
func (d *Derivation) materialize(ctx context.Context, ic *indCNF, assignment []bool) (*Result, *engine.Database, error) {
	var chosen []engine.TupleID
	for i, id := range ic.ids {
		if assignment[i+1] && !ic.preDeleted[id] {
			chosen = append(chosen, id)
		}
	}
	res, work, err := d.finishIDs(SemIndependent, chosen)
	if err != nil {
		return nil, nil, err
	}
	stable, err := CheckStablePCtx(ctx, work, d.prep)
	if err != nil {
		return nil, nil, err
	}
	if !stable {
		return nil, nil, fmt.Errorf("core: independent repair failed to stabilize (internal error)")
	}
	res.FormulaClauses = ic.formula.Len()
	return res, work, nil
}

// runIndependent computes Ind(P, D) with Algorithm 1: store the DNF
// provenance of the relevant *possible* delta tuples (delta body atoms range
// over the possible-deletion closure V, not just derivable tuples — and, by
// the lemma on buildCNF, need range no further), negate into CNF over "tuple
// deleted" variables, and find a satisfying assignment setting the minimum
// number of variables true. The deleted-variable set is the repair;
// Result.Optimal reports whether the solver proved minimality.
func (d *Derivation) runIndependent(opts Options) (*Result, *engine.Database, error) {
	ctx := opts.Ctx
	ic, err := d.buildCNF(ctx, opts.Independent)
	if err != nil {
		return nil, nil, err
	}

	// Phase 3 (Solve): Min-Ones-SAT (line 5).
	solveStart := time.Now()
	solved := sat.MinOnes(ic.cnf, ic.satOptions(ctx, opts.Independent))
	solveDur := time.Since(solveStart)
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	if !solved.Satisfiable {
		// Cannot happen: every clause has a positive literal (the self
		// atom), so the all-true assignment satisfies the CNF.
		return nil, nil, fmt.Errorf("core: provenance CNF unexpectedly unsatisfiable")
	}

	// Output (line 6): tuples whose deletion variable is true. Update spans
	// the stabilization proof as well as the fork.
	updStart := time.Now()
	res, work, err := d.materialize(ctx, ic, solved.Assignment)
	if err != nil {
		return nil, nil, err
	}
	res.Optimal = solved.Optimal
	res.SolverNodes = solved.Nodes
	res.RepairCost = solved.WeightedCost - ic.preDeletedCost
	res.Timing = Breakdown{Eval: ic.evalDur, ProcessProv: ic.ppDur, Solve: solveDur, Update: time.Since(updStart)}
	return res, work, nil
}
