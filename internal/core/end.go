package core

import (
	"context"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/provenance"
)

// RunEnd computes End(P, D) (Def. 3.10): standard datalog evaluation
// treating delta relations as intensional — all possible delta tuples are
// derived against the original base relations, and the bases are updated
// once at the very end. The result is unique (the datalog fixpoint).
//
// The returned database is the repaired instance (D \ S) ∪ ∆(S).
func RunEnd(db *engine.Database, p *datalog.Program) (*Result, *engine.Database, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	return runEnd(nil, db, prep)
}

func runEnd(ctx context.Context, db *engine.Database, prep *datalog.Prepared) (*Result, *engine.Database, error) {
	res, work, _, err := runEndCaptured(ctx, db, prep, false)
	return res, work, err
}

// CaptureProvenance runs end-semantics derivation and returns the layered
// provenance graph (§5.2, Figure 5 of the paper) without applying any
// deletions. The graph underlies Algorithm 2, the Explainer, and the DOT
// visualization.
func CaptureProvenance(db *engine.Database, p *datalog.Program) (*provenance.Graph, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, err
	}
	_, _, graph, err := runEndCaptured(nil, db, prep, true)
	return graph, err
}

// RunEndNaive is RunEnd evaluated without the seminaive frontier
// optimization: every round re-evaluates every rule against all deltas
// derived so far. The result is identical to RunEnd; this entry point
// exists for the evaluation-strategy ablation benchmark (the paper's
// implementation uses "standard naïve evaluation", §6).
func RunEndNaive(db *engine.Database, p *datalog.Program) (*Result, *engine.Database, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	work := db.Fork()
	start := time.Now()
	derived, rounds, err := derive(work, prep, deriveConfig{naive: true})
	evalDur := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	updStart := time.Now()
	for _, t := range derived {
		work.Relation(t.Rel).DeleteTuple(t)
	}
	res := newResult(SemEnd, append([]*engine.Tuple(nil), derived...))
	res.Rounds = rounds
	res.Optimal = true
	res.Timing = Breakdown{Eval: evalDur, Update: time.Since(updStart)}
	return res, work, nil
}

// runEndWarm continues the end-semantics fixpoint from a previous
// version's result after insert-only base updates, instead of re-deriving
// from scratch. Soundness: end-semantics derivation is monotone in the
// base (bodies are positive and bases never shrink during the run), so
// with no deletions since the previous version every previously derived
// delta is still derivable — the old fixpoint is a subset of the new one.
// The old deltas are installed as already-derived, and the first round
// evaluates only the insert-seeded passes (every genuinely new assignment
// binds at least one inserted tuple); later rounds run the normal
// seminaive frontier. The unique-fixpoint result is identical to a
// from-scratch run.
//
// ok reports whether the warm continuation applied; when false (no usable
// hints, or a hint referenced a tuple that is not live — a stale hint)
// the caller must run the full executor.
func runEndWarm(ctx context.Context, db *engine.Database, prep *datalog.Prepared, w *WarmStart) (*Result, *engine.Database, bool, error) {
	if w == nil || !w.InsertOnly || w.PrevResult == nil || w.PrevResult.Semantics != SemEnd {
		return nil, nil, false, nil
	}
	work := db.Fork()
	prev := w.PrevResult.Deleted
	for _, t := range prev {
		if !work.Relation(t.Rel).ContainsTuple(t) {
			return nil, nil, false, nil // stale hint: recompute from scratch
		}
		work.Delta(t.Rel).Insert(t)
	}
	start := time.Now()
	derived, rounds, err := derive(work, prep, deriveConfig{
		ctx:       ctx,
		warmSeeds: w.seedRelations(work),
	})
	evalDur := time.Since(start)
	if err != nil {
		return nil, nil, true, err
	}
	all := make([]*engine.Tuple, 0, len(prev)+len(derived))
	all = append(append(all, prev...), derived...)
	updStart := time.Now()
	for _, t := range all {
		work.Relation(t.Rel).DeleteTuple(t)
	}
	res := newResult(SemEnd, all)
	res.Rounds = rounds
	res.Optimal = true
	res.Timing = Breakdown{Eval: evalDur, Update: time.Since(updStart)}
	return res, work, true, nil
}

// runEndCaptured is runEnd optionally capturing the provenance graph for
// Algorithm 2 (step semantics): the graph records every assignment of the
// end-semantics derivation with its round as the layer.
func runEndCaptured(ctx context.Context, db *engine.Database, prep *datalog.Prepared, capture bool) (*Result, *engine.Database, *provenance.Graph, error) {
	work := db.Fork()
	var graph *provenance.Graph
	if capture {
		graph = provenance.NewGraph()
	}

	start := time.Now()
	derived, rounds, err := derive(work, prep, deriveConfig{shrinkBases: false, capture: graph, ctx: ctx})
	evalDur := time.Since(start)
	if err != nil {
		return nil, nil, nil, err
	}

	// Def. 3.10 final state: R_i^T ← R_i^0 \ ∆_i^T.
	updStart := time.Now()
	for _, t := range derived {
		work.Relation(t.Rel).DeleteTuple(t)
	}
	updDur := time.Since(updStart)

	res := newResult(SemEnd, append([]*engine.Tuple(nil), derived...))
	res.Rounds = rounds
	res.Optimal = true // unique fixpoint; nothing to optimize
	res.Timing = Breakdown{Eval: evalDur, Update: updDur}
	if graph != nil {
		res.GraphAssignments = graph.NumAssignments()
	}
	return res, work, graph, nil
}
