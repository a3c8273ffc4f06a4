package core

import (
	"context"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Warm-start execution over versioned bases.
//
// A serving layer answering repairs over mutable sessions knows exactly
// how one version differs from the previous one: which relations an
// update batch touched and which tuples it inserted. Two facts about
// delta programs turn that knowledge into skipped work, both relying on
// rule bodies being positive conjunctions (atoms plus comparisons — the
// language has no negation):
//
//  1. Read-set pruning. Every executor's output is a function of the
//     contents of the relations some rule body references (the prepared
//     read-set). An update confined to other relations cannot change the
//     stabilizing set — and because untouched relations share their
//     frozen cores across versions, the previous result's tuples are
//     live in the new version verbatim. The previous result is the new
//     result.
//  2. Insert-seeded probing. From a stable state, deletions keep the
//     database stable (shrinking a positive body's sources never creates
//     assignments), and any assignment created by an update must bind at
//     least one inserted tuple at some base atom. Stability after an
//     update therefore needs only the insert-seeded passes — pass 0 of a
//     seminaive evaluation whose frontier is the inserted tuples —
//     instead of a full re-derivation. The same argument lets
//     end-semantics derivation continue from the previous fixpoint after
//     insert-only updates.
//
// Both paths are exact: the update-stream equivalence suite
// (internal/gen) asserts incremental results are identical to
// from-scratch recomputation at every version, for all four semantics.

// WarmStart carries incremental-update hints into RunWith and
// CheckStableWarmCtx. The caller (normally internal/server) is responsible
// for the hints' truth: PrevResult/PrevStable must describe an earlier
// version of the same database lineage, and ChangedRels/Inserted must
// cover every base change between that version and the database being
// run. Hints that do not apply to the requested semantics are ignored and
// the run falls back to a full computation, so a WarmStart never changes
// results — only how much work reproducing them takes.
type WarmStart struct {
	// PrevResult is the result computed for the same semantics at the
	// earlier version, enabling read-set pruning (all semantics) and
	// fixpoint continuation (end semantics, insert-only updates).
	PrevResult *Result
	// PrevStable, for CheckStableWarmCtx: the earlier version was verified
	// stable.
	PrevStable bool
	// ChangedRels lists the base relations modified between the earlier
	// version and now.
	ChangedRels []string
	// Inserted holds the tuples the updates inserted, per relation (the
	// interned objects from engine.ApplyInfo.InsertedTuples).
	Inserted map[string][]*engine.Tuple
	// Deleted holds the tuples the updates deleted, per relation (the
	// objects from engine.ApplyInfo.DeletedTuples). The end-semantics
	// delete continuation over-deletes their downward closure from the
	// previous fixpoint, and the cached-result change probes seed their
	// sweeps with them.
	Deleted map[string][]*engine.Tuple
	// InsertOnly reports that the updates performed no deletions, the
	// precondition for continuing an end-semantics fixpoint without delete
	// propagation.
	InsertOnly bool
}

// touchesReadSet reports whether any changed relation is in the prepared
// read-set.
func (w *WarmStart) touchesReadSet(prep *datalog.Prepared) bool {
	return prep.ReadsAnyOf(w.ChangedRels)
}

// seedRelations materializes the inserted tuples as scratch relations
// keyed by relation name, the shape EvalInsertSeeded consumes. Tuples no
// longer live in db are dropped: across a multi-version hint range a
// tuple can be inserted at one version and deleted at a later one, and
// seeding a dead tuple would fabricate assignments that do not exist in
// the probed state (a later delete of the same content re-inserts a
// fresh tuple object, so liveness of the recorded object is exact).
func (w *WarmStart) seedRelations(db *engine.Database) map[string]*engine.Relation {
	seeds := make(map[string]*engine.Relation, len(w.Inserted))
	for rel, tuples := range w.Inserted {
		if len(tuples) == 0 {
			continue
		}
		live := db.Relation(rel)
		rs := db.Schema.Relation(rel)
		if rs == nil || live == nil {
			continue
		}
		var r *engine.Relation
		for _, t := range tuples {
			if !live.ContainsTuple(t) {
				continue // inserted then deleted within the hint range
			}
			if r == nil {
				r = engine.NewScratchRelation(rel, rs.Arity())
			}
			r.Insert(t)
		}
		if r != nil {
			seeds[rel] = r
		}
	}
	return seeds
}

// warmShortcut attempts the read-set-pruning shortcut: when no changed
// relation is in the prepared read-set, the previous result is replayed
// onto a fork of the new version without any derivation. handled reports
// whether the shortcut applied; when false the caller must run the full
// policy.
func (d *Derivation) warmShortcut(sem Semantics, w *WarmStart) (*Result, *engine.Database, bool) {
	if w == nil || w.PrevResult == nil || w.PrevResult.Semantics != sem || w.touchesReadSet(d.prep) {
		return nil, nil, false
	}
	return d.replay(w.PrevResult, time.Now())
}

// replay re-applies a previous version's result onto a fork of the new
// version: every previously deleted tuple is moved base → delta again, and
// the result metadata is copied. ok is false when a previous deletion is no
// longer live — the caller's hints were wrong, and the run falls back to
// the full policy rather than trusting them.
func (d *Derivation) replay(prev *Result, start time.Time) (*Result, *engine.Database, bool) {
	res, work, err := d.finish(prev.Semantics, prev.Deleted)
	if err != nil {
		return nil, nil, false // stale hint: recompute from scratch
	}
	res.Rounds = prev.Rounds
	res.Optimal = prev.Optimal
	res.SolverNodes = prev.SolverNodes
	res.FormulaClauses = prev.FormulaClauses
	res.GraphAssignments = prev.GraphAssignments
	res.RepairCost = prev.RepairCost
	res.Timing = Breakdown{Update: time.Since(start)}
	return res, work, true
}

// changeProbe attempts cached-result replay for the semantics without an
// incremental continuation (stage, step, independent) after an update
// batch that does touch the read-set. It probes whether any rule
// assignment binds any changed tuple: every atom position is seeded in
// turn with the batch's deleted and still-live inserted tuples, while
// every other position reads live ∪ deleted — a superset of both the
// previous and the current version's contents at every atom (base atoms:
// rows absent from both are irrelevant; delta atoms: whatever subset of
// base-or-deleted content a policy's artefact ranges over). Zero probe hits
// mean no assignment of any rule, under any artefact's sources, binds a
// changed tuple, so the two versions have identical assignment universes
// — and identical enumeration order, because unchanged tuples keep their
// relative storage and index order across Apply (deletions hide rows,
// insertions append). Every policy is a deterministic function of that
// enumeration — including the variable numbering of Algorithm 1's
// formula and the tie-breaking of Algorithm 2's greedy — so the previous
// result is reproduced verbatim and is replayed without deriving anything.
// Any probe hit falls back to the full policy; the probe's cost is bounded
// by the update batch and its join neighborhood, not the database.
func (d *Derivation) changeProbe(ctx context.Context, sem Semantics, w *WarmStart) (*Result, *engine.Database, bool, error) {
	if w == nil || w.PrevResult == nil || w.PrevResult.Semantics != sem {
		return nil, nil, false, nil
	}
	start := time.Now()
	db := d.db

	// Seeds: the deleted tuples plus the still-live inserted tuples.
	// Folded multi-version hints may record tuples inserted then deleted
	// inside the range (in neither endpoint version); they stay in the
	// delete view, which only over-approximates — a spurious hit costs a
	// fallback, never correctness. The seeds get their own scratch copy of
	// the deleted tuples, because the inserted ones are added to it.
	deletes := groupByRelation(db.Schema, w.Deleted)
	seeds := groupByRelation(db.Schema, w.Deleted)
	for rel, r := range w.seedRelations(db) {
		dst := seeds[rel]
		if dst == nil {
			seeds[rel] = r
			continue
		}
		r.Scan(func(t *engine.Tuple) bool {
			dst.Insert(t)
			return true
		})
	}
	// No seeds: every change was an insert-then-delete no-op inside the hint
	// range, and both endpoint versions are identical.
	if len(seeds) > 0 {
		ec := d.prep.AcquireContext()
		defer d.prep.ReleaseContext(ec)
		for _, pr := range d.prep.Rules {
			if err := ctxErr(ctx); err != nil {
				return nil, nil, false, err
			}
			rule := pr.Rule
			src := func(bi int) datalog.AtomSource {
				rel := rule.Body[bi].Rel
				if del := deletes[rel]; del != nil {
					return datalog.AtomSource{db.Relation(rel), del}
				}
				return datalog.AtomSource{db.Relation(rel)}
			}
			hit := false
			err := pr.EvalChangeSeeded(seeds, false, src, ec, func(*datalog.Assignment) bool {
				hit = true
				return false
			})
			if err != nil {
				return nil, nil, false, err
			}
			if hit {
				return nil, nil, false, nil // the change interacts: full run
			}
		}
	}
	res, work, ok := d.replay(w.PrevResult, start)
	return res, work, ok, nil
}

// groupByRelation materializes per-relation tuple lists as scratch
// relations, dropping empty groups.
func groupByRelation(schema *engine.Schema, lists map[string][]*engine.Tuple) map[string]*engine.Relation {
	out := make(map[string]*engine.Relation, len(lists))
	for rel, tuples := range lists {
		if len(tuples) == 0 {
			continue
		}
		rs := schema.Relation(rel)
		if rs == nil {
			continue
		}
		r := engine.NewScratchRelation(rel, rs.Arity())
		for _, t := range tuples {
			r.Insert(t)
		}
		out[rel] = r
	}
	return out
}

// CheckStableWarmCtx reports whether db is stable (Def. 3.12), using
// incremental hints to avoid a full probe. When the hints say an earlier
// version was stable, the new state can only be unstable through an
// assignment binding at least one freshly inserted tuple (rule bodies are
// positive; deletions never create assignments), so:
//
//   - an update outside the prepared read-set, or one that only deleted,
//     needs no evaluation at all;
//   - otherwise only the rules reading an inserted-into relation are
//     probed, and only through their insert-seeded passes.
//
// Without usable hints (nil w, or the earlier version was not known
// stable) this is exactly CheckStablePCtx.
func CheckStableWarmCtx(ctx context.Context, db *engine.Database, prep *datalog.Prepared, w *WarmStart) (bool, error) {
	if w == nil || !w.PrevStable {
		return CheckStablePCtx(ctx, db, prep)
	}
	if !w.touchesReadSet(prep) {
		return true, nil
	}
	seeds := w.seedRelations(db)
	if len(seeds) == 0 {
		// Deletion-only update from a stable state: still stable.
		return true, nil
	}
	ec := prep.AcquireContext()
	defer prep.ReleaseContext(ec)
	for _, pr := range prep.Rules {
		if !pr.ReadsAny(func(rel string) bool { return seeds[rel] != nil }) {
			continue
		}
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		found := false
		err := pr.EvalInsertSeeded(db, seeds, ec, func(*datalog.Assignment) bool {
			found = true
			return false
		})
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}
