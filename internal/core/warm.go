package core

import (
	"context"
	"slices"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Warm-start execution over versioned bases.
//
// A serving layer answering repairs over mutable sessions knows exactly
// how one version differs from the previous one: which tuples an update
// batch inserted and which it deleted. §3 defines all four semantics over
// one set of delta-rule assignments, and rule bodies are positive
// conjunctions (atoms plus comparisons — the language has no negation), so
// an assignment present at one version but not the other must bind a
// changed tuple at some atom. Three mechanisms turn that into skipped work,
// all driven by the one seeded evaluation, PreparedRule.EvalChangeSeeded:
//
//  1. Probe replay (every semantics, changeProbe). Seed every atom with the
//     changed tuples over sources covering both versions; zero hits mean
//     both versions have the same assignments in the same order, so the
//     previous result is replayed without deriving anything. A batch
//     confined to relations no rule reads seeds nothing and always
//     replays.
//  2. End continuation (end, previousEndFixpoint). When the probe hits
//     after an insert-only batch, end continues the previous fixpoint
//     instead of deriving cold (end is monotone in the base); round 1 then
//     evaluates only the insert-seeded passes. After a batch with
//     deletions end derives cold.
//  3. Insert-seeded stability (CheckStable with PrevStable hints). From a
//     stable state, deletions keep the database stable and any new
//     assignment binds an inserted tuple at some base atom, so stability
//     needs only the insert-seeded passes.
//
// All three are exact: the update-stream equivalence suite (internal/gen)
// asserts incremental results are identical to from-scratch recomputation
// at every version, for all four semantics.

// WarmStart carries incremental-update hints into RunWith and CheckStable
// (Options.Warm). The caller (normally internal/server) is responsible
// for the hints' truth: PrevResult/PrevStable must describe an earlier
// version of the same database lineage, and Inserted and Deleted must
// cover every base change between that version and the database being
// run. Hints that do not apply to the requested semantics are ignored and
// the run falls back to a full computation, so a WarmStart never changes
// results — only how much work reproducing them takes.
type WarmStart struct {
	// PrevResult is the result computed for the same semantics at the
	// earlier version, enabling probe replay (all semantics) and fixpoint
	// continuation (end semantics).
	PrevResult *Result
	// PrevStable, for CheckStable: the earlier version was verified
	// stable.
	PrevStable bool
	// Inserted holds the tuples the updates inserted, per relation (the
	// interned objects from engine.ApplyInfo.InsertedTuples).
	Inserted map[string][]*engine.Tuple
	// Deleted holds the tuples the updates deleted, per relation (the
	// objects from engine.ApplyInfo.DeletedTuples). The change probe seeds
	// its sweeps with them; any at all rule out the end continuation.
	Deleted map[string][]*engine.Tuple
}

// seedRelations materializes the inserted tuples as scratch relations
// keyed by relation name, the seed shape EvalChangeSeeded consumes. Tuples no
// longer live in db are dropped: across a multi-version hint range a
// tuple can be inserted at one version and deleted at a later one, and
// seeding a dead tuple would fabricate assignments that do not exist in
// the probed state (a later delete of the same content re-inserts a
// fresh tuple object, so liveness of the recorded object is exact).
func (w *WarmStart) seedRelations(db *engine.Database) map[string]*engine.Relation {
	return groupByRelation(db.Schema, w.Inserted, func(t *engine.Tuple) bool {
		live := db.Relation(t.Rel)
		return live != nil && live.ContainsTuple(t)
	})
}

// previousEndFixpoint returns the previous version's end fixpoint for
// Derivation.endFixpoint to continue from instead of deriving cold. It
// answers only after insert-only ranges: end-semantics derivation is
// monotone in the base (bodies are positive and bases never shrink during
// the run), so with no deletions every previously derived delta is still
// derivable — the old fixpoint is a subset of the new one and is continued
// as it stands, to the unique fixpoint a from-scratch run reaches.
//
// ok is false when there are no usable hints, the range deleted anything,
// or a hint references a tuple that is not live — a stale hint; the caller
// then derives cold. After deletions the cold derivation is cheaper than
// maintaining the fixpoint on the served workloads: on MAS-8's and
// MAS-19's hub cascades, over-deleting and re-deriving cost more than one
// cold run.
func previousEndFixpoint(db *engine.Database, w *WarmStart) ([]*engine.Tuple, bool) {
	if w == nil || w.PrevResult == nil || w.PrevResult.Semantics != SemEnd || len(w.Deleted) > 0 {
		return nil, false
	}
	for _, t := range w.PrevResult.Deleted {
		if !db.Relation(t.Rel).ContainsTuple(t) {
			return nil, false // stale hint: recompute from scratch
		}
	}
	return w.PrevResult.Deleted, true
}

// replay reproduces a previous version's result at the new version: the
// deleted set and the result metadata are copied. ok is false when a
// previous deletion is no longer live — the caller's hints were wrong, and
// the run falls back to the full policy rather than trusting them.
func (d *Derivation) replay(prev *Result, start time.Time) (*Result, bool) {
	for _, t := range prev.Deleted {
		if !d.live(t) {
			return nil, false // stale hint: recompute from scratch
		}
	}
	// The ID set is read-only once built, so the replay shares it.
	res := &Result{Semantics: prev.Semantics, Deleted: slices.Clone(prev.Deleted), ids: prev.ids,
		Rounds: prev.Rounds, Optimal: prev.Optimal, SolverNodes: prev.SolverNodes,
		FormulaClauses: prev.FormulaClauses, GraphAssignments: prev.GraphAssignments,
		RepairCost: prev.RepairCost}
	res.Timing = Breakdown{Update: time.Since(start)}
	return res, true
}

// changeProbe attempts cached-result replay, for every semantics. It
// probes whether any rule assignment binds any changed tuple: every atom
// position is seeded in turn with the batch's deleted and still-live
// inserted tuples, while every other position reads live ∪ deleted — a
// superset of both the previous and the current version's contents at every
// atom (base atoms: rows absent from both are irrelevant; delta atoms:
// whatever subset of base-or-deleted content a policy's artefact ranges
// over). Zero probe hits mean no assignment of any rule, under any
// artefact's sources, binds a changed tuple, so the two versions have
// identical assignment universes — and identical enumeration order, because
// unchanged tuples keep their relative storage and index order across Apply
// (deletions hide rows, insertions append). Every policy is a deterministic
// function of that enumeration — the end and stage fixpoints, the variable
// numbering of Algorithm 1's formula and the tie-breaking of Algorithm 2's
// greedy — so the previous result is reproduced verbatim and is replayed
// without deriving anything. A batch confined to relations no rule reads
// seeds no atom and replays. Any probe hit falls back to the full policy
// (for end, the insert-only continuation); the probe's cost is bounded by
// the update batch and its join neighborhood, not the database.
func (d *Derivation) changeProbe(ctx context.Context, sem Semantics, w *WarmStart) (*Result, bool, error) {
	if w == nil || w.PrevResult == nil || w.PrevResult.Semantics != sem {
		return nil, false, nil
	}
	start := time.Now()
	// An empty hint range — a repeat read at the cached version — replays
	// before any scratch relation is built.
	if len(w.Inserted) > 0 || len(w.Deleted) > 0 {
		if hit, err := d.changeHits(ctx, w); hit || err != nil {
			return nil, false, err
		}
	}
	res, ok := d.replay(w.PrevResult, start)
	return res, ok, nil
}

// changeHits runs changeProbe's sweep and reports whether any assignment
// binds a changed tuple. The deleted tuples and the still-live inserted ones
// seed separate sweeps over the same sources: a seeded pass over a union is
// the union of the passes over its parts. Folded multi-version hints may
// record tuples inserted then deleted inside the range (in neither endpoint
// version); they stay in the delete view, which only over-approximates — a
// spurious hit costs a fallback, never correctness. With no seeds at all,
// every change was an insert-then-delete no-op inside the hint range, and
// both endpoint versions are identical.
func (d *Derivation) changeHits(ctx context.Context, w *WarmStart) (bool, error) {
	db := d.db
	deletes, inserts := groupByRelation(db.Schema, w.Deleted, nil), w.seedRelations(db)
	ec := d.prep.AcquireContext()
	defer d.prep.ReleaseContext(ec)
	hit := false
	stop := func(*datalog.Assignment) bool {
		hit = true
		return false
	}
	for _, pr := range d.prep.Rules {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		rule := pr.Rule
		src := func(bi int) datalog.AtomSource {
			rel := rule.Body[bi].Rel
			if del := deletes[rel]; del != nil {
				return datalog.AtomSource{db.Relation(rel), del}
			}
			return datalog.AtomSource{db.Relation(rel)}
		}
		for _, seeds := range [...]map[string]*engine.Relation{deletes, inserts} {
			if err := pr.EvalChangeSeeded(seeds, false, src, ec, stop); err != nil || hit {
				return hit, err
			}
		}
	}
	return false, nil
}

// groupByRelation materializes per-relation tuple lists as scratch
// relations, keeping the tuples keep accepts (every tuple for a nil keep)
// and dropping empty groups.
func groupByRelation(schema *engine.Schema, lists map[string][]*engine.Tuple, keep func(*engine.Tuple) bool) map[string]*engine.Relation {
	out := make(map[string]*engine.Relation, len(lists))
	for rel, tuples := range lists {
		rs := schema.Relation(rel)
		if rs == nil {
			continue
		}
		var r *engine.Relation
		for _, t := range tuples {
			if keep != nil && !keep(t) {
				continue
			}
			if r == nil {
				r = engine.NewScratchRelation(rel, rs.Arity())
			}
			r.Insert(t)
		}
		if r != nil {
			out[rel] = r
		}
	}
	return out
}

// operationalSrc is datalog.SourcesFor(db, rule, DeltaFromDelta) in the
// per-position form EvalChangeSeeded takes, resolved only for the
// positions a seeded pass actually reads.
func operationalSrc(db *engine.Database, rule *datalog.Rule) func(bi int) datalog.AtomSource {
	return func(bi int) datalog.AtomSource {
		return datalog.SourceFor(db, &rule.Body[bi], datalog.DeltaFromDelta)
	}
}
