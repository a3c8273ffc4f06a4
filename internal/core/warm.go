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
// changed tuple at some atom. One warm rule turns that into skipped work:
// probe replay (every semantics, changeProbe). Seed every atom with the
// changed tuples over sources covering both versions; zero hits mean both
// versions have the same assignments in the same order, so the previous
// result is replayed without deriving anything. A batch confined to
// relations no rule reads seeds nothing and always replays. Any hit
// derives cold, so a version's answer — Rounds included — is the one a
// fresh registration of its rows computes, whatever its history.
//
// Replay is exact: the update-stream equivalence suite (internal/gen)
// asserts incremental results are identical to from-scratch recomputation
// at every version, for all four semantics.

// WarmStart carries incremental-update hints into RunWith (Options.Warm).
// The caller (normally internal/server) is responsible for the hints'
// truth: PrevResult must describe an earlier version of the same database
// lineage, and Inserted and Deleted must cover every base change between
// that version and the database being run. Hints that do not apply to the
// requested semantics are ignored and the run falls back to a full
// computation, so a WarmStart never changes results — only how much work
// reproducing them takes.
type WarmStart struct {
	// PrevResult is the result computed for the same semantics at the
	// earlier version, the answer probe replay reproduces.
	PrevResult *Result
	// Inserted holds the tuples the updates inserted, per relation (the
	// interned objects from engine.ApplyInfo.InsertedTuples).
	Inserted map[string][]*engine.Tuple
	// Deleted holds the tuples the updates deleted, per relation (the
	// objects from engine.ApplyInfo.DeletedTuples).
	Deleted map[string][]*engine.Tuple
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
// seeds no atom and replays. Any probe hit falls back to the full policy;
// the probe's cost is bounded by the update batch and its join
// neighborhood, not the database.
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
// version). Such an insert is no longer live and seeds nothing (a later
// insert of the same content is a fresh tuple object, so liveness of the
// recorded object is exact); its delete stays in the delete view, which
// only over-approximates — a spurious hit costs a fallback, never
// correctness. With no seeds at all, every change was an insert-then-delete
// no-op inside the hint range, and both endpoint versions are identical.
func (d *Derivation) changeHits(ctx context.Context, w *WarmStart) (bool, error) {
	db := d.db
	deletes, inserts := groupByRelation(db.Schema, w.Deleted, nil), groupByRelation(db.Schema, w.Inserted, d.live)
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
			if err := pr.EvalChangeSeeded(seeds, src, ec, stop); err != nil || hit {
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
