package core

import (
	"context"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// previousEndFixpoint turns end-semantics hints into the part of the
// previous version's fixpoint that still holds at db, for
// Derivation.endFixpoint to continue from instead of deriving cold.
// Soundness after insert-only batches: end-semantics derivation is monotone
// in the base (bodies are positive and bases never shrink during the run),
// so with no deletions since the previous version every previously derived
// delta is still derivable — the old fixpoint is a subset of the new one and
// is continued as it stands. Batches with deletions go through the DRed
// maintenance below. Either way the continuation's unique-fixpoint result is
// identical to a from-scratch run.
//
// ok is false when there are no usable hints, or a hint references a tuple
// that is not live — a stale hint; the caller then derives cold.
func previousEndFixpoint(ctx context.Context, db *engine.Database, prep *datalog.Prepared, w *WarmStart) ([]*engine.Tuple, bool, error) {
	if w == nil || w.PrevResult == nil || w.PrevResult.Semantics != SemEnd {
		return nil, false, nil
	}
	if len(w.Deleted) > 0 {
		return maintainEndFixpoint(ctx, db, prep, w)
	}
	for _, t := range w.PrevResult.Deleted {
		if !db.Relation(t.Rel).ContainsTuple(t) {
			return nil, false, nil // stale hint: recompute from scratch
		}
	}
	return w.PrevResult.Deleted, true, nil
}

// Incremental delete maintenance for end semantics (DRed-style).
//
// After insert-only batches the previous version's fixpoint is continued
// as it stands (previousEndFixpoint); this file extends the continuation to
// batches containing deletions, so every update batch costs O(changes)
// instead of falling off the warm path into a full seminaive recompute.
// The algorithm is the classic over-delete / re-derive pipeline (DRed),
// adapted to delta programs where every derived head is itself a live base
// tuple (the mandatory self atom, Def. 3.1):
//
//  1. Over-delete. Mark dead the previously derived tuples that were
//     themselves deleted by the batch (their self atom can no longer
//     bind), then close downward: any derivation of a previous-fixpoint
//     tuple that bound a batch-deleted base tuple or an already-dead
//     delta tuple kills its head too. The sweep re-finds those
//     derivations by seeded evaluation — deleted tuples drive the join
//     at each base atom, dead tuples at each delta atom — against
//     sources that over-approximate the previous version (live ∪ deleted
//     at base atoms, the full previous fixpoint at delta atoms), so no
//     invalidated derivation is missed. Over-approximation only ever
//     kills more (phase 2 recovers), never less.
//
//  2. Re-derive. A dead tuple that is still a live base row may have an
//     alternative derivation that bound nothing deleted or dead — pure
//     counting is unsound here precisely because recursive programs can
//     hold cyclic support alive. Recover exactly the well-founded
//     survivors by a least-fixpoint closure from below: seed the
//     candidates at every base atom over their relations and ask whether
//     a derivation with a candidate head exists over the live base and
//     the surviving fixpoint (a seed at a non-self atom binds a live base
//     row, so every emitted assignment is a genuine derivation, and
//     non-candidate heads are ignored); every revival joins the delta
//     view and is propagated through the seminaive pass plans until no
//     candidate revives. Starting from the surviving fixpoint
//     and only ever adding derivable tuples keeps cyclic, mutually
//     supporting dead tuples dead — their revival would have to assume
//     itself.
//
//  3. Continue (Derivation.endFixpoint). The surviving-plus-revived
//     fixpoint is installed as already-processed deltas and derivation
//     continues exactly like the insert-only warm path: round 1 probes
//     only the insert-seeded passes (any genuinely new assignment binds
//     an inserted tuple — bodies are positive and phases 1–2 already
//     computed everything derivable without the inserts), later rounds
//     run the normal seminaive frontier.
//
// Exactness. Let F be the previous fixpoint over D_old and F_new the
// fixpoint over D_new. Phase 1 kills every F-tuple with any invalidated
// derivation, so each survivor has a derivation whose bindings all
// survive into D_new — by induction over derivation rounds the survivor
// set is ⊆ F_new. Phase 2 is a least fixpoint over D_new restricted to F
// members, so after it, the installed set F₁ equals every F_new tuple
// derivable without binding an inserted tuple anywhere in its
// derivation chain (a chain of non-inserted bindings grounds entirely in
// D_old content and F members). The remainder of F_new, each of whose
// derivation chains binds an inserted tuple somewhere, is exactly what
// phase 3's insert-seeded round and its cascade enumerate. The
// update-stream equivalence suite and the warm-delete differential
// suites assert byte-identity against from-scratch recomputation.
//
// maintainEndFixpoint runs phases 1–2 and returns F₁. ok is false when the
// hints do not describe this lineage; the caller then derives cold.
func maintainEndFixpoint(ctx context.Context, db *engine.Database, prep *datalog.Prepared, w *WarmStart) ([]*engine.Tuple, bool, error) {
	schema := db.Schema
	prev := w.PrevResult

	// Interned identity of the batch-deleted tuples.
	deleted := make(map[engine.TupleID]bool)
	for _, tuples := range w.Deleted {
		for _, t := range tuples {
			deleted[t.TID] = true
		}
	}

	// Verify the hints against this version while collecting the forced
	// deaths: every previous-fixpoint tuple must either still be live or
	// be one of the batch-deleted tuples (then it is dead outright — no
	// self atom can bind it anymore). Anything else means the hints do
	// not describe this lineage; fall back to a full run.
	dead := make(map[engine.TupleID]bool)
	var frontier []*engine.Tuple
	for _, t := range prev.Deleted {
		if deleted[t.TID] {
			dead[t.TID] = true
			frontier = append(frontier, t)
			continue
		}
		if !db.Relation(t.Rel).ContainsTuple(t) {
			return nil, false, nil // stale hint: recompute from scratch
		}
	}

	ec := prep.AcquireContext()
	defer prep.ReleaseContext(ec)

	// Phase 1: over-delete the downward closure.
	fAll := groupByRelation(schema, byRelation(prev.Deleted))
	delView := groupByRelation(schema, w.Deleted)
	overOld := func(rule *datalog.Rule) func(bi int) datalog.AtomSource {
		return func(bi int) datalog.AtomSource {
			rel := rule.Body[bi].Rel
			if rule.Body[bi].Delta {
				if f := fAll[rel]; f != nil {
					return datalog.AtomSource{f}
				}
				return datalog.AtomSource{}
			}
			if d := delView[rel]; d != nil {
				return datalog.AtomSource{db.Relation(rel), d}
			}
			return datalog.AtomSource{db.Relation(rel)}
		}
	}
	markDead := func(asn *datalog.Assignment) bool {
		head := asn.Head()
		if prev.ContainsID(head.TID) && !dead[head.TID] {
			dead[head.TID] = true
			frontier = append(frontier, head)
		}
		return true
	}
	for _, pr := range prep.Rules {
		if err := ctxErr(ctx); err != nil {
			return nil, false, err
		}
		if err := pr.EvalChangeSeeded(delView, true, overOld(pr.Rule), ec, markDead); err != nil {
			return nil, false, err
		}
	}
	for len(frontier) > 0 {
		batch := frontier
		frontier = nil
		seeds := groupByRelation(schema, byRelation(batch))
		for _, pr := range prep.Rules {
			if pr.NumDeltaBody() == 0 {
				continue // no delta atom can bind a dead tuple
			}
			if err := ctxErr(ctx); err != nil {
				return nil, false, err
			}
			rule := pr.Rule
			for p := 0; p < pr.NumDeltaBody(); p++ {
				srcs := seededPassSources(db, rule, p, seeds, fAll, delView)
				if err := pr.EvalPass(p, srcs, ec, markDead); err != nil {
					return nil, false, err
				}
			}
		}
	}

	// Phase 2: re-derive over-deleted tuples with surviving alternative
	// derivations. Candidates are the dead tuples still live as base rows;
	// the delta view starts at the surviving fixpoint and grows only by
	// revivals, so the closure is a least fixpoint from below.
	fSurv := make(map[string]*engine.Relation, len(fAll))
	candSet := make(map[engine.TupleID]bool, len(dead))
	var candLists map[string][]*engine.Tuple
	for _, t := range prev.Deleted {
		if !dead[t.TID] {
			surv := fSurv[t.Rel]
			if surv == nil {
				surv = engine.NewScratchRelation(t.Rel, schema.Relation(t.Rel).Arity())
				fSurv[t.Rel] = surv
			}
			surv.Insert(t)
			continue
		}
		if deleted[t.TID] || !db.Relation(t.Rel).ContainsTuple(t) {
			continue // gone from the base: stays dead
		}
		candSet[t.TID] = true
		if candLists == nil {
			candLists = make(map[string][]*engine.Tuple)
		}
		candLists[t.Rel] = append(candLists[t.Rel], t)
	}
	liveSrc := func(rule *datalog.Rule) func(bi int) datalog.AtomSource {
		return func(bi int) datalog.AtomSource {
			rel := rule.Body[bi].Rel
			if rule.Body[bi].Delta {
				if f := fSurv[rel]; f != nil {
					return datalog.AtomSource{f}
				}
				return datalog.AtomSource{}
			}
			return datalog.AtomSource{db.Relation(rel)}
		}
	}
	var pending []*engine.Tuple
	revive := func(asn *datalog.Assignment) bool {
		head := asn.Head()
		if candSet[head.TID] {
			delete(candSet, head.TID)
			pending = append(pending, head)
		}
		return true
	}
	if len(candSet) > 0 {
		candSeeds := groupByRelation(schema, candLists)
		for _, pr := range prep.Rules {
			if candSeeds[pr.Rule.Head.Rel] == nil {
				continue // no candidate among this rule's heads
			}
			if err := ctxErr(ctx); err != nil {
				return nil, false, err
			}
			if err := pr.EvalChangeSeeded(candSeeds, true, liveSrc(pr.Rule), ec, revive); err != nil {
				return nil, false, err
			}
		}
	}
	for len(pending) > 0 {
		batch := pending
		pending = nil
		// Install the revivals before propagating: the pass's non-frontier
		// delta atoms then read survivors ∪ all revivals so far, and the
		// frontier pass catches every derivation binding a new revival.
		for _, t := range batch {
			dead[t.TID] = false
			surv := fSurv[t.Rel]
			if surv == nil {
				surv = engine.NewScratchRelation(t.Rel, schema.Relation(t.Rel).Arity())
				fSurv[t.Rel] = surv
			}
			surv.Insert(t)
		}
		if len(candSet) == 0 {
			break // nothing left to revive
		}
		seeds := groupByRelation(schema, byRelation(batch))
		for _, pr := range prep.Rules {
			if pr.NumDeltaBody() == 0 {
				continue
			}
			if err := ctxErr(ctx); err != nil {
				return nil, false, err
			}
			rule := pr.Rule
			for p := 0; p < pr.NumDeltaBody(); p++ {
				srcs := seededPassSources(db, rule, p, seeds, fSurv, nil)
				if err := pr.EvalPass(p, srcs, ec, revive); err != nil {
					return nil, false, err
				}
			}
		}
	}

	prevLive := make([]*engine.Tuple, 0, len(prev.Deleted))
	for _, t := range prev.Deleted {
		if !dead[t.TID] {
			prevLive = append(prevLive, t)
		}
	}
	return prevLive, true, nil
}

// byRelation groups tuples by relation name, preserving order.
func byRelation(tuples []*engine.Tuple) map[string][]*engine.Tuple {
	out := make(map[string][]*engine.Tuple)
	for _, t := range tuples {
		out[t.Rel] = append(out[t.Rel], t)
	}
	return out
}

// seededPassSources builds the per-atom sources for one seminaive pass of
// the dead/revival propagation sweeps: the pass-th delta atom reads the
// frontier seed, other delta atoms read the full delta view, and base
// atoms read the live base — extended by the deleted-tuple view when the
// sweep must over-approximate the previous version's bases (extra may be
// nil). Atoms whose relation has no tuples in a view read an empty
// source.
func seededPassSources(work *engine.Database, rule *datalog.Rule, pass int,
	seeds, deltaView, extra map[string]*engine.Relation) []datalog.AtomSource {

	sources := make([]datalog.AtomSource, len(rule.Body))
	di := 0
	for i, a := range rule.Body {
		if !a.Delta {
			if extra != nil && extra[a.Rel] != nil {
				sources[i] = datalog.AtomSource{work.Relation(a.Rel), extra[a.Rel]}
			} else {
				sources[i] = datalog.AtomSource{work.Relation(a.Rel)}
			}
			continue
		}
		switch {
		case di == pass:
			if s := seeds[a.Rel]; s != nil {
				sources[i] = datalog.AtomSource{s}
			} else {
				sources[i] = datalog.AtomSource{}
			}
		default:
			if f := deltaView[a.Rel]; f != nil {
				sources[i] = datalog.AtomSource{f}
			} else {
				sources[i] = datalog.AtomSource{}
			}
		}
		di++
	}
	return sources
}
