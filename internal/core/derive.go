package core

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/provenance"
)

// deriveConfig controls the shared seminaive derivation loop. With no mode
// set it is end-semantics derivation (Def. 3.10): bases stay at D⁰ and only
// the delta side grows.
type deriveConfig struct {
	// naive disables the seminaive frontier optimization: every round
	// re-evaluates every rule against the full delta contents. Used only
	// by the evaluation-strategy ablation benchmark; results are identical.
	naive bool
	// closure, when non-nil, switches the loop into possible-deletion
	// closure mode (Algorithm 1; the lemma is on Derivation.buildCNF). It
	// changes three things: every assignment adds its clause to this
	// formula, and every tuple the assignment binds at a non-delta atom —
	// the head and its base co-atoms, i.e. the clause's positive literals —
	// joins the next frontier (base atoms keep ranging over the live base).
	// At fixpoint the formula is F_V, and the end fixpoint's layered graph
	// is read off it (provenance.Formula.EndGraph).
	closure *provenance.Formula
	// maxClauses bounds closure's size; exceeding it is errTooManyClauses.
	maxClauses int
	// ctx carries per-request cancellation into the round loop: it is
	// checked at the top of every round, before every rule evaluation, and
	// every evalCheckEvery emitted assignments. Nil means never canceled.
	ctx context.Context
}

// derive runs seminaive rounds of the prepared delta program over work,
// which is only read — the derived deltas live in the pooled scratch
// relations. It returns the derived delta tuples in derivation order and
// the number of rounds until fixpoint. Derivation is its only caller.
//
// Seminaive justification: bases never shrink, so any assignment's
// validity persists and each assignment is enumerated exactly in the round
// following its newest delta dependency. Closure mode is the same argument:
// an assignment whose delta atoms all lie in the closure is enumerated
// exactly once, in the round after the last of them joined.
func derive(work *engine.Database, prep *datalog.Prepared, cfg deriveConfig) ([]*engine.Tuple, int, error) {
	schema := work.Schema
	scr := prep.AcquireScratch()
	old, frontier := scr.Old, scr.Frontier
	derivedSet, newSet := scr.Derived, scr.Fresh
	newHeads := scr.Heads[:0]
	defer func() {
		// Hand the grown buffer back so the pool keeps its capacity.
		scr.Heads = newHeads
		prep.ReleaseScratch(scr)
	}()
	for _, rs := range schema.Relations {
		// Pre-existing deltas seed the frontier (user-initiated deletions,
		// §3.6).
		dst := frontier[rs.Name]
		work.Delta(rs.Name).ScanRuns(func(run []*engine.Tuple) bool {
			for _, t := range run {
				dst.Insert(t)
			}
			return true
		})
	}

	// Every productive round derives at least one new tuple, so the tuple
	// count is a natural bound; this guards against runaway recursion.
	maxRounds := work.TotalTuples() + 2

	var derivedAll []*engine.Tuple
	rounds := 0

	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)

	for round := 1; ; round++ {
		if err := ctxErr(cfg.ctx); err != nil {
			return nil, rounds, err
		}
		if round > maxRounds {
			return nil, rounds, fmt.Errorf("core: derivation did not converge after %d rounds", maxRounds)
		}
		newHeads = newHeads[:0]
		clear(newSet)

		// admit queues t for the next frontier unless it is already a delta.
		admit := func(t *engine.Tuple) {
			id := t.TID
			if !derivedSet[id] && !newSet[id] && !work.Delta(t.Rel).ContainsID(id) {
				newSet[id] = true
				newHeads = append(newHeads, t)
			}
		}

		// process applies the per-assignment logic, invoked in (rule, pass,
		// enumeration) order; it reports whether enumeration may continue.
		process := func(asn *datalog.Assignment) bool {
			head := asn.Head()
			if cfg.closure != nil {
				cfg.closure.Add(head.TID, asn)
				for i, t := range asn.Tuples {
					if !asn.Rule.Body[i].Delta {
						admit(t)
					}
				}
				return cfg.closure.Len() <= cfg.maxClauses
			}
			admit(head)
			return true
		}

		emitted := 0
		emit := func(asn *datalog.Assignment) bool {
			if !process(asn) {
				return false
			}
			emitted++
			return emitted%evalCheckEvery != 0 || ctxErr(cfg.ctx) == nil
		}
		for ri, pr := range prep.Rules {
			if pr.NumDeltaBody() == 0 && round > 1 && !cfg.naive {
				continue // condition rules fire only against D⁰
			}
			if err := ctxErr(cfg.ctx); err != nil {
				return nil, rounds, err
			}
			emitted = 0
			if err := evalRuleRound(work, prep, ri, cfg.naive, old, frontier, ctx, emit); err != nil {
				return nil, rounds, err
			}
			if cfg.closure != nil && cfg.closure.Len() > cfg.maxClauses {
				return nil, rounds, errTooManyClauses(cfg.maxClauses)
			}
			if err := ctxErr(cfg.ctx); err != nil {
				return nil, rounds, err
			}
		}

		if len(newHeads) == 0 {
			rounds = round - 1
			break
		}
		rounds = round

		// Rotate frontier into old (recycling the frontier relations in
		// place), install new heads as the next frontier, and record the
		// deletions.
		for _, rs := range schema.Relations {
			fr := frontier[rs.Name]
			if fr.Len() == 0 {
				continue
			}
			fr.ScanRuns(func(run []*engine.Tuple) bool {
				for _, t := range run {
					old[rs.Name].Insert(t)
				}
				return true
			})
			fr.Reset()
		}
		for _, head := range newHeads {
			derivedSet[head.TID] = true
			derivedAll = append(derivedAll, head)
			frontier[head.Rel].Insert(head)
		}
	}
	return derivedAll, rounds, nil
}

// evalRuleRound evaluates one rule's passes for one round, emitting every
// assignment in deterministic enumeration order.
func evalRuleRound(work *engine.Database, prep *datalog.Prepared, ri int, naive bool,
	old, frontier map[string]*engine.Relation, ctx *datalog.ExecContext,
	emit func(*datalog.Assignment) bool) error {

	pr := prep.Rules[ri]
	rule := pr.Rule
	if naive || pr.NumDeltaBody() == 0 {
		return pr.EvalNaive(buildNaiveSources(work, rule, old, frontier), ctx, emit)
	}
	for pass := 0; pass < pr.NumDeltaBody(); pass++ {
		if err := pr.EvalPass(pass, buildPassSources(work, rule, old, frontier, pass), ctx, emit); err != nil {
			return err
		}
	}
	return nil
}

// buildNaiveSources assembles per-atom sources for naive evaluation: every
// delta atom reads the full delta contents (old ∪ frontier).
func buildNaiveSources(work *engine.Database, rule *datalog.Rule,
	old, frontier map[string]*engine.Relation) []datalog.AtomSource {

	sources := make([]datalog.AtomSource, len(rule.Body))
	for i, a := range rule.Body {
		if !a.Delta {
			sources[i] = datalog.AtomSource{work.Relation(a.Rel)}
		} else {
			sources[i] = datalog.AtomSource{old[a.Rel], frontier[a.Rel]}
		}
	}
	return sources
}

// buildPassSources assembles per-atom sources for one seminaive pass: the
// pass-th delta atom reads the frontier, earlier delta atoms read old
// deltas, later ones read old ∪ frontier; base atoms read live base
// relations.
func buildPassSources(work *engine.Database, rule *datalog.Rule,
	old, frontier map[string]*engine.Relation, pass int) []datalog.AtomSource {

	sources := make([]datalog.AtomSource, len(rule.Body))
	deltaIdx := 0
	for i, a := range rule.Body {
		if !a.Delta {
			sources[i] = datalog.AtomSource{work.Relation(a.Rel)}
			continue
		}
		switch {
		case deltaIdx < pass:
			sources[i] = datalog.AtomSource{old[a.Rel]}
		case deltaIdx == pass:
			sources[i] = datalog.AtomSource{frontier[a.Rel]}
		default:
			sources[i] = datalog.AtomSource{old[a.Rel], frontier[a.Rel]}
		}
		deltaIdx++
	}
	return sources
}
