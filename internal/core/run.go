package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Options bundles per-semantics knobs for the Run dispatcher.
type Options struct {
	// Independent configures Algorithm 1 when sem == SemIndependent.
	Independent IndependentOptions
	// Prepared supplies a pre-compiled execution plan (datalog.Prepare) so
	// repeated runs amortize validation and join planning. It must have
	// been prepared from the same program passed to RunWith. Nil means
	// prepare on the fly.
	Prepared *datalog.Prepared
	// Ctx, when non-nil, carries per-request cancellation and deadlines
	// into the executors: the derivation loop checks it every round and
	// every evalCheckEvery emitted assignments, Algorithm 1 additionally
	// between its phases and inside the SAT search, and Algorithm 2
	// between its phases. A canceled run returns ctx.Err() promptly
	// instead of a partial result.
	Ctx context.Context
	// Warm, when non-nil, carries incremental-update hints from a
	// versioned serving layer (see WarmStart): a previous version's result
	// plus the base changes since. Updates outside the prepared read-set
	// replay the previous result without deriving anything; end semantics
	// continues the previous fixpoint incrementally — directly after
	// insert-only updates, via DRed-style over-delete/re-derive after
	// updates containing deletions; the other semantics replay the
	// previous result whenever a seeded change probe proves the batch
	// interacts with no rule. Hints never change results — inapplicable
	// ones simply fall back to a full run.
	Warm *WarmStart
}

// evalCheckEvery is how many emitted assignments pass between cancellation
// checks inside a single rule evaluation, bounding the latency of a cancel
// during one huge join at a negligible per-assignment cost.
const evalCheckEvery = 4096

// CtxErr reports the context's error, treating nil as "never canceled".
// Exported for sibling internal packages (sideeffect, server) that poll
// the same way; callers outside the module use context directly.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// ctxErr is the package-internal alias used on hot paths.
func ctxErr(ctx context.Context) error { return CtxErr(ctx) }

// Run executes the chosen semantics with default options and returns the
// stabilizing set and the repaired database. The input database is cloned,
// never mutated.
func Run(db *engine.Database, p *datalog.Program, sem Semantics) (*Result, *engine.Database, error) {
	return RunWith(db, p, sem, Options{})
}

// RunWith is Run with explicit options.
func RunWith(db *engine.Database, p *datalog.Program, sem Semantics, opts Options) (*Result, *engine.Database, error) {
	prep := opts.Prepared
	if prep == nil {
		var err error
		prep, err = datalog.Prepare(p, db.Schema)
		if err != nil {
			return nil, nil, err
		}
	} else if p != nil && prep.Program != p {
		return nil, nil, fmt.Errorf("core: prepared plan was built from a different program")
	} else if err := prep.CompatibleWith(db.Schema); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, nil, err
	}
	if res, work, ok := runWarmShortcut(db, prep, sem, opts.Warm); ok {
		return res, work, nil
	}
	switch sem {
	case SemEnd:
		// Insert-only batches continue the previous fixpoint directly;
		// batches with deletions run the DRed over-delete/re-derive
		// continuation. Either way the warm path costs O(changes).
		if res, work, ok, err := runEndWarm(opts.Ctx, db, prep, opts.Warm); ok || err != nil {
			return res, work, err
		}
		if res, work, ok, err := runEndWarmDelete(opts.Ctx, db, prep, opts.Warm); ok || err != nil {
			return res, work, err
		}
		return runEnd(opts.Ctx, db, prep)
	case SemStage:
		if res, work, ok, err := runChangeProbe(opts.Ctx, db, prep, sem, opts.Warm); ok || err != nil {
			return res, work, err
		}
		return runStage(opts.Ctx, db, prep)
	case SemStep:
		if res, work, ok, err := runChangeProbe(opts.Ctx, db, prep, sem, opts.Warm); ok || err != nil {
			return res, work, err
		}
		return runStepGreedy(opts.Ctx, db, prep, StepGreedyOptions{})
	case SemIndependent:
		if res, work, ok, err := runChangeProbe(opts.Ctx, db, prep, sem, opts.Warm); ok || err != nil {
			return res, work, err
		}
		return runIndependent(opts.Ctx, db, prep, opts.Independent)
	default:
		return nil, nil, fmt.Errorf("core: unknown semantics %v", sem)
	}
}

// RunAll executes all four semantics and returns results keyed by
// semantics, in AllSemantics order.
func RunAll(db *engine.Database, p *datalog.Program) (map[Semantics]*Result, error) {
	out := make(map[Semantics]*Result, len(AllSemantics))
	for _, sem := range AllSemantics {
		res, _, err := Run(db, p, sem)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sem, err)
		}
		out[sem] = res
	}
	return out, nil
}

// RunAllParallel is RunAll with one goroutine per semantics. Every
// executor works on a private copy-on-write fork of one frozen base and
// the executors share no mutable state, so results are identical to the
// sequential RunAll; wall-clock time approaches the slowest single
// semantics (usually independent). The forks share the snapshot's warm
// indexes — the first executor to probe a column builds it once and every
// other fork reads it — so, unlike the old deep-clone fan-out, parallel
// execution no longer repeats index construction per goroutine.
func RunAllParallel(db *engine.Database, p *datalog.Program) (map[Semantics]*Result, error) {
	// Freeze once up front (Freeze mutates the database's representation,
	// so it must not race with the executors), then hand each goroutine a
	// private O(relations) fork of the shared frozen base.
	snap := db.Freeze()
	forks := make([]*engine.Database, len(AllSemantics))
	for i := range AllSemantics {
		forks[i] = snap.Fork()
	}
	results := make([]*Result, len(AllSemantics))
	errs := make([]error, len(AllSemantics))
	var wg sync.WaitGroup
	for i, sem := range AllSemantics {
		wg.Add(1)
		go func(i int, sem Semantics) {
			defer wg.Done()
			results[i], _, errs[i] = Run(forks[i], p, sem)
		}(i, sem)
	}
	wg.Wait()
	out := make(map[Semantics]*Result, len(AllSemantics))
	for i, sem := range AllSemantics {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", sem, errs[i])
		}
		out[sem] = results[i]
	}
	return out, nil
}

// Containment summarizes the relationships the paper reports in Table 3
// for a set of results: whether step equals stage, and whether the
// independent result is contained in stage and in step.
type Containment struct {
	StepEqStage bool
	IndInStage  bool
	IndInStep   bool
	// Always-true relationships (Prop. 3.20), reported for verification:
	StageInEnd bool
	StepInEnd  bool
	IndLeStep  bool // |Ind| ≤ |Step|
	IndLeStage bool // |Ind| ≤ |Stage|
}

// CheckContainment computes the Table 3 flags from a RunAll result map.
func CheckContainment(rs map[Semantics]*Result) Containment {
	ind, step, stage, end := rs[SemIndependent], rs[SemStep], rs[SemStage], rs[SemEnd]
	return Containment{
		StepEqStage: step.SameSet(stage),
		IndInStage:  ind.SubsetOf(stage),
		IndInStep:   ind.SubsetOf(step),
		StageInEnd:  stage.SubsetOf(end),
		StepInEnd:   step.SubsetOf(end),
		IndLeStep:   ind.Size() <= step.Size(),
		IndLeStage:  ind.Size() <= stage.Size(),
	}
}
