package core

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Options bundles per-semantics knobs for the Run dispatcher.
type Options struct {
	// Independent configures Algorithm 1 when sem == SemIndependent.
	Independent IndependentOptions
	// Step configures Algorithm 2 when sem == SemStep.
	Step StepGreedyOptions
	// Prepared supplies a pre-compiled execution plan (datalog.Prepare) so
	// repeated runs amortize validation and join planning. It must have
	// been prepared from the same program passed to RunWith. Nil means
	// prepare on the fly.
	Prepared *datalog.Prepared
	// Ctx, when non-nil, carries per-request cancellation and deadlines
	// into the policies: the derivation loop checks it every round and
	// every evalCheckEvery emitted assignments, Algorithm 1 additionally
	// between its phases and inside the SAT search, and Algorithm 2
	// between its phases. A canceled run returns ctx.Err() promptly
	// instead of a partial result.
	Ctx context.Context
	// Warm, when non-nil, carries incremental-update hints from a
	// versioned serving layer (see WarmStart): a previous version's result
	// plus the base changes since. Every semantics replays the previous
	// result without deriving anything whenever a seeded change probe
	// proves the changes interact with no rule; otherwise end semantics
	// continues the previous fixpoint after insert-only updates, and
	// everything else runs in full. Hints never change results —
	// inapplicable ones simply fall back to a full run.
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
// stabilizing set and the repaired database. The input database is forked,
// never mutated.
func Run(db *engine.Database, p *datalog.Program, sem Semantics) (*Result, *engine.Database, error) {
	return RunWith(db, p, sem, Options{})
}

// RunWith is Run with explicit options: one policy over a Derivation of its
// own. Callers that want several semantics of one database should share a
// Derivation (RunAll, or NewDerivation and Derivation.Run).
func RunWith(db *engine.Database, p *datalog.Program, sem Semantics, opts Options) (*Result, *engine.Database, error) {
	d, err := derivationFor(db, p, opts.Prepared)
	if err != nil {
		return nil, nil, err
	}
	return d.runMaterialized(sem, opts)
}

// RunAll executes all four semantics as policies over one Derivation and
// returns results keyed by semantics, in AllSemantics order. opts is read
// as by RunWith.
func RunAll(db *engine.Database, p *datalog.Program, opts Options) (map[Semantics]*Result, error) {
	d, err := derivationFor(db, p, opts.Prepared)
	if err != nil {
		return nil, err
	}
	out := make(map[Semantics]*Result, len(AllSemantics))
	for _, sem := range AllSemantics {
		res, err := d.Run(sem, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sem, err)
		}
		out[sem] = res
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
