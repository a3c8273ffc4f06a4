package core

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Options bundles the knobs every operation of this package reads: RunWith,
// RunAll, Derivation.Run, CheckStable and EnumerateRepairsWith. Each one
// documents which fields it uses and ignores the rest.
type Options struct {
	// Independent configures Algorithm 1 when sem == SemIndependent.
	Independent IndependentOptions
	// Step configures Algorithm 2 when sem == SemStep.
	Step StepGreedyOptions
	// Prepared supplies a pre-compiled execution plan (datalog.Prepare) so
	// repeated runs amortize validation and join planning. It must have
	// been prepared from the same program passed alongside it (a nil
	// program trusts it). Nil means prepare on the fly.
	//
	// bench/ (its own Go module) sets this field, so its name and type
	// change only in a benchmark change that moves bench/trace.go's probes
	// first.
	Prepared *datalog.Prepared
	// Ctx, when non-nil, carries per-request cancellation and deadlines
	// into the operation; it is the one way a context enters this package.
	// The derivation loop checks it every round and every evalCheckEvery
	// emitted assignments, Algorithm 1 additionally between its phases and
	// inside the SAT search, Algorithm 2 between its phases, and
	// CheckStable before every rule probe. A canceled operation returns
	// ctx.Err() promptly instead of a partial result.
	Ctx context.Context
	// Warm, when non-nil, carries incremental-update hints from a
	// versioned serving layer (see WarmStart): a previous version's result
	// plus the base changes since. Every semantics replays the previous
	// result without deriving anything whenever a seeded change probe
	// proves the changes interact with no rule (probe replay, the one warm
	// rule); otherwise it runs in full. Hints never change results —
	// inapplicable ones simply fall back to a full run. CheckStable
	// ignores them.
	Warm *WarmStart
}

// evalCheckEvery is how many emitted assignments pass between cancellation
// checks inside a single rule evaluation, bounding the latency of a cancel
// during one huge join at a negligible per-assignment cost.
const evalCheckEvery = 4096

// ctxErr reports the context's error, treating nil as "never canceled".
func ctxErr(ctx context.Context) error {
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

// RunWith executes the chosen semantics as one policy over a Derivation of
// its own and returns the stabilizing set and the repaired database; the
// input database is forked, never mutated. Options{} is the default run.
// Callers that want several semantics of one database should share a
// Derivation (RunAll, or NewDerivation and Derivation.Run).
//
// bench/ (its own Go module) calls RunWith with Options.Prepared, so its
// shape changes only in a benchmark change that moves bench/trace.go's
// probes first.
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
