package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Derivation is everything one request derives about one database under one
// prepared program. §3 of the paper defines the four semantics as four
// choices over the same delta-rule assignments, and the code reads that way:
// a Derivation is the only caller of derive and produces the two artefacts
// the semantics choose from —
//
//   - Algorithm 1's closure formula F_V, with the layered provenance graph
//     of §5.2 read off it instead of derived again (closureArtefact);
//   - the end fixpoint (Def. 3.10): the graph's heads once the formula
//     exists, else derived cold;
//
// — and every semantics is a short policy over them: end deletes all of the
// end fixpoint, stage the stage fixpoint (Def. 3.7) a layered pass over the
// formula reads off, step what Algorithm 2's traversal of the graph
// selects, independent a Min-Ones model of the formula's CNF (tie order
// from the graph). finish turns whichever set a policy chose into a
// Result; Materialize builds the repaired instance only for callers that
// read it.
//
// The provenance and the end fixpoint are memoised, so every policy run on
// one Derivation shares them: whichever policy or Explainer runs first
// builds the provenance, and the others reuse it. A serving layer keeps one
// Derivation per snapshot version and runs every request at that version
// on it, so the sharing spans requests, not only the policies of one
// repair-all. Two rules keep the accounting of shared work honest:
//
//   - Timing is additive. A shared artefact's time is charged once, to the
//     Result of the policy that first demanded it; a policy that reuses it
//     reports zero for that phase. Summing Result.Timing over the semantics
//     run on one Derivation therefore never exceeds the time spent in it.
//   - Result.Rounds of end is a cold run's round count whichever way the
//     fixpoint was produced: derived, or read off the provenance as the
//     graph's layer count.
//
// A Derivation is safe for concurrent use and never mutates its database.
// Each artefact — the closure with its occurrence index, the end graph and
// the end fixpoint — is built single-flight under the derivation's lock: a
// concurrent caller that needs one waits for the build (honouring its own
// context while it waits) and then reuses it. A failed build, canceled or
// over the clause cap, is not memoised, so the next caller builds again
// under its own context. The policies themselves — the Min-Ones search,
// step's traversal, stage's pass — run outside the lock and only read the
// artefacts.
type Derivation struct {
	db   *engine.Database
	prep *datalog.Prepared
	// naive selects the reference evaluation strategy (RunEndNaive).
	naive bool

	// build is the derivation's lock, a one-slot semaphore so that a
	// caller waiting for a build can give up on its context. It guards prov,
	// prov.graph and end.
	build chan struct{}
	prov  *closure
	end   *fixpoint
}

// fixpoint is a derived deletion set in derivation order and the rounds
// its derivation took.
type fixpoint struct {
	tuples []*engine.Tuple
	rounds int
}

// NewDerivation starts a derivation of db under prep. db is frozen in place
// (a change of representation, not of content — what every executor's Fork
// always did first), so every artefact reads the one frozen core and its
// shared warm indexes, and every result is an O(changes) fork of it.
func NewDerivation(db *engine.Database, prep *datalog.Prepared) (*Derivation, error) {
	if err := prep.CompatibleWith(db.Schema); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	db.Freeze()
	return &Derivation{db: db, prep: prep, build: make(chan struct{}, 1)}, nil
}

// lock takes the derivation's lock, honouring ctx (nil: never canceled)
// while it waits for another caller's build.
func (d *Derivation) lock(ctx context.Context) error {
	if ctx == nil {
		d.build <- struct{}{}
		return nil
	}
	select {
	case d.build <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (d *Derivation) unlock() { <-d.build }

// resolvePlan is the one way from a program to the plan that runs it: every
// entry point that takes a program comes through here, once per call. A nil
// prepared plan is compiled on the spot; a supplied one must have been
// prepared from p (a nil p trusts it).
func resolvePlan(db *engine.Database, p *datalog.Program, prepared *datalog.Prepared) (*datalog.Prepared, error) {
	if prepared == nil {
		return datalog.Prepare(p, db.Schema)
	}
	if p != nil && prepared.Program != p {
		return nil, fmt.Errorf("core: prepared plan was built from a different program")
	}
	return prepared, nil
}

// derivationFor is resolvePlan followed by NewDerivation.
func derivationFor(db *engine.Database, p *datalog.Program, prepared *datalog.Prepared) (*Derivation, error) {
	prep, err := resolvePlan(db, p, prepared)
	if err != nil {
		return nil, err
	}
	return NewDerivation(db, prep)
}

// Run executes one semantics' policy and returns its stabilizing set. The
// repaired instance is not built: Materialize builds it for callers that
// want one. opts is read as by RunWith, except Prepared: the plan was fixed
// by NewDerivation. Warm hints are per call — each semantics of a
// repair-all brings its own previous result.
func (d *Derivation) Run(sem Semantics, opts Options) (*Result, error) {
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	// Every semantics replays its previous result when the batch provably
	// interacts with no rule; otherwise it derives cold.
	if res, ok, err := d.changeProbe(opts.Ctx, sem, opts.Warm); ok || err != nil {
		return res, err
	}
	switch sem {
	case SemEnd:
		return d.runEnd(opts)
	case SemStage:
		return d.runStage(opts)
	case SemStep:
		return d.runStep(opts)
	case SemIndependent:
		return d.runIndependent(opts)
	default:
		return nil, fmt.Errorf("core: unknown semantics %v", sem)
	}
}

// runMaterialized is Run followed by Materialize over the derivation's
// database: the shape of every entry point that returns the repaired
// instance.
func (d *Derivation) runMaterialized(sem Semantics, opts Options) (*Result, *engine.Database, error) {
	res, err := d.Run(sem, opts)
	if err != nil {
		return nil, nil, err
	}
	work, err := Materialize(d.db, res)
	if err != nil {
		return nil, nil, err
	}
	return res, work, nil
}

// endFixpoint returns the end-semantics fixpoint of the database, producing
// it on first demand under the derivation's lock: read off the provenance
// graph when a policy built one, else derived cold. The duration is what
// this call spent; zero on a memo hit.
func (d *Derivation) endFixpoint(ctx context.Context) (*fixpoint, time.Duration, error) {
	if err := d.lock(ctx); err != nil {
		return nil, 0, err
	}
	defer d.unlock()
	if d.end != nil {
		return d.end, 0, nil
	}
	start := time.Now()
	if d.prov != nil {
		// The graph's heads are E less the pre-deleted tuples, in derivation
		// order: a head is bound at a self atom over the live base (Def.
		// 3.1), so it is never pre-deleted.
		g := d.prov.endGraphLocked()
		end := &fixpoint{tuples: make([]*engine.Tuple, len(g.Heads)), rounds: g.NumLayers}
		for i, h := range g.Heads {
			end.tuples[i] = d.prov.tuples[d.prov.formula.Var(h)]
		}
		d.end = end
		return end, time.Since(start), nil
	}
	derived, rounds, err := derive(d.db, d.prep, deriveConfig{ctx: ctx, naive: d.naive})
	if err != nil {
		return nil, 0, err
	}
	d.end = &fixpoint{tuples: derived, rounds: rounds}
	return d.end, time.Since(start), nil
}

// finish builds the Result of a policy's choice. The chosen tuples must be
// distinct and live in the database's base: anything else is a policy bug,
// reported as an error rather than returned as a repair. Nothing is forked;
// Materialize builds the repaired instance on demand.
func (d *Derivation) finish(sem Semantics, chosen []*engine.Tuple) (*Result, error) {
	start := time.Now()
	for _, t := range chosen {
		if !d.live(t) {
			return nil, fmt.Errorf("core: %s semantics selected %s, which is not live", sem, t.Key())
		}
	}
	res := newResult(sem, slices.Clone(chosen))
	if len(res.ids) != len(res.Deleted) {
		return nil, fmt.Errorf("core: %s semantics selected a tuple twice", sem)
	}
	res.Timing.Update = time.Since(start)
	return res, nil
}

// live reports whether t is a live base tuple of the derivation's database.
func (d *Derivation) live(t *engine.Tuple) bool {
	r := d.db.Relation(t.Rel)
	return r != nil && r.ContainsTuple(t)
}

// finishIDs is finish for the policies that choose by interned tuple ID
// among the closure formula's tuples.
func (d *Derivation) finishIDs(sem Semantics, prov *closure, ids []engine.TupleID) (*Result, error) {
	chosen := make([]*engine.Tuple, len(ids))
	for i, id := range ids {
		if chosen[i] = prov.tuples[prov.formula.Var(id)]; chosen[i] == nil {
			return nil, fmt.Errorf("core: %s semantics selected unknown tuple t%d", sem, id)
		}
	}
	return d.finish(sem, chosen)
}

// Materialize builds the repaired instance (D \ S) ∪ ∆(S) of a result
// computed over db, or over any fork of the same version: a copy-on-write
// fork of db with Result.Deleted moved base → delta in order. A deleted
// tuple that is not live in db is an error — the result belongs to another
// version. db itself is never mutated.
func Materialize(db *engine.Database, res *Result) (*engine.Database, error) {
	work := db.Fork()
	for _, t := range res.Deleted {
		if !work.DeleteTupleToDelta(t) {
			return nil, fmt.Errorf("core: %s result deletes %s, which is not live", res.Semantics, t.Key())
		}
	}
	return work, nil
}

// runEnd is end semantics (Def. 3.10): standard datalog evaluation treating
// delta relations as intensional — every derivable delta tuple is derived
// against the original base relations, and the bases are updated once at
// the very end. The policy takes all of the (unique) fixpoint.
func (d *Derivation) runEnd(opts Options) (*Result, error) {
	fp, evalDur, err := d.endFixpoint(opts.Ctx)
	if err != nil {
		return nil, err
	}
	res, err := d.finish(SemEnd, fp.tuples)
	if err != nil {
		return nil, err
	}
	res.Rounds = fp.rounds
	res.Optimal = true // unique fixpoint; nothing to optimize
	res.Timing.Eval = evalDur
	return res, nil
}

// runStage is stage semantics (Def. 3.7): at every stage all rules are
// evaluated against the previous stage's database, all derivable delta
// tuples are added at once, and the base relations are updated before the
// next stage. By Prop. 3.9 the result is a unique fixpoint, and the policy
// takes all of it, read off the closure formula (Formula.Stage). So stage
// fails over DefaultMaxClauses as step and independent do.
//
// Lemma. A stage-k assignment binds its delta atoms to tuples deleted
// before k — in Stage ⊆ End ⊆ V (Prop. 3.20; the lemma on
// closureArtefact) — and its base atoms to tuples live at k, so it is a
// clause of F_V whose Neg tuples were deleted before k and whose Pos
// tuples were not; conversely every such clause is a stage-k assignment.
// Its head is a Pos tuple (the self atom, Def. 3.1), hence new. Stage k
// therefore deletes exactly the heads Formula.Stage fires at layer k.
func (d *Derivation) runStage(opts Options) (*Result, error) {
	prov, evalDur, err := d.closureArtefact(opts.Ctx, DefaultMaxClauses)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	heads, stages := prov.formula.Stage(prov.preDeleted)
	ppDur := time.Since(start)
	res, err := d.finishIDs(SemStage, prov, heads)
	if err != nil {
		return nil, err
	}
	res.Rounds = stages
	res.Optimal = true // unique fixpoint
	res.Timing.Eval, res.Timing.ProcessProv = evalDur, ppDur
	return res, nil
}

// RunEndNaive is end semantics evaluated without the seminaive frontier
// optimization: every round re-evaluates every rule against all deltas
// derived so far. The result is identical to RunWith(db, p, SemEnd,
// Options{}); this entry point exists for the evaluation-strategy ablation
// benchmark (the paper's implementation uses "standard naïve evaluation",
// §6).
func RunEndNaive(db *engine.Database, p *datalog.Program) (*Result, *engine.Database, error) {
	d, err := derivationFor(db, p, nil)
	if err != nil {
		return nil, nil, err
	}
	d.naive = true
	return d.runMaterialized(SemEnd, Options{})
}
