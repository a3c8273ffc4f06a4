package core

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// CheckStable reports whether db is a stable database w.r.t. the program
// (Def. 3.12): no rule has a satisfying assignment over the current state
// (live bases joined with recorded deltas).
func CheckStable(db *engine.Database, p *datalog.Program) (bool, error) {
	prep, err := resolvePlan(db, p, nil)
	if err != nil {
		return false, err
	}
	return CheckStableP(db, prep)
}

// CheckStableP is CheckStable over a prepared program: repeated stability
// probes (server loops, the step debugger) reuse the prepared plans and a
// pooled execution context instead of re-planning per call.
func CheckStableP(db *engine.Database, prep *datalog.Prepared) (bool, error) {
	return CheckStablePCtx(nil, db, prep)
}

// CheckStablePCtx is CheckStableP with per-request cancellation, checked
// before every rule probe; serving layers use it so a stability probe
// against a heavy session honors its deadline instead of holding an
// admission slot.
func CheckStablePCtx(ctx context.Context, db *engine.Database, prep *datalog.Prepared) (bool, error) {
	if err := prep.CompatibleWith(db.Schema); err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	ec := prep.AcquireContext()
	defer prep.ReleaseContext(ec)
	for _, pr := range prep.Rules {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		ok, err := pr.HasAssignment(db, ec)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
	return true, nil
}

// FirstViolation returns one satisfying assignment witnessing instability,
// or nil when db is stable. Useful in error messages and tests.
func FirstViolation(db *engine.Database, p *datalog.Program) (*datalog.Assignment, error) {
	for _, r := range p.Rules {
		var witness *datalog.Assignment
		err := datalog.EvalRuleOnDB(db, r, func(a *datalog.Assignment) bool {
			witness = a
			return false
		})
		if err != nil {
			return nil, err
		}
		if witness != nil {
			return witness, nil
		}
	}
	return nil, nil
}

// IsStabilizing reports whether deleting the tuples with the given content
// keys from db (and adding their delta counterparts) yields a stable
// database (Def. 3.14). The input database is not modified.
func IsStabilizing(db *engine.Database, p *datalog.Program, keys []string) (bool, error) {
	work := db.Fork()
	for _, k := range keys {
		work.DeleteToDelta(k)
	}
	return CheckStable(work, p)
}

// Apply deletes the result's stabilizing set from a clone of db and returns
// the repaired database; it verifies stability and errors if the set does
// not stabilize (which would indicate an executor bug).
func Apply(db *engine.Database, p *datalog.Program, res *Result) (*engine.Database, error) {
	work, err := Materialize(db, res)
	if err != nil {
		return nil, err
	}
	stable, err := CheckStable(work, p)
	if err != nil {
		return nil, err
	}
	if !stable {
		w, _ := FirstViolation(work, p)
		return nil, fmt.Errorf("core: %s result of size %d does not stabilize the database (witness: %v)",
			res.Semantics, res.Size(), w)
	}
	return work, nil
}
