package core

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// CheckStable reports whether db is a stable database w.r.t. the program
// (Def. 3.12): no rule has a satisfying assignment over the current state
// (live bases joined with recorded deltas). opts is read as by RunWith:
// Prepared supplies the plan (nil prepares p on the spot) and Ctx is
// checked before every rule probe. The other options, Warm included, are
// ignored: stability is a property of one state, probed in full.
func CheckStable(db *engine.Database, p *datalog.Program, opts Options) (bool, error) {
	prep, err := resolvePlan(db, p, opts.Prepared)
	if err != nil {
		return false, err
	}
	return checkStable(opts.Ctx, db, prep)
}

// checkStable is CheckStable over a resolved plan: every rule's operational
// plan is probed until one yields an assignment.
func checkStable(ctx context.Context, db *engine.Database, prep *datalog.Prepared) (bool, error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	if err := prep.CompatibleWith(db.Schema); err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	ec := prep.AcquireContext()
	defer prep.ReleaseContext(ec)
	found := false
	stop := func(*datalog.Assignment) bool {
		found = true
		return false
	}
	for _, pr := range prep.Rules {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		if err := pr.EvalOperational(db, ec, stop); err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}

// FirstViolation returns one satisfying assignment witnessing instability,
// or nil when db is stable: the first assignment of the first rule that has
// one, in the prepared operational plan's enumeration order. Useful in
// error messages and tests.
func FirstViolation(db *engine.Database, p *datalog.Program) (*datalog.Assignment, error) {
	prep, err := resolvePlan(db, p, nil)
	if err != nil {
		return nil, err
	}
	var witness *datalog.Assignment
	for _, pr := range prep.Rules {
		err := pr.EvalOperational(db, nil, func(a *datalog.Assignment) bool {
			witness = a
			return false
		})
		if err != nil || witness != nil {
			return witness, err
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
	return CheckStable(work, p, Options{})
}
