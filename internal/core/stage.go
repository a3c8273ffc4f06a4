package core

import (
	"context"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// RunStage computes Stage(P, D) (Def. 3.7): at every stage all rules are
// evaluated against the previous stage's database, all derivable delta
// tuples are added at once, and the base relations are updated before the
// next stage (seminaive-style, rule-order independent). By Prop. 3.9 the
// result is a unique fixpoint.
//
// The returned database is the repaired instance (D \ S) ∪ ∆(S).
func RunStage(db *engine.Database, p *datalog.Program) (*Result, *engine.Database, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	return runStage(nil, db, prep)
}

func runStage(ctx context.Context, db *engine.Database, prep *datalog.Prepared) (*Result, *engine.Database, error) {
	work := db.Fork()
	start := time.Now()
	derived, rounds, err := derive(work, prep, deriveConfig{shrinkBases: true, ctx: ctx})
	evalDur := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	res := newResult(SemStage, append([]*engine.Tuple(nil), derived...))
	res.Rounds = rounds
	res.Optimal = true // unique fixpoint
	res.Timing = Breakdown{Eval: evalDur}
	return res, work, nil
}
