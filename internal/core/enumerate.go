package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/sat"
)

// MaxEnumRepairs caps EnumerateOptions.K: per-tuple repair membership is a
// 64-bit mask, so a space never holds more than 64 repairs.
const MaxEnumRepairs = 64

// ClampEnumK returns k normalized to [1, MaxEnumRepairs] — the clamping
// EnumerateRepairsWith applies. Exported so serving layers can key caches
// by the effective k.
func ClampEnumK(k int) int {
	if k < 1 {
		return 1
	}
	if k > MaxEnumRepairs {
		return MaxEnumRepairs
	}
	return k
}

// EnumerateOptions configures repair-space enumeration under independent
// semantics.
type EnumerateOptions struct {
	// K caps the number of repairs returned; values are clamped to
	// [1, MaxEnumRepairs].
	K int
	// CardinalityOnly restricts the space to cardinality-minimal repairs
	// (Lopatenko–Bertossi): only repairs tied with the minimum (weighted)
	// cost are returned, and Complete reports whether that tie band was
	// exhausted. The default enumerates the k best set-minimal repairs in
	// nondecreasing cost order.
	CardinalityOnly bool
}

// RepairSpace is the result of enumerating the k best independent-semantics
// repairs of one database, plus the per-tuple certain/possible
// classification across them. All classification answers are relative to
// the enumerated repairs: when Complete is false, more repairs may exist —
// "certainly deleted" can shrink and "possibly deleted" can grow against
// the full space.
type RepairSpace struct {
	// Repairs holds distinct minimal repairs in nondecreasing (weighted)
	// cost order; ties resolve deterministically by the solver's
	// tie-breaking. Repairs[0] is byte-identical to the single
	// independent-semantics RunWith result under the same options.
	Repairs []*Result
	// Complete reports that the enumeration provably exhausted the space
	// (or, with CardinalityOnly, the minimum-cost tie band): no further
	// repair of the requested kind exists beyond Repairs.
	Complete bool
	// Optimal reports that every solver search proved optimality; false
	// means a node budget ran out — the tail of Repairs is best-effort and
	// the enumeration stopped early.
	Optimal bool
	// SolverNodes totals search nodes across all solver calls.
	SolverNodes int64
	// FormulaClauses is the provenance formula size (built once and shared
	// by every solve).
	FormulaClauses int
	// Timing is the phase breakdown; Solve spans all solver calls and
	// Update spans materializing every repair.
	Timing Breakdown

	deletedIn map[engine.TupleID]uint64 // bit i set ⇔ Repairs[i] deletes the tuple
	certain   []*engine.Tuple           // deleted in every repair, Seq order
	possible  []*engine.Tuple           // deleted in ≥ 1 repair, Seq order
}

// K returns the number of repairs in the space.
func (rs *RepairSpace) K() int { return len(rs.Repairs) }

// FullMask returns the bitmask with one bit per repair (bit i = Repairs[i]).
func (rs *RepairSpace) FullMask() uint64 {
	if len(rs.Repairs) >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(len(rs.Repairs))) - 1
}

// DeletedMask returns the set of repairs deleting the tuple, as a bitmask
// over Repairs. Zero means the tuple survives every enumerated repair.
func (rs *RepairSpace) DeletedMask(id engine.TupleID) uint64 { return rs.deletedIn[id] }

// CertainlyDeleted lists the tuples deleted by every enumerated repair, in
// Seq order. A tuple is *certain* (in the CQA sense: present in every
// repair) iff it is live and not in PossiblyDeleted.
func (rs *RepairSpace) CertainlyDeleted() []*engine.Tuple { return rs.certain }

// PossiblyDeleted lists the tuples deleted by at least one enumerated
// repair, in Seq order. A live tuple outside this set survives every
// repair; a tuple in it but not in CertainlyDeleted is *possible* —
// present in some repairs, absent from others.
func (rs *RepairSpace) PossiblyDeleted() []*engine.Tuple { return rs.possible }

// classify builds the per-tuple masks and the certain/possible slices from
// the enumerated repairs.
func (rs *RepairSpace) classify() {
	rs.deletedIn = make(map[engine.TupleID]uint64)
	byID := make(map[engine.TupleID]*engine.Tuple)
	for i, res := range rs.Repairs {
		for _, t := range res.Deleted {
			rs.deletedIn[t.TID] |= uint64(1) << uint(i)
			byID[t.TID] = t
		}
	}
	full := rs.FullMask()
	for id, mask := range rs.deletedIn {
		t := byID[id]
		rs.possible = append(rs.possible, t)
		if mask == full {
			rs.certain = append(rs.certain, t)
		}
	}
	sort.Slice(rs.possible, func(i, j int) bool { return rs.possible[i].Seq < rs.possible[j].Seq })
	sort.Slice(rs.certain, func(i, j int) bool { return rs.certain[i].Seq < rs.certain[j].Seq })
}

// EnumerateRepairsWith enumerates the eopts.K best independent-semantics
// repairs of db under p. The input database is forked, never mutated. opts
// is interpreted as for RunWith (Prepared, Ctx, Independent all apply;
// Warm hints are ignored — the space depends on the whole database, not on
// a previous single result).
//
// The provenance CNF is built once; the solver then runs up to k times,
// each solution's blocking clause excluding it and its supersets from
// later solves (see sat.EnumerateMinOnes). Every returned repair is
// verified to stabilize the database, exactly like the single-repair path.
//
// bench/ (its own Go module) calls EnumerateRepairsWith with
// Options.Prepared, so its shape changes only in a benchmark change that
// moves bench/trace.go's probes first.
func EnumerateRepairsWith(db *engine.Database, p *datalog.Program, opts Options, eopts EnumerateOptions) (*RepairSpace, error) {
	d, err := derivationFor(db, p, opts.Prepared)
	if err != nil {
		return nil, err
	}
	return d.Enumerate(opts, eopts)
}

// Enumerate is EnumerateRepairsWith over the derivation's database: the
// repair space reads the closure formula every other policy of the
// derivation shares. opts is read as by EnumerateRepairsWith, except
// Prepared: the plan was fixed by NewDerivation.
func (d *Derivation) Enumerate(opts Options, eopts EnumerateOptions) (*RepairSpace, error) {
	ctx, iopts := opts.Ctx, opts.Independent
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	k := ClampEnumK(eopts.K)
	ic, err := d.buildCNF(ctx, iopts)
	if err != nil {
		return nil, err
	}

	solveStart := time.Now()
	enum := sat.EnumerateMinOnes(ic.cnf, k, eopts.CardinalityOnly, ic.satOptions(ctx, iopts))
	solveDur := time.Since(solveStart)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if len(enum.Solutions) == 0 {
		// Cannot happen: every clause has a positive literal (the self
		// atom), so the all-true assignment satisfies the CNF — the first
		// solve always finds something.
		return nil, fmt.Errorf("core: provenance CNF unexpectedly unsatisfiable")
	}

	space := &RepairSpace{
		Complete:       enum.Complete,
		Optimal:        enum.Optimal,
		SolverNodes:    enum.Nodes,
		FormulaClauses: ic.prov.formula.Len(),
	}
	updStart := time.Now()
	for _, sol := range enum.Solutions {
		res, err := d.solution(ctx, ic, sol.Assignment)
		if err != nil {
			return nil, err
		}
		res.Optimal = sol.Optimal
		res.SolverNodes = sol.Nodes
		res.RepairCost = sol.WeightedCost - ic.preDeletedCost
		space.Repairs = append(space.Repairs, res)
	}
	updDur := time.Since(updStart)
	space.classify()
	space.Timing = Breakdown{Eval: ic.evalDur, ProcessProv: ic.ppDur, Solve: solveDur, Update: updDur}
	return space, nil
}
