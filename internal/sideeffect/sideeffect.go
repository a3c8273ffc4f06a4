// Package sideeffect implements the source side-effect variant of deletion
// propagation, combined with delta programs as the paper proposes (§7,
// "Deletion propagation"): given a conjunctive-query view, a view tuple to
// remove, and a delta program describing the database's repair cascades,
// find the cheapest set of source deletions that (a) removes the view
// tuple and (b) leaves the database stable — counting the cascade cost the
// delta program imposes.
//
// It is a policy over Algorithm 1's provenance structure: every witness
// (assignment deriving the view tuple) becomes an all-positive clause
// "delete at least one witness tuple", core.Closure adds the delta
// program's stability clauses over the possible-deletion closure seeded
// with the witness tuples, and the one Min-Ones-SAT solver minimizes total
// deletions including cascades. The lemma on core.Closure makes the
// restriction to the closure exact.
package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/sat"
)

// View is a conjunctive query over base relations: Head(X) :- Body....
// It reuses the datalog machinery with an ordinary (non-delta) head; body
// atoms must be non-delta.
type View struct {
	// Name is the view's output relation name (display only).
	Name string
	// HeadVars are the distinguished variables, in output-column order.
	HeadVars []string
	// Body holds the base atoms.
	Body []datalog.Atom
	// Comps holds comparison predicates.
	Comps []datalog.Comparison

	rule *datalog.Rule // internal evaluation vehicle
	// prep is the single-rule plan, built once by the first Eval (under
	// prepOnce, so concurrent Evals of one View share it safely); prepErr
	// is that build's error.
	prepOnce sync.Once
	prep     *datalog.Prepared
	prepErr  error
}

// ParseView parses "Name(x, y) :- R(x, z), S(z, y), x < 5." into a View.
// The head relation name is arbitrary (it names the view); body atoms must
// be base atoms from the schema.
func ParseView(src string, schema *engine.Schema) (*View, error) {
	p, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(p.Rules) != 1 {
		return nil, fmt.Errorf("sideeffect: a view is a single rule, got %d", len(p.Rules))
	}
	r := p.Rules[0]
	v := &View{Name: r.Head.Rel}
	for _, t := range r.Head.Terms {
		if !t.IsVar() {
			return nil, fmt.Errorf("sideeffect: view head terms must be variables, got %s", t)
		}
		v.HeadVars = append(v.HeadVars, t.Var)
	}
	bound := make(map[string]bool)
	for _, a := range r.Body {
		if a.Delta {
			return nil, fmt.Errorf("sideeffect: view bodies must not contain delta atoms (%s)", a)
		}
		if schema != nil {
			rs := schema.Relation(a.Rel)
			if rs == nil {
				return nil, fmt.Errorf("sideeffect: unknown relation %q", a.Rel)
			}
			if rs.Arity() != len(a.Terms) {
				return nil, fmt.Errorf("sideeffect: atom %s arity mismatch", a)
			}
		}
		for _, t := range a.Terms {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
		v.Body = append(v.Body, a)
	}
	for _, hv := range v.HeadVars {
		if !bound[hv] {
			return nil, fmt.Errorf("sideeffect: head variable %s not bound in body", hv)
		}
	}
	v.Comps = r.Comps
	v.buildRule()
	return v, nil
}

// buildRule assembles the internal evaluation rule. Views have ordinary
// heads, so the delta-rule self-atom requirement does not apply; we bypass
// Validate and compile the rule directly by marking SelfIdx on a synthetic
// basis (datalog.Prepare only needs SelfIdx ≥ 0 to plan it; Head() is
// meaningless for views and unused).
func (v *View) buildRule() {
	v.rule = datalog.NewRule(v.Name,
		datalog.Atom{Delta: true, Rel: v.Body[0].Rel, Terms: v.Body[0].Terms},
		v.Body, v.Comps...)
	v.rule.SelfIdx = 0
}

// Row is one output tuple of the view.
type Row struct {
	Values []engine.Value
	// Witnesses lists, per witness assignment, the base tuples involved.
	Witnesses [][]*engine.Tuple
}

// Key renders the row's values for display and matching in reports.
func (r *Row) Key() string { return valuesKey(r.Values) }

// valuesKey renders a value list as "view(...)" for row grouping and
// display. View rows are projections, not stored tuples, so they have no
// interned TupleID; a rendered key is their only identity. The encoding is
// injective: strings are quoted (embedded commas or quotes cannot collide)
// and numerics are normalized so 1 and 1.0 group together, matching
// Value.Equal.
func valuesKey(vals []engine.Value) string {
	var b strings.Builder
	b.WriteString("view(")
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		switch v.Kind {
		case engine.KindString:
			b.WriteString(strconv.Quote(v.Str))
		case engine.KindInt:
			b.WriteString(strconv.FormatInt(v.Int, 10))
		default:
			// Normalize integral floats to int form so 1.0 groups with 1,
			// mirroring Value.Equal; non-integral floats format exactly.
			if f := v.Flt; f == float64(int64(f)) {
				b.WriteString(strconv.FormatInt(int64(f), 10))
			} else {
				b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
	}
	b.WriteByte(')')
	return b.String()
}

// MatchesRow reports whether the row's values equal target (cross-kind
// numeric equality, as in Value.Equal).
func (r *Row) MatchesRow(target []engine.Value) bool {
	if len(r.Values) != len(target) {
		return false
	}
	for i := range target {
		if !r.Values[i].Equal(target[i]) {
			return false
		}
	}
	return true
}

// Eval computes the view over the database's live base relations,
// grouping witness assignments by output row. The first Eval prepares the
// view's join plan against the database's schema; later calls reuse it.
// Eval is safe for concurrent use.
func (v *View) Eval(db *engine.Database) ([]*Row, error) {
	varIdx := make(map[string]int, len(v.HeadVars))
	for i, hv := range v.HeadVars {
		varIdx[hv] = i
	}
	v.prepOnce.Do(func() {
		// The view rule passes validation (its synthetic delta head mirrors
		// body[0]), so it prepares like any single-rule program. Its body
		// has no delta atom, so the operational plan reads base only.
		v.prep, v.prepErr = datalog.Prepare(datalog.NewProgram(v.rule), db.Schema)
	})
	if v.prepErr != nil {
		return nil, fmt.Errorf("sideeffect: preparing view: %w", v.prepErr)
	}
	ctx := v.prep.AcquireContext()
	defer v.prep.ReleaseContext(ctx)
	rows := make(map[string]*Row)
	var order []string
	err := v.prep.Rules[0].EvalOperational(db, ctx, func(asn *datalog.Assignment) bool {
		// Project the head variables out of the assignment.
		vals := make([]engine.Value, len(v.HeadVars))
		for bi, a := range v.Body {
			for col, t := range a.Terms {
				if t.IsVar() {
					if i, ok := varIdx[t.Var]; ok {
						vals[i] = asn.Tuples[bi].Vals[col]
					}
				}
			}
		}
		key := valuesKey(vals)
		row := rows[key]
		if row == nil {
			row = &Row{Values: vals}
			rows[key] = row
			order = append(order, key)
		}
		row.Witnesses = append(row.Witnesses, asn.Tuples)
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Row, 0, len(order))
	for _, k := range order {
		out = append(out, rows[k])
	}
	return out, nil
}

// ErrNoSuchRow reports that the requested view row does not exist (a
// caller-input error, distinguished so serving layers can map it to a
// client-error status).
var ErrNoSuchRow = errors.New("sideeffect: view has no row")

// Options tunes the side-effect solver.
type Options struct {
	// MaxNodes is the Min-Ones-SAT budget (0 = solver default).
	MaxNodes int64
	// Ctx, when non-nil, cancels the solve: it is polled inside the SAT
	// search and checked between phases, so a canceled request returns
	// ctx.Err() instead of blocking on a hard instance.
	Ctx context.Context
}

// Result reports a side-effect solution.
type Result struct {
	// Deleted is the chosen source deletion set (including cascades), in
	// deterministic order.
	Deleted []*engine.Tuple
	// Optimal reports whether the solver proved minimality.
	Optimal bool
	// ViewRowsBefore/After are the view cardinalities before and after.
	ViewRowsBefore, ViewRowsAfter int
	// Elapsed is the total solve time.
	Elapsed time.Duration
}

// Size returns the number of deleted tuples.
func (r *Result) Size() int { return len(r.Deleted) }

// DeleteViewTuple finds a minimum set of base deletions that removes the
// view row with the given values while keeping the database stable w.r.t.
// the delta program, prepared by the caller, and returns it with the
// repaired database. The plan may be nil (pure deletion propagation, no
// cascade constraints). With a plan, the formula is the witness clauses
// plus core.Closure seeded with the witness tuples, under its clause cap;
// tuples deleted beforehand stay deleted and are not listed in Deleted.
func DeleteViewTuple(db *engine.Database, v *View, target []engine.Value, prep *datalog.Prepared, opts Options) (*Result, *engine.Database, error) {
	start := time.Now()
	if prep != nil {
		if err := prep.CompatibleWith(db.Schema); err != nil {
			return nil, nil, fmt.Errorf("sideeffect: %w", err)
		}
	}
	rows, err := v.Eval(db)
	if err != nil {
		return nil, nil, err
	}
	var row *Row
	for _, r := range rows {
		if r.MatchesRow(target) {
			row = r
			break
		}
	}
	if row == nil {
		return nil, nil, fmt.Errorf("%w %v", ErrNoSuchRow, target)
	}

	// Per witness, the all-positive clause "delete one of these" (the
	// view's atoms are base atoms) under the synthetic head 0: the view
	// row is not a stored tuple. Its tuples seed the closure, which adds
	// the program's stability clauses and the pre-deleted unit clauses.
	formula := provenance.NewFormula()
	var possible []*engine.Tuple
	for _, w := range row.Witnesses {
		formula.Add(0, &datalog.Assignment{Rule: v.rule, Tuples: w})
		possible = append(possible, w...)
	}
	if prep != nil {
		if _, _, err := core.Closure(opts.Ctx, db, prep, formula, possible, 0); err != nil {
			return nil, nil, err
		}
	}

	// The formula wrote its CNF as it went; the solver reads it in place.
	var cancel func() bool
	if opts.Ctx != nil {
		cancel = func() bool { return opts.Ctx.Err() != nil }
	}
	solved := sat.MinOnes(formula.CNF(), sat.Options{MaxNodes: opts.MaxNodes, Cancel: cancel})
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, nil, opts.Ctx.Err()
	}
	if !solved.Satisfiable {
		return nil, nil, fmt.Errorf("sideeffect: no deletion set removes the view tuple")
	}

	work := db.Fork()
	var deleted []*engine.Tuple
	for i, id := range formula.TupleIDs() {
		if !solved.Assignment[i+1] {
			continue
		}
		t := db.LookupID(id)
		if t != nil && db.Delta(t.Rel).ContainsID(id) {
			continue // pre-deleted: its unit clause forced it, and it stays
		}
		if t == nil || !work.DeleteTupleToDelta(t) {
			return nil, nil, fmt.Errorf("sideeffect: unknown tuple t%d", id)
		}
		deleted = append(deleted, t)
	}
	// Verify: view tuple gone and (when a program is given) database stable.
	after, err := v.Eval(work)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range after {
		if r.MatchesRow(target) {
			return nil, nil, fmt.Errorf("sideeffect: internal error: view tuple survived")
		}
	}
	if prep != nil {
		stable, err := core.CheckStable(work, nil, core.Options{Prepared: prep})
		if err != nil {
			return nil, nil, err
		}
		if !stable {
			return nil, nil, fmt.Errorf("sideeffect: internal error: repair not stable")
		}
	}
	res := &Result{
		Deleted:        deleted,
		Optimal:        solved.Optimal,
		ViewRowsBefore: len(rows),
		ViewRowsAfter:  len(after),
		Elapsed:        time.Since(start),
	}
	return res, work, nil
}
