package datalog

import (
	"fmt"

	"repro/internal/engine"
)

// The per-call-planned evaluator. Production code evaluates through
// Prepare's plans; the tests keep this one as an independently planned
// reference for them.

// totalLen is the live cardinality of a source, the per-call planner's
// join-order weight.
func (s AtomSource) totalLen() int {
	n := 0
	for _, r := range s {
		if r != nil {
			n += r.Len()
		}
	}
	return n
}

// EvalRule enumerates every assignment of rule over the given per-atom
// sources, invoking emit for each; emit returning false stops enumeration
// early. The rule must have been validated (SelfIdx resolved). Enumeration
// order is deterministic.
//
// It plans the join order per call from the live source cardinalities,
// independently of Prepare's static source-shape ranks, which makes it a
// reference the prepared plans are checked against.
func EvalRule(rule *Rule, sources []AtomSource, emit func(*Assignment) bool) error {
	if rule.SelfIdx < 0 {
		return fmt.Errorf("datalog: rule %s not validated", ruleName(rule))
	}
	if len(sources) != len(rule.Body) {
		return fmt.Errorf("datalog: rule %s: %d sources for %d body atoms", ruleName(rule), len(sources), len(rule.Body))
	}
	cr := rule.compile()
	pl := planFor(cr, func(i int) int { return sources[i].totalLen() })
	ctx := NewExecContext()
	return evalPlan(rule, cr, pl, sources, ctx, emit)
}

// EvalRuleOnDB enumerates assignments with the standard operational sources
// (base atoms from R, delta atoms from ∆).
func EvalRuleOnDB(db *engine.Database, rule *Rule, emit func(*Assignment) bool) error {
	return EvalRule(rule, SourcesFor(db, rule), emit)
}

// HasAssignment reports whether the rule has at least one assignment over
// the database's current state.
func HasAssignment(db *engine.Database, rule *Rule) (bool, error) {
	found := false
	err := EvalRuleOnDB(db, rule, func(*Assignment) bool {
		found = true
		return false
	})
	return found, err
}
