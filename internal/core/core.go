// Package core implements the paper's primary contribution: the four
// semantics for delta programs — independent (§3.2), step (§3.3), stage
// (§3.4), and end (§3.5) — together with the two heuristic algorithms for
// the NP-hard semantics: Algorithm 1 (provenance + Min-Ones-SAT) for
// independent semantics and Algorithm 2 (layered provenance-graph greedy)
// for step semantics.
//
// The four are policies over one Derivation (derivation.go): it derives the
// artefacts they choose from once per request — Algorithm 1's closure
// formula with the end graph read off it, and the end fixpoint. Stage is a
// layered pass over the same formula, so a repair-all derives once. A
// policy's Result is the stabilizing set alone; RunWith returns it
// together with the repaired database, which Materialize builds as a
// copy-on-write fork. The caller's instance is never mutated.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

// Semantics identifies one of the four delta-rule semantics.
type Semantics int

// The four semantics of the paper, plus auxiliary step executors.
const (
	// SemEnd is end semantics (Def. 3.10): derive all delta tuples first,
	// update the database once at the end. PTIME; the baseline.
	SemEnd Semantics = iota
	// SemStage is stage semantics (Def. 3.7): derive everything derivable
	// from the previous stage, update, repeat. PTIME, deterministic.
	SemStage
	// SemStep is step semantics (Def. 3.5) computed by Algorithm 2's
	// greedy provenance-graph traversal. Finding the true minimum is
	// NP-hard (Prop. 4.2); the greedy output is a valid stabilizing set
	// realizable by a step execution.
	SemStep
	// SemIndependent is independent semantics (Def. 3.3) computed by
	// Algorithm 1 (provenance formula + Min-Ones-SAT). NP-hard; exact when
	// the solver completes within budget.
	SemIndependent
)

// String returns the semantics name as used in the paper's tables.
func (s Semantics) String() string {
	switch s {
	case SemEnd:
		return "end"
	case SemStage:
		return "stage"
	case SemStep:
		return "step"
	case SemIndependent:
		return "independent"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// AllSemantics lists the four semantics in the paper's presentation order.
var AllSemantics = []Semantics{SemIndependent, SemStep, SemStage, SemEnd}

// Breakdown records per-phase execution time, mirroring Figure 8 of the
// paper: Eval (rule evaluation / provenance storage), ProcessProv
// (formula or graph construction), Solve (SAT search, Algorithm 1 only),
// Traverse (graph traversal, Algorithm 2 only), and Update (applying
// deletions to the database).
type Breakdown struct {
	Eval        time.Duration
	ProcessProv time.Duration
	Solve       time.Duration
	Traverse    time.Duration
	Update      time.Duration
}

// Total sums all phases.
func (b Breakdown) Total() time.Duration {
	return b.Eval + b.ProcessProv + b.Solve + b.Traverse + b.Update
}

// Result is the outcome of running one semantics: the stabilizing set S
// (the set of non-delta tuples deleted), diagnostics, and timings.
type Result struct {
	// Semantics identifies the executor that produced the result.
	Semantics Semantics
	// Deleted is the stabilizing set S in deterministic (Seq) order.
	Deleted []*engine.Tuple
	// Rounds is the number of derivation rounds/stages taken (end, stage)
	// or provenance layers traversed (step). For an end fixpoint reused
	// within a Derivation it is the rounds of the derivation that produced
	// it.
	Rounds int
	// Timing is the per-phase runtime breakdown. It is additive across the
	// semantics run on one Derivation: the time of a shared artefact (the
	// end fixpoint and its graph) is charged once, to the Result of the
	// semantics that first demanded it, and is zero in the others.
	Timing Breakdown
	// Optimal reports whether minimality was proven (independent semantics
	// with a completed solver run; vacuously true for end and stage whose
	// results are unique).
	Optimal bool
	// SolverNodes is the number of SAT search nodes (independent only).
	SolverNodes int64
	// FormulaClauses is the provenance formula size (independent only): one
	// clause per assignment over the relevant possible delta tuples (the
	// closure V; see the lemma on Derivation.buildCNF).
	FormulaClauses int
	// GraphAssignments is the provenance graph size (step only).
	GraphAssignments int
	// RepairCost is the weighted objective value: the total weight of
	// Deleted (independent semantics with IndependentOptions.Weight; equals
	// Size() under the default minimum-cardinality metric).
	RepairCost int64

	ids  map[engine.TupleID]bool
	keys map[string]bool // lazy; built only for key-based queries
}

// newResult builds a Result from tuples, sorting deterministically.
func newResult(sem Semantics, deleted []*engine.Tuple) *Result {
	sort.Slice(deleted, func(i, j int) bool { return deleted[i].Seq < deleted[j].Seq })
	r := &Result{Semantics: sem, Deleted: deleted, ids: make(map[engine.TupleID]bool, len(deleted))}
	for _, t := range deleted {
		r.ids[t.TID] = true
	}
	return r
}

// Size returns |S|.
func (r *Result) Size() int { return len(r.Deleted) }

// ContainsTuple reports whether the stabilizing set includes the tuple.
func (r *Result) ContainsTuple(t *engine.Tuple) bool { return r.ids[t.TID] }

// Contains reports whether the stabilizing set includes the tuple with the
// given content key (reporting/API convenience; identity checks inside the
// engine use ContainsTuple).
func (r *Result) Contains(key string) bool {
	if r.keys == nil {
		r.keys = make(map[string]bool, len(r.Deleted))
		for _, t := range r.Deleted {
			r.keys[t.Key()] = true
		}
	}
	return r.keys[key]
}

// Keys returns the content keys of the stabilizing set in Seq order.
func (r *Result) Keys() []string {
	out := make([]string, len(r.Deleted))
	for i, t := range r.Deleted {
		out[i] = t.Key()
	}
	return out
}

// SubsetOf reports S_r ⊆ S_o.
func (r *Result) SubsetOf(o *Result) bool {
	if r.Size() > o.Size() {
		return false
	}
	for id := range r.ids {
		if !o.ids[id] {
			return false
		}
	}
	return true
}

// SameSet reports S_r = S_o.
func (r *Result) SameSet(o *Result) bool {
	return r.Size() == o.Size() && r.SubsetOf(o)
}

// String renders a short summary; small sets are listed in full.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d tuples deleted", r.Semantics, r.Size())
	if r.Size() <= 12 {
		b.WriteString(" {")
		for i, t := range r.Deleted {
			if i > 0 {
				b.WriteString(", ")
			}
			if t.ID != "" {
				b.WriteString(t.ID)
			} else {
				b.WriteString(t.Key())
			}
		}
		b.WriteByte('}')
	}
	return b.String()
}

// ByRelation returns per-relation deletion counts, sorted by relation name.
func (r *Result) ByRelation() map[string]int {
	out := make(map[string]int)
	for _, t := range r.Deleted {
		out[t.Rel]++
	}
	return out
}
