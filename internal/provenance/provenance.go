// Package provenance implements the provenance representations of §5 of the
// paper: Boolean-formula provenance (DNF per delta tuple, used by Algorithm
// 1 for independent semantics) and the layered provenance graph with tuple
// benefits (used by Algorithm 2 for step semantics) — one structure, not
// two: the graph is read off the formula (Formula.EndGraph), and so is the
// stage fixpoint (Formula.Stage).
//
// The formula's flat CNF (a sat.Formula) is the only copy of the clauses.
// Add writes an assignment's literals straight into it; the solver reads it
// in place; the end graph, step's traversal, the Explainer and the DOT
// rendering hold clause indexes into it and decode a clause's tuples on
// demand (Lits, Body). The one case the CNF drops, a tautological body, is
// kept in a small side table so that it still decodes and fires.
//
// Throughout, tuples are identified by their interned engine.TupleID; a
// delta tuple ∆(t) is identified by t's ID — delta relations share tuples
// with their base relations, so no separate ID space is needed. Rendering
// IDs back to readable content keys is the caller's concern (resolve
// through the database; see internal/viz and core's Explainer).
package provenance

import (
	"fmt"
	"slices"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/sat"
)

// Formula is the flat provenance of possible delta tuples: one clause per
// assignment, the disjunction of which is the formula F of Algorithm 1.
// The clause of an assignment α is the conjunction of the base tuples α
// binds positively (its Pos tuples, "must be present") and the base
// counterparts of the delta tuples it binds (its Neg tuples, "must have been
// deleted"): t₁ ∧ … ∧ tₖ ∧ ¬d₁ ∧ … ∧ ¬dₘ (§5.1). core fills it with the
// relevant possible delta tuples only (the closure V; see the lemma on
// core's Derivation.buildCNF for why that is exact). Heads records the
// delta tuple each clause derives; Algorithm 1 needs only the clause
// bodies, the end graph (EndGraph) needs the heads. A synthetic head of 0
// is permitted (used by the side-effect solver for view-witness clauses).
//
// Every tuple a clause mentions is numbered as a variable, 1, 2, … in
// first-occurrence order as clauses are added, and each clause's body goes
// over those numbers straight into the formula's CNF (see CNF) — the one
// copy of the literals. Clauses are deduplicated on head and body: the same
// body under two heads is two clauses here (the end graph needs both
// heads) and one CNF clause.
type Formula struct {
	Heads []engine.TupleID

	vars map[engine.TupleID]int // tuple → variable
	ids  []engine.TupleID       // variable v is ids[v-1]
	cnf  *sat.Formula
	// body[i] is clause i's CNF clause, or -1-k for a tautological body (a
	// tuple in both Pos and Neg), which the CNF drops and taut[k] keeps. The
	// clauses over one CNF clause b are chained for the head+body dedup,
	// latest first: lastOf[b] is the latest (-1: none), prevOf[i] the one
	// before i.
	body, prevOf, lastOf []int32
	taut                 [][]int32        // canonical literals of the tautological bodies
	tautSeen             map[string]bool  // head+body keys of tautological clauses
	scratch              []int            // reusable literal scratch for Add
	occ                  *sat.Occurrences // built on demand, dropped by Add
}

// NewFormula creates an empty provenance formula.
func NewFormula() *Formula {
	return &Formula{vars: make(map[engine.TupleID]int), cnf: sat.NewFormula(0), tautSeen: make(map[string]bool)}
}

// Add records the clause of asn deriving head, deduplicating exact repeats
// (the same head, Pos set and Neg set). It reports whether the clause was
// new. Tuples asn binds at non-delta atoms are its Pos tuples, those at
// delta atoms its Neg tuples; a tuple bound by several atoms counts once,
// and one bound both ways makes a tautological body (unsatisfiable in any
// consistent state, which Algorithm 1's negation handles soundly). The
// literals go through a reusable scratch into the CNF, numbering new tuples
// Pos first, and the CNF's own body dedup finds the clauses to compare
// heads with, so Add allocates nothing beyond slice growth (a tautological
// body, which has no CNF clause, is keyed by a string and kept in the side
// table instead).
func (f *Formula) Add(head engine.TupleID, asn *datalog.Assignment) bool {
	lits := f.scratch[:0]
	for _, delta := range []bool{false, true} {
		for i, tp := range asn.Tuples {
			if asn.Rule.Body[i].Delta != delta {
				continue
			}
			if v := f.number(tp.TID); delta {
				lits = append(lits, -v)
			} else {
				lits = append(lits, v)
			}
		}
	}
	f.scratch = lits
	body, _ := f.cnf.AddClause(lits...) // every literal is a numbered variable
	prev := int32(-1)
	if body >= 0 {
		for len(f.lastOf) <= body {
			f.lastOf = append(f.lastOf, -1)
		}
		for i := f.lastOf[body]; i >= 0; i = f.prevOf[i] {
			if f.Heads[i] == head {
				return false
			}
		}
		prev, f.lastOf[body] = f.lastOf[body], int32(len(f.Heads))
	} else {
		canon := slices.Compact(slices.Sorted(slices.Values(lits)))
		key := fmt.Sprint(head, canon)
		if f.tautSeen[key] {
			return false
		}
		f.tautSeen[key] = true
		body = -1 - len(f.taut)
		c := make([]int32, len(canon))
		for j, l := range canon {
			c[j] = int32(l)
		}
		f.taut = append(f.taut, c)
	}
	f.Heads = append(f.Heads, head)
	f.body = append(f.body, int32(body))
	f.prevOf = append(f.prevOf, prev)
	f.occ = nil
	return true
}

// number returns id's variable, numbering it if it is new.
func (f *Formula) number(id engine.TupleID) int {
	v, ok := f.vars[id]
	if !ok {
		f.ids = append(f.ids, id)
		v = f.cnf.AddVar()
		f.vars[id] = v
	}
	return v
}

// Len returns the number of clauses.
func (f *Formula) Len() int { return len(f.Heads) }

// CNF is Algorithm 1's CNF over the formula's variables (lines 2–4): each
// distinct clause body t₁ ∧ … ∧ ¬d₁ ∧ … negated into (x_t₁ ∨ … ∨ ¬x_d₁ ∨ …),
// x_t meaning "t is deleted" — which over the variables is the body's own
// literals. It is filled as clauses are added, in clause order, and
// handed to the solver as is; whatever is appended to it (core's unit
// clauses for pre-deleted tuples) stays in it.
func (f *Formula) CNF() *sat.Formula { return f.cnf }

// Lits returns clause i's body over the formula's variables, canonical as
// the CNF stores it: +v for each Pos tuple, −v for each Neg tuple, sorted
// ascending. A tautological body, which has no CNF clause, is read from the
// side table. The slice is shared; do not modify it.
func (f *Formula) Lits(i int) []int32 {
	if b := f.body[i]; b < 0 {
		return f.taut[-1-b]
	}
	return f.cnf.Clause(int(f.body[i]))
}

// Body decodes clause i into its Pos and Neg tuples, in the order of its
// literals (Lits). The slices are fresh.
func (f *Formula) Body(i int) (pos, neg []engine.TupleID) {
	for _, l := range f.Lits(i) {
		if l > 0 {
			pos = append(pos, f.ids[l-1])
		} else {
			neg = append(neg, f.ids[-l-1])
		}
	}
	return pos, neg
}

// Var returns the variable numbering id, or 0 when no clause mentions it.
func (f *Formula) Var(id engine.TupleID) int { return f.vars[id] }

// TupleIDs returns every distinct tuple ID mentioned in the formula
// (positively or negatively), in first-occurrence order: variable v is
// TupleIDs()[v-1]. The slice is shared; do not modify it.
func (f *Formula) TupleIDs() []engine.TupleID { return f.ids }

// Occurrences returns the formula's occurrence index, built on first demand
// after the last Add: Of(v) lists the clauses holding variable v's tuple as
// a Pos and as a Neg tuple, in clause order. It is shared; do not modify it.
func (f *Formula) Occurrences() *sat.Occurrences {
	if f.occ == nil {
		occ := sat.NewOccurrences(len(f.ids), f.Len(), f.Lits)
		f.occ = &occ
	}
	return f.occ
}
