// Package provenance implements the provenance representations of §5 of the
// paper: Boolean-formula provenance (DNF per delta tuple, used by Algorithm
// 1 for independent semantics) and the layered provenance graph with tuple
// benefits (used by Algorithm 2 for step semantics) — one structure, not
// two: the graph is read off the formula (Formula.EndGraph).
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
	"strings"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/sat"
)

// Clause is the provenance of one assignment α: the conjunction of the base
// tuples α binds positively (Pos, "must be present") and the base
// counterparts of the delta tuples α binds (Neg, "must have been deleted").
// In formula terms the clause is  t₁ ∧ … ∧ tₖ ∧ ¬d₁ ∧ … ∧ ¬dₘ  where
// negated variables stand for deleted tuples (§5.1).
type Clause struct {
	Pos []engine.TupleID
	Neg []engine.TupleID
}

// ClauseOf extracts the provenance clause of an assignment: tuples bound to
// non-delta body atoms go to Pos, tuples bound to delta atoms to Neg.
// Duplicates (the same tuple bound by several atoms) are removed, and a
// tuple bound both positively and as a delta yields both entries (the
// clause is then unsatisfiable in any consistent state, but Algorithm 1's
// negation handles it soundly). Rule bodies are short, so dedup is a linear
// scan over the slices themselves — no maps, no allocation beyond the
// clause.
func ClauseOf(asn *datalog.Assignment) Clause {
	var c Clause
	for i, tp := range asn.Tuples {
		id := tp.TID
		if asn.Rule.Body[i].Delta {
			if !slices.Contains(c.Neg, id) {
				c.Neg = append(c.Neg, id)
			}
		} else if !slices.Contains(c.Pos, id) {
			c.Pos = append(c.Pos, id)
		}
	}
	return c
}

// String renders the clause as a conjunction of tuple IDs, e.g.
// "t3 ∧ ¬t7" (debugging; resolve IDs through the database for readable
// content keys).
func (c Clause) String() string {
	var parts []string
	for _, id := range c.Pos {
		parts = append(parts, fmt.Sprintf("t%d", id))
	}
	for _, id := range c.Neg {
		parts = append(parts, fmt.Sprintf("¬t%d", id))
	}
	return strings.Join(parts, " ∧ ")
}

// Formula is the flat provenance of possible delta tuples: one clause per
// assignment, the disjunction of which is the formula F of Algorithm 1.
// core fills it with the relevant possible delta tuples only (the closure
// V; see the lemma on core's Derivation.buildCNF for why that is exact).
// Heads records the delta tuple each clause derives (parallel to Clauses);
// Algorithm 1 needs only the clause bodies, the end graph (EndGraph) needs
// the heads. A synthetic head of 0 is permitted (used by the side-effect
// solver for view-witness clauses).
//
// Every tuple a clause mentions is numbered as a variable, 1, 2, … in
// first-occurrence order as clauses are added, and each clause's body goes
// over those numbers straight into the formula's CNF (see CNF) — the one
// copy of the literals, which the solver reads in place and the end graph
// indexes. Clauses are deduplicated on head and body: the same body under
// two heads is two clauses here (the end graph needs both heads) and one
// CNF clause.
type Formula struct {
	Clauses []Clause
	Heads   []engine.TupleID

	vars map[engine.TupleID]int // tuple → variable
	ids  []engine.TupleID       // variable v is ids[v-1]
	cnf  *sat.Formula
	// body[i] is clause i's CNF clause, or -1 for a tautological body (a
	// tuple in both Pos and Neg), which the CNF drops. The clauses over one
	// CNF clause b are chained for the head+body dedup, latest first:
	// lastOf[b] is the latest (-1: none), prevOf[i] the one before i.
	body, prevOf, lastOf []int32
	taut                 map[string]bool // head+body keys of tautological clauses
	scratch              []int           // reusable literal scratch for Add
}

// NewFormula creates an empty provenance formula.
func NewFormula() *Formula {
	return &Formula{vars: make(map[engine.TupleID]int), cnf: sat.NewFormula(0), taut: make(map[string]bool)}
}

// Add records the clause deriving head, deduplicating exact repeats (the
// same head, Pos set and Neg set). It reports whether the clause was new.
// Its body goes into the CNF on the way, and the CNF's own body dedup
// finds the clauses to compare heads with, so Add builds no key and
// allocates nothing beyond slice growth (a tautological body, which has no
// CNF clause, is keyed by a string instead).
func (f *Formula) Add(head engine.TupleID, c Clause) bool {
	lits := f.scratch[:0]
	for _, id := range c.Pos {
		lits = append(lits, f.number(id))
	}
	for _, id := range c.Neg {
		lits = append(lits, -f.number(id))
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
		prev, f.lastOf[body] = f.lastOf[body], int32(len(f.Clauses))
	} else {
		key := fmt.Sprint(head, slices.Compact(slices.Sorted(slices.Values(lits))))
		if f.taut[key] {
			return false
		}
		f.taut[key] = true
	}
	f.Clauses = append(f.Clauses, c)
	f.Heads = append(f.Heads, head)
	f.body = append(f.body, int32(body))
	f.prevOf = append(f.prevOf, prev)
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
func (f *Formula) Len() int { return len(f.Clauses) }

// CNF is Algorithm 1's CNF over the formula's variables (lines 2–4): each
// distinct clause body t₁ ∧ … ∧ ¬d₁ ∧ … negated into (x_t₁ ∨ … ∨ ¬x_d₁ ∨ …),
// x_t meaning "t is deleted" — which over the variables is the body's own
// literals. It is filled as clauses are added, in clause order, and
// handed to the solver as is; whatever is appended to it (core's unit
// clauses for pre-deleted tuples) stays in it.
func (f *Formula) CNF() *sat.Formula { return f.cnf }

// Lits returns clause i's body over the formula's variables as the CNF
// stores it: +v for each Pos tuple, −v for each Neg tuple, sorted ascending.
// A tautological body (a tuple in both Pos and Neg) has no CNF clause, and
// Lits returns nil for it. The slice is shared; do not modify it.
func (f *Formula) Lits(i int) []int32 {
	if f.body[i] < 0 {
		return nil
	}
	return f.cnf.Clause(int(f.body[i]))
}

// Var returns the variable numbering id, or 0 when no clause mentions it.
func (f *Formula) Var(id engine.TupleID) int { return f.vars[id] }

// TupleIDs returns every distinct tuple ID mentioned in the formula
// (positively or negatively), in first-occurrence order: variable v is
// TupleIDs()[v-1]. The slice is shared; do not modify it.
func (f *Formula) TupleIDs() []engine.TupleID { return f.ids }
