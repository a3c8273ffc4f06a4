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

// appendID appends one TupleID as 8 little-endian bytes.
func appendID(buf []byte, id engine.TupleID) []byte {
	return append(buf,
		byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
		byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
}

// appendSig appends the canonical dedup key "head | clause content" to
// buf: the head ID, sorted Pos IDs, a separator, sorted Neg IDs, each ID
// as 8 little-endian bytes. scratch is reused for sorting the ID runs;
// both grown slices are returned so callers can recycle them — dedup
// lookups run once per enumerated assignment, so the key must not allocate
// on the hit path.
func appendSig(buf []byte, scratch []engine.TupleID, head engine.TupleID, c Clause) ([]byte, []engine.TupleID) {
	buf = appendID(buf, head)
	appendIDs := func(ids []engine.TupleID) {
		scratch = append(scratch[:0], ids...)
		slices.Sort(scratch)
		for _, id := range scratch {
			buf = appendID(buf, id)
		}
	}
	appendIDs(c.Pos)
	// Single-byte Pos/Neg separator. Re-parsing ambiguity would need an
	// ID whose encoding straddles the separator position, i.e. an ID of
	// at least 0xfe<<56 — unreachable for the sequential intern counter.
	buf = append(buf, 0xfe)
	appendIDs(c.Neg)
	return buf, scratch
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
// first-occurrence order as clauses are added, and each clause is kept over
// those numbers as well (Lits), so the CNF and the end graph index slices
// instead of maps.
type Formula struct {
	Clauses []Clause
	Heads   []engine.TupleID

	vars  map[engine.TupleID]int // tuple → variable
	ids   []engine.TupleID       // variable v is ids[v-1]
	lits  []int                  // every clause's literals, concatenated
	start []int                  // clause i's literals are lits[start[i]:start[i+1]]

	seen       map[string]bool // canonical clause+head dedup
	sigBuf     []byte          // reusable dedup-key scratch
	sigScratch []engine.TupleID
}

// NewFormula creates an empty provenance formula.
func NewFormula() *Formula {
	return &Formula{vars: make(map[engine.TupleID]int), start: []int{0}, seen: make(map[string]bool)}
}

// Add records the clause deriving head, deduplicating exact repeats. It
// reports whether the clause was new.
func (f *Formula) Add(head engine.TupleID, c Clause) bool {
	f.sigBuf, f.sigScratch = appendSig(f.sigBuf[:0], f.sigScratch, head, c)
	if f.seen[string(f.sigBuf)] { // compiler-optimized: no allocation on hit
		return false
	}
	f.seen[string(f.sigBuf)] = true
	f.Clauses = append(f.Clauses, c)
	f.Heads = append(f.Heads, head)
	for _, id := range c.Pos {
		f.lits = append(f.lits, f.number(id))
	}
	for _, id := range c.Neg {
		f.lits = append(f.lits, -f.number(id))
	}
	f.start = append(f.start, len(f.lits))
	return true
}

// number returns id's variable, numbering it if it is new.
func (f *Formula) number(id engine.TupleID) int {
	v, ok := f.vars[id]
	if !ok {
		f.ids = append(f.ids, id)
		v = len(f.ids)
		f.vars[id] = v
	}
	return v
}

// Len returns the number of clauses.
func (f *Formula) Len() int { return len(f.Clauses) }

// Lits returns clause i over the formula's variables: +v for each Pos
// tuple, −v for each Neg tuple, in the clause's order. The slice is shared;
// do not modify it.
func (f *Formula) Lits(i int) []int { return f.lits[f.start[i]:f.start[i+1]:f.start[i+1]] }

// Var returns the variable numbering id, or 0 when no clause mentions it.
func (f *Formula) Var(id engine.TupleID) int { return f.vars[id] }

// TupleIDs returns every distinct tuple ID mentioned in the formula
// (positively or negatively), in first-occurrence order: variable v is
// TupleIDs()[v-1]. The slice is shared; do not modify it.
func (f *Formula) TupleIDs() []engine.TupleID { return f.ids }
