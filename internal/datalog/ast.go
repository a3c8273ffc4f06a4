// Package datalog implements the paper's delta-rule language (§3.1): a
// non-recursive-equivalent datalog dialect in which every intensional
// relation is a delta relation ∆_i recording deletions from the base
// relation R_i.
//
// A delta rule has the form
//
//	∆_i(X) :- R_i(X), Q_1(Y_1), ..., Q_l(Y_l), comparisons...
//
// where each Q_j is a base or delta relation (Def. 3.1). The package
// provides the AST, a text parser for the concrete syntax used throughout
// this repository ("Delta_Author(a, n) :- Author(a, n), Delta_Grant(g, gn),
// n = 'ERC'."), validation, and assignment enumeration (the join machinery
// every semantics in internal/core is built on).
package datalog

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Term is a variable or a constant appearing in an atom or comparison.
type Term struct {
	// Var is the variable name; empty when the term is a constant.
	Var string
	// Const holds the constant value when Var is empty.
	Const engine.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v engine.Value) Term { return Term{Const: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term: variables bare, constants via Value.String.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return t.Const.String()
}

// Atom is a (possibly delta) relational atom: Rel(t1, ..., tk).
type Atom struct {
	// Delta marks ∆-atoms: the atom ranges over deleted tuples.
	Delta bool
	// Rel is the base relation name (even for delta atoms; ∆_i shares R_i's
	// name and schema).
	Rel string
	// Terms are the atom's arguments.
	Terms []Term
}

// String renders the atom, prefixing delta atoms with "Delta_".
func (a Atom) String() string {
	var b strings.Builder
	if a.Delta {
		b.WriteString("Delta_")
	}
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// SameTerms reports whether two atoms have identical term lists.
func (a Atom) SameTerms(o Atom) bool {
	if len(a.Terms) != len(o.Terms) {
		return false
	}
	for i := range a.Terms {
		x, y := a.Terms[i], o.Terms[i]
		if x.IsVar() != y.IsVar() {
			return false
		}
		if x.IsVar() {
			if x.Var != y.Var {
				return false
			}
		} else if !x.Const.Equal(y.Const) || x.Const.Kind != y.Const.Kind {
			return false
		}
	}
	return true
}

// CompOp enumerates comparison operators usable in rule bodies; the paper
// allows ◦ ∈ {<, >, =, ≠, ≤, ≥} (§3.6).
type CompOp uint8

// Comparison operators.
const (
	OpEQ CompOp = iota
	OpNEQ
	OpLT
	OpLEQ
	OpGT
	OpGEQ
)

// String renders the operator in the concrete syntax.
func (op CompOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNEQ:
		return "!="
	case OpLT:
		return "<"
	case OpLEQ:
		return "<="
	case OpGT:
		return ">"
	case OpGEQ:
		return ">="
	default:
		return fmt.Sprintf("CompOp(%d)", uint8(op))
	}
}

// Eval applies the operator to two values.
func (op CompOp) Eval(a, b engine.Value) bool {
	switch op {
	case OpEQ:
		return a.Equal(b)
	case OpNEQ:
		return !a.Equal(b)
	case OpLT:
		return a.Compare(b) < 0
	case OpLEQ:
		return a.Compare(b) <= 0
	case OpGT:
		return a.Compare(b) > 0
	case OpGEQ:
		return a.Compare(b) >= 0
	default:
		return false
	}
}

// Comparison is a built-in predicate "left op right" in a rule body.
type Comparison struct {
	Left  Term
	Op    CompOp
	Right Term
}

// String renders "left op right".
func (c Comparison) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// Rule is a single delta rule.
type Rule struct {
	// Label is an optional identifier, e.g. "0" for the paper's rule (0).
	Label string
	// Head is the ∆-atom derived by the rule.
	Head Atom
	// Body holds the relational atoms (base and delta).
	Body []Atom
	// Comps holds the comparison predicates.
	Comps []Comparison

	// SelfIdx is the index in Body of the mandatory R_i(X) atom matching
	// the head (Def. 3.1). Set by Validate; -1 until then.
	SelfIdx int

	compileOnce sync.Once     // guards compiled for concurrent evaluation
	compiled    *compiledRule // lazily built evaluation plan input
}

// NewRule builds a rule with SelfIdx unset.
func NewRule(label string, head Atom, body []Atom, comps ...Comparison) *Rule {
	return &Rule{Label: label, Head: head, Body: body, Comps: comps, SelfIdx: -1}
}

// String renders the rule in concrete syntax, with its label if present.
func (r *Rule) String() string {
	var b strings.Builder
	if r.Label != "" {
		fmt.Fprintf(&b, "(%s) ", r.Label)
	}
	b.WriteString(r.Head.String())
	b.WriteString(" :- ")
	parts := make([]string, 0, len(r.Body)+len(r.Comps))
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, c := range r.Comps {
		parts = append(parts, c.String())
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteByte('.')
	return b.String()
}

// Program is an ordered set of delta rules.
type Program struct {
	Rules []*Rule

	// Recursive is set by Validate when the delta-dependency graph is
	// cyclic. The paper restricts attention to bounded (non-inherently-
	// recursive) programs; evaluation still terminates either way because
	// delta relations grow monotonically and are bounded by base content.
	Recursive bool
}

// NewProgram builds a program from rules.
func NewProgram(rules ...*Rule) *Program {
	return &Program{Rules: rules}
}

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// DeltaRelations returns the distinct relation names whose deltas appear in
// rule heads, in first-occurrence order.
func (p *Program) DeltaRelations() []string {
	var out []string
	seen := make(map[string]bool)
	for _, r := range p.Rules {
		if !seen[r.Head.Rel] {
			seen[r.Head.Rel] = true
			out = append(out, r.Head.Rel)
		}
	}
	return out
}
