package datalog

import (
	"fmt"
	"sync"

	"repro/internal/engine"
)

// Validate checks the program against Def. 3.1 and the usual datalog safety
// conditions, records each rule's SelfIdx, and detects recursion in the
// delta-dependency graph. When schema is non-nil, relation names and arities
// are checked against it.
//
// The conditions per rule are:
//   - the head is a ∆-atom;
//   - the body contains a non-∆ atom R_i(X) with exactly the head's term
//     vector (so rules only delete existing facts);
//   - every variable used in a comparison appears in some body atom
//     (safety: comparisons alone cannot bind variables).
func (p *Program) Validate(schema *engine.Schema) error {
	for i, r := range p.Rules {
		if err := r.validate(schema); err != nil {
			return fmt.Errorf("rule %d (%s): %w", i, ruleName(r), err)
		}
	}
	p.Recursive = p.detectRecursion()
	return nil
}

func ruleName(r *Rule) string {
	if r.Label != "" {
		return "(" + r.Label + ")"
	}
	return r.Head.String()
}

func (r *Rule) validate(schema *engine.Schema) error {
	if !r.Head.Delta {
		return fmt.Errorf("head %s must be a delta atom", r.Head)
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("body must be non-empty")
	}
	// Def 3.1: find the self atom R_i(X).
	r.SelfIdx = -1
	for i, a := range r.Body {
		if !a.Delta && a.Rel == r.Head.Rel && a.SameTerms(r.Head) {
			r.SelfIdx = i
			break
		}
	}
	if r.SelfIdx < 0 {
		return fmt.Errorf("body must contain the base atom %s matching the head (Def. 3.1)",
			Atom{Rel: r.Head.Rel, Terms: r.Head.Terms})
	}
	// Schema checks.
	if schema != nil {
		check := func(a Atom) error {
			rs := schema.Relation(a.Rel)
			if rs == nil {
				return fmt.Errorf("atom %s: unknown relation %q", a, a.Rel)
			}
			if len(a.Terms) != rs.Arity() {
				return fmt.Errorf("atom %s: arity %d, schema says %d", a, len(a.Terms), rs.Arity())
			}
			return nil
		}
		if err := check(r.Head); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	// Safety: comparison variables must be bound by body atoms.
	bound := make(map[string]bool)
	for _, a := range r.Body {
		for _, t := range a.Terms {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	for _, c := range r.Comps {
		for _, t := range []Term{c.Left, c.Right} {
			if t.IsVar() && !bound[t.Var] {
				return fmt.Errorf("comparison %s: variable %s not bound by any body atom", c, t.Var)
			}
		}
	}
	// Invalidate any cached plan built before validation.
	r.compiled = nil
	r.compileOnce = sync.Once{}
	return nil
}

// detectRecursion builds the delta-dependency graph (edge ∆_b → ∆_h when a
// rule with head ∆_h has ∆_b in its body) and reports whether it is cyclic.
func (p *Program) detectRecursion() bool {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for _, r := range p.Rules {
		nodes[r.Head.Rel] = true
		for _, a := range r.Body {
			if a.Delta {
				nodes[a.Rel] = true
				adj[a.Rel] = append(adj[a.Rel], r.Head.Rel)
			}
		}
	}
	// Kahn's algorithm: if we cannot consume every node, there is a cycle.
	indeg := make(map[string]int, len(nodes))
	for n := range nodes {
		indeg[n] = 0
	}
	for _, outs := range adj {
		for _, h := range outs {
			indeg[h]++
		}
	}
	var queue []string
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	consumed := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		consumed++
		for _, h := range adj[n] {
			indeg[h]--
			if indeg[h] == 0 {
				queue = append(queue, h)
			}
		}
	}
	return consumed < len(nodes)
}
