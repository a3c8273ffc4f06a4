package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/provenance"
)

// The paper's introduction motivates the framework with users "left
// uncertain about why the tuples have been deleted" by trigger systems.
// This file provides that answer: derivation-tree explanations for deleted
// tuples, extracted from the provenance graph of the end-semantics run
// (§5's provenance machinery, repurposed for reporting).

// Explanation is one derivation of a deleted tuple: the rule-shaped clause
// that justified its deletion, with delta dependencies resolved
// recursively up to the initiating deletions.
type Explanation struct {
	// Tuple is the deleted tuple's content key.
	Tuple string
	// Layer is the derivation layer (1 = initiating deletions).
	Layer int
	// Because lists the base tuples whose presence enabled the deletion
	// (excluding the tuple itself).
	Because []string
	// After lists the deletions this one depended on (delta body atoms),
	// each with its own explanation.
	After []*Explanation
}

// String renders the explanation as an indented tree.
func (e *Explanation) String() string {
	var b strings.Builder
	e.render(&b, 0)
	return b.String()
}

func (e *Explanation) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s deleted (layer %d)", indent, e.Tuple, e.Layer)
	if len(e.Because) > 0 {
		fmt.Fprintf(b, " with %s present", strings.Join(e.Because, ", "))
	}
	b.WriteByte('\n')
	for _, dep := range e.After {
		fmt.Fprintf(b, "%s  after:\n", indent)
		dep.render(b, depth+2)
	}
}

// Explainer answers "why was this tuple deleted" for a database/program
// pair, using the end-semantics provenance graph. Explanations exist for
// every tuple deletable under end semantics — a superset of every
// semantics' result (Prop. 3.20), so results from any executor can be
// explained.
//
// The provenance graph is keyed by interned tuple IDs; the Explainer keeps
// the database to resolve IDs back to readable content keys when building
// Explanation trees (the one place this reverse mapping is needed).
type Explainer struct {
	graph *provenance.Graph
	db    *engine.Database
}

// NewExplainer captures provenance for the database and program. The
// database is not modified; it is retained (read-only) to render tuple IDs
// as content keys.
func NewExplainer(db *engine.Database, p *datalog.Program) (*Explainer, error) {
	graph, err := CaptureProvenance(db, p)
	if err != nil {
		return nil, err
	}
	return &Explainer{graph: graph, db: db}, nil
}

// CaptureProvenance returns the layered provenance graph of the
// end-semantics derivation (§5.2, Figure 5 of the paper) without applying
// any deletions: read off Algorithm 1's closure formula, under
// DefaultMaxClauses. The graph underlies Algorithm 2, the Explainer, and
// the DOT visualization.
func CaptureProvenance(db *engine.Database, p *datalog.Program) (*provenance.Graph, error) {
	d, err := derivationFor(db, p, nil)
	if err != nil {
		return nil, err
	}
	prov, _, _, err := d.closureArtefact(nil, DefaultMaxClauses)
	if err != nil {
		return nil, err
	}
	return prov.graph, nil
}

// Explainable reports whether the tuple with the given content key has at
// least one derivation.
func (ex *Explainer) Explainable(key string) bool {
	t := ex.db.Lookup(key)
	return t != nil && len(ex.graph.Assignments[t.TID]) > 0
}

// Explain returns the first (earliest-layer) derivation of the tuple with
// the given content key, with delta dependencies expanded recursively; nil
// if the tuple is not derivable. Shared dependencies are expanded once per
// path; cycles cannot occur because dependencies strictly decrease in layer.
func (ex *Explainer) Explain(key string) *Explanation {
	t := ex.db.Lookup(key)
	if t == nil {
		return nil
	}
	return ex.ExplainTuple(t)
}

// ExplainTuple is Explain addressed by tuple.
func (ex *Explainer) ExplainTuple(t *engine.Tuple) *Explanation {
	return ex.explain(t.TID, make(map[engine.TupleID]bool))
}

func (ex *Explainer) explain(id engine.TupleID, onPath map[engine.TupleID]bool) *Explanation {
	clauses := ex.graph.Assignments[id]
	if len(clauses) == 0 || onPath[id] {
		return nil
	}
	onPath[id] = true
	defer delete(onPath, id)

	// Choose the clause whose delta dependencies sit in the earliest
	// layers (the most "direct" derivation), deterministically.
	best := -1
	bestScore := 1 << 30
	for i, c := range clauses {
		score := 0
		ok := true
		for _, dep := range c.Neg {
			l, known := ex.graph.Layer[dep]
			if !known || onPath[dep] {
				ok = false
				break
			}
			score += l
		}
		if ok && score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return nil
	}
	c := clauses[best]
	e := &Explanation{Tuple: ex.db.DisplayKey(id), Layer: ex.graph.Layer[id]}
	for _, pos := range c.Pos {
		if pos != id {
			e.Because = append(e.Because, ex.db.DisplayKey(pos))
		}
	}
	sort.Strings(e.Because)
	deps := make([]string, 0, len(c.Neg))
	depOf := make(map[string]engine.TupleID, len(c.Neg))
	for _, dep := range c.Neg {
		k := ex.db.DisplayKey(dep)
		deps = append(deps, k)
		depOf[k] = dep
	}
	sort.Strings(deps)
	for _, k := range deps {
		if sub := ex.explain(depOf[k], onPath); sub != nil {
			e.After = append(e.After, sub)
		}
	}
	return e
}

// ExplainResult explains every tuple of a result, in the result's order.
// Tuples without derivations (possible for independent semantics, which
// may delete underivable tuples) yield entries with a nil Explanation.
type ResultExplanation struct {
	Tuple       *engine.Tuple
	Explanation *Explanation // nil when the deletion has no derivation
}

// ExplainResult builds explanations for all tuples in the result.
func (ex *Explainer) ExplainResult(res *Result) []ResultExplanation {
	out := make([]ResultExplanation, 0, res.Size())
	for _, t := range res.Deleted {
		out = append(out, ResultExplanation{Tuple: t, Explanation: ex.ExplainTuple(t)})
	}
	return out
}
