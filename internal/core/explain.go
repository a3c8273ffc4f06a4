package core

import (
	"fmt"
	"slices"
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
	// Layer is the derivation layer (1 = initiating deletions, 0 = deleted
	// before the repair, the §3.6 initialization: a leaf).
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
	if e.Layer == 0 {
		fmt.Fprintf(b, "%s%s deleted before the repair\n", indent, e.Tuple)
		return
	}
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
	// Graph is the layered provenance graph of the end-semantics
	// derivation (§5.2, Figure 5 of the paper), read off Algorithm 1's
	// closure formula under DefaultMaxClauses. It underlies Algorithm 2,
	// the explanations, and the DOT visualization.
	Graph *provenance.Graph
	db    *engine.Database
}

// NewExplainer captures provenance for the database and program without
// applying any deletions. The database is not modified; it is retained
// (read-only) to render tuple IDs as content keys.
func NewExplainer(db *engine.Database, p *datalog.Program) (*Explainer, error) {
	d, err := derivationFor(db, p, nil)
	if err != nil {
		return nil, err
	}
	prov, _, err := d.closureArtefact(nil, DefaultMaxClauses)
	if err != nil {
		return nil, err
	}
	graph, err := d.endGraph(nil, prov)
	if err != nil {
		return nil, err
	}
	return &Explainer{Graph: graph, db: db}, nil
}

// Explain returns the first derivation of the tuple with the given content
// key — the clause that derived it in its layer — with delta dependencies
// expanded recursively; nil if the tuple is not derivable. Every dependency
// of a first derivation sits in an earlier layer, down to the initiating
// deletions and the tuples deleted before the repair (layer 0, leaves), so
// the expansion ends. Shared dependencies are expanded once per path.
func (ex *Explainer) Explain(key string) *Explanation {
	t := ex.db.Lookup(key)
	if t == nil {
		return nil
	}
	return ex.ExplainTuple(t)
}

// ExplainTuple is Explain addressed by tuple.
func (ex *Explainer) ExplainTuple(t *engine.Tuple) *Explanation {
	return ex.explain(t.TID)
}

func (ex *Explainer) explain(id engine.TupleID) *Explanation {
	clauses := ex.Graph.Assignments[id]
	if len(clauses) == 0 {
		return nil
	}
	pos, neg := ex.Graph.Formula.Body(int(clauses[0]))
	e := &Explanation{Tuple: ex.db.DisplayKey(id), Layer: ex.Graph.Layer[id]}
	for _, p := range pos {
		if p != id {
			e.Because = append(e.Because, ex.db.DisplayKey(p))
		}
	}
	slices.Sort(e.Because)
	slices.SortFunc(neg, func(a, b engine.TupleID) int {
		return strings.Compare(ex.db.DisplayKey(a), ex.db.DisplayKey(b))
	})
	for _, dep := range neg {
		// A dependency is in E: a head, or deleted before the repair.
		sub := ex.explain(dep)
		if sub == nil {
			sub = &Explanation{Tuple: ex.db.DisplayKey(dep)}
		}
		e.After = append(e.After, sub)
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
