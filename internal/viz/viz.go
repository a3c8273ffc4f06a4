// Package viz renders repair artifacts as Graphviz DOT: the layered
// provenance graph of §5.2 (the paper's Figure 5), explanation trees, and
// a semantics-comparison diagram. The output is plain DOT text; render it
// with `dot -Tsvg` or any graphviz viewer.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/provenance"
)

// escape quotes a DOT label.
func escape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}

// ProvenanceDOT renders the provenance graph in the paper's Figure 5
// layout: base tuples as boxes annotated with their benefits, delta tuples
// as ellipses ranked by derivation layer, and an edge from every
// participating tuple to each delta tuple it helps derive (solid for
// positive participation, dashed for delta dependencies).
//
// The graph identifies tuples by interned ID; name resolves an ID to its
// display label (typically Database.LookupID + Tuple.Key). A nil name
// renders bare "t<id>" labels.
func ProvenanceDOT(g *provenance.Graph, name func(engine.TupleID) string) string {
	if name == nil {
		name = func(id engine.TupleID) string { return fmt.Sprintf("t%d", id) }
	}
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	b.WriteString("  rankdir=BT;\n  node [fontsize=10];\n")

	f := g.Formula
	benefits := g.Benefits()

	// Delta nodes grouped per layer with rank=same.
	for layer := 1; layer <= g.NumLayers; layer++ {
		heads := g.LayerHeads(layer)
		if len(heads) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  { rank=same; // layer %d\n", layer)
		for _, h := range heads {
			n := name(h)
			fmt.Fprintf(&b, "    \"d:%s\" [label=\"Δ(%s)\", shape=ellipse];\n", escape(n), escape(n))
		}
		b.WriteString("  }\n")
	}

	// Base tuple nodes: every tuple mentioned in any clause.
	baseSeen := make(map[engine.TupleID]bool)
	var baseOrder []string
	benefitOf := make(map[string]int)
	for _, h := range g.Heads {
		for _, ci := range g.Assignments[h] {
			pos, _ := f.Body(int(ci))
			for _, id := range pos {
				if !baseSeen[id] {
					baseSeen[id] = true
					n := name(id)
					baseOrder = append(baseOrder, n)
					benefitOf[n] = benefits[f.Var(id)]
				}
			}
		}
	}
	sort.Strings(baseOrder)
	for _, n := range baseOrder {
		fmt.Fprintf(&b, "  \"t:%s\" [label=\"%s, %d\", shape=box];\n", escape(n), escape(n), benefitOf[n])
	}

	// Edges: per assignment, positive tuples (solid) and delta deps
	// (dashed) point to the derived delta node.
	edgeSeen := make(map[string]bool)
	edge := func(from, to, style string) {
		key := from + "→" + to + style
		if edgeSeen[key] {
			return
		}
		edgeSeen[key] = true
		fmt.Fprintf(&b, "  %s -> %s [style=%s];\n", from, to, style)
	}
	for _, h := range g.Heads {
		target := fmt.Sprintf("\"d:%s\"", escape(name(h)))
		for _, ci := range g.Assignments[h] {
			pos, neg := f.Body(int(ci))
			for _, id := range pos {
				edge(fmt.Sprintf("\"t:%s\"", escape(name(id))), target, "solid")
			}
			for _, id := range neg {
				edge(fmt.Sprintf("\"d:%s\"", escape(name(id))), target, "dashed")
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ExplanationDOT renders one explanation tree: each deleted tuple is a
// node; "after" dependencies are edges toward the initiating deletion.
func ExplanationDOT(e *core.Explanation) string {
	var b strings.Builder
	b.WriteString("digraph explanation {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n")
	seen := make(map[string]bool)
	var walk func(x *core.Explanation)
	walk = func(x *core.Explanation) {
		id := fmt.Sprintf("\"%s\"", escape(x.Tuple))
		if !seen[x.Tuple] {
			seen[x.Tuple] = true
			label := fmt.Sprintf("%s\\nlayer %d", escape(x.Tuple), x.Layer)
			if len(x.Because) > 0 {
				label += "\\nwith " + escape(strings.Join(x.Because, ", "))
			}
			fmt.Fprintf(&b, "  %s [label=\"%s\"];\n", id, label)
		}
		for _, dep := range x.After {
			fmt.Fprintf(&b, "  %s -> \"%s\";\n", id, escape(dep.Tuple))
			walk(dep)
		}
	}
	walk(e)
	b.WriteString("}\n")
	return b.String()
}
