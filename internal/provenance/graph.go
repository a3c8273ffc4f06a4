package provenance

import (
	"slices"

	"repro/internal/engine"
)

// Graph is the provenance graph of §5.2: for every derived delta tuple ∆(t)
// it lists all assignments deriving it (as clause indexes into Formula),
// and the layer at which ∆(t) is first derived (the round of the
// End-semantics evaluation; cf. Figure 5 of the paper). Algorithm 2
// traverses the graph layer by layer, choosing tuples by benefit. Tuples
// are identified by their interned engine.TupleID throughout. The one way
// to build a Graph is Formula.EndGraph.
type Graph struct {
	// Formula is the formula the graph was read off; decode a clause's
	// tuples through it (Formula.Lits, Formula.Body).
	Formula *Formula
	// Heads lists derived delta tuple IDs in first-derivation order.
	Heads []engine.TupleID
	// Assignments maps each head to its deriving clauses, in firing order.
	Assignments map[engine.TupleID][]int32
	// Layer maps each head to its 1-based first-derivation layer.
	Layer map[engine.TupleID]int
	// NumLayers is the maximum layer.
	NumLayers int
}

// EndGraph is the end-semantics graph read off the formula (why it is, is
// the lemma on core's Derivation.closureArtefact): starting from the seeded
// (pre-deleted) tuples at layer 0, a clause fires at 1 + the largest layer
// among its Neg tuples, and its head joins E then. The graph holds exactly
// the fired clauses: heads layer by layer, within a layer in clause order,
// each head's clauses in firing order. A seed can be a head; it is in E
// from layer 0 regardless. One pass: each clause counts its Neg tuples
// outside E, and a tuple joining E counts down the clauses of its Neg
// occurrence list.
func (f *Formula) EndGraph(seeded map[engine.TupleID]bool) *Graph {
	g := &Graph{Formula: f, Layer: make(map[engine.TupleID]int)}
	occ := f.Occurrences()
	inE := make([]bool, len(f.ids)+1) // by variable
	for id := range seeded {
		inE[f.vars[id]] = true
	}
	missing := make([]int32, f.Len())
	for v := 1; v <= len(f.ids); v++ {
		if _, neg := occ.Of(int32(v)); !inE[v] {
			for _, ci := range neg {
				missing[ci]++
			}
		}
	}
	var ready []int32
	for ci, m := range missing {
		if m == 0 {
			ready = append(ready, int32(ci))
		}
	}
	var fired []int32 // clauses in firing order
	var entered []int
	for layer := 1; len(ready) > 0; layer++ {
		entered = entered[:0]
		for _, ci := range ready {
			h := f.Heads[ci]
			if _, known := g.Layer[h]; !known {
				g.Heads = append(g.Heads, h)
				g.Layer[h], g.NumLayers = layer, layer
			}
			fired = append(fired, ci)
			if v := f.vars[h]; v != 0 && !inE[v] {
				inE[v] = true
				entered = append(entered, v)
			}
		}
		ready = ready[:0]
		for _, v := range entered {
			_, neg := occ.Of(int32(v))
			for _, ci := range neg {
				if missing[ci]--; missing[ci] == 0 {
					ready = append(ready, ci)
				}
			}
		}
		slices.Sort(ready)
	}
	// Each head's clauses, in firing order, are one run of a shared slice:
	// an empty slice with its run's capacity, appended to.
	count := make(map[engine.TupleID]int, len(g.Heads))
	for _, ci := range fired {
		count[f.Heads[ci]]++
	}
	runs := make([]int32, 0, len(fired))
	g.Assignments = make(map[engine.TupleID][]int32, len(g.Heads))
	for _, h := range g.Heads {
		n := len(runs)
		g.Assignments[h] = runs[n : n : n+count[h]]
		runs = runs[:n+count[h]]
	}
	for _, ci := range fired {
		g.Assignments[f.Heads[ci]] = append(g.Assignments[f.Heads[ci]], ci)
	}
	return g
}

// LayerHeads returns the heads first derived at the given layer, in
// derivation order.
func (g *Graph) LayerHeads(layer int) []engine.TupleID {
	var out []engine.TupleID
	for _, h := range g.Heads {
		if g.Layer[h] == layer {
			out = append(out, h)
		}
	}
	return out
}

// Benefits computes the benefit b_t of every tuple t mentioned in the
// graph, by variable (b[Formula.Var(t)]): the number of assignments t
// participates in (positively) minus the number of assignments ∆(t)
// participates in (as a delta dependency). This is exactly the greedy
// score of Algorithm 2 — deleting a high-benefit tuple voids many
// derivations while enabling few.
func (g *Graph) Benefits() []int {
	b := make([]int, len(g.Formula.ids)+1)
	for _, cs := range g.Assignments {
		for _, ci := range cs {
			for _, l := range g.Formula.Lits(int(ci)) {
				if l > 0 {
					b[l]++
				} else {
					b[-l]--
				}
			}
		}
	}
	return b
}
