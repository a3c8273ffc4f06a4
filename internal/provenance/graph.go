package provenance

import (
	"slices"

	"repro/internal/engine"
)

// Graph is the provenance graph of §5.2: for every derived delta tuple ∆(t)
// it stores all assignments deriving it (as clauses), and the layer at
// which ∆(t) is first derived (the round of the End-semantics evaluation;
// cf. Figure 5 of the paper). Algorithm 2 traverses the graph layer by
// layer, choosing tuples by benefit. Tuples are identified by their
// interned engine.TupleID throughout. The one way to build a Graph is
// Formula.EndGraph.
type Graph struct {
	// Heads lists derived delta tuple IDs in first-derivation order.
	Heads []engine.TupleID
	// Assignments maps each head to its deduplicated deriving clauses.
	Assignments map[engine.TupleID][]Clause
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
// outside E, and a tuple joining E counts down the clauses it is a Neg of.
func (f *Formula) EndGraph(seeded map[engine.TupleID]bool) *Graph {
	g := &Graph{Assignments: make(map[engine.TupleID][]Clause), Layer: make(map[engine.TupleID]int)}
	inE := make([]bool, len(f.ids)+1) // by variable; 0 stands for unmentioned tuples
	for id := range seeded {
		inE[f.vars[id]] = true
	}
	missing := make([]int, len(f.Clauses))
	negOf := make([][]int, len(f.ids)+1)
	var ready []int
	for i, c := range f.Clauses {
		lits := f.Lits(i)
		if f.body[i] < 0 { // a tautological body has no CNF clause: number its Neg tuples here
			for _, id := range c.Neg {
				lits = append(lits, -int32(f.vars[id]))
			}
		}
		for _, l := range lits {
			if l < 0 && !inE[-l] {
				missing[i]++
				negOf[-l] = append(negOf[-l], i)
			}
		}
		if missing[i] == 0 {
			ready = append(ready, i)
		}
	}
	var entered []int
	for layer := 1; len(ready) > 0; layer++ {
		entered = entered[:0]
		for _, ci := range ready {
			h := f.Heads[ci]
			if _, known := g.Layer[h]; !known {
				g.Heads = append(g.Heads, h)
				g.Layer[h], g.NumLayers = layer, layer
			}
			g.Assignments[h] = append(g.Assignments[h], f.Clauses[ci])
			if v := f.vars[h]; !inE[v] {
				inE[v] = true
				entered = append(entered, v)
			}
		}
		ready = ready[:0]
		for _, v := range entered {
			for _, ci := range negOf[v] {
				if missing[ci]--; missing[ci] == 0 {
					ready = append(ready, ci)
				}
			}
		}
		slices.Sort(ready)
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

// Benefits computes the benefit b_t of every base tuple t mentioned in the
// graph: the number of assignments t participates in (positively) minus the
// number of assignments ∆(t) participates in (as a delta dependency). This
// is exactly the greedy score of Algorithm 2 — deleting a high-benefit
// tuple voids many derivations while enabling few.
func (g *Graph) Benefits() map[engine.TupleID]int {
	b := make(map[engine.TupleID]int)
	for _, cs := range g.Assignments {
		for _, c := range cs {
			for _, id := range c.Pos {
				b[id]++
			}
			for _, id := range c.Neg {
				b[id]--
			}
		}
	}
	return b
}
