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
// the lemma on core's Derivation.closureArtefact): the layered pass
// (layers) with bases at D⁰, so a Pos tuple never blocks a clause. The
// graph holds exactly the fired clauses: heads layer by layer, within a
// layer in clause order, each head's clauses in firing order. A seed can
// be a head; it is in E from layer 0 regardless.
func (f *Formula) EndGraph(seeded map[engine.TupleID]bool) *Graph {
	g := &Graph{Formula: f, Layer: make(map[engine.TupleID]int)}
	var fired []int32 // clauses in firing order
	f.layers(seeded, false, func(layer int, ci int32, _ bool) {
		h := f.Heads[ci]
		if _, known := g.Layer[h]; !known {
			g.Heads = append(g.Heads, h)
			g.Layer[h], g.NumLayers = layer, layer
		}
		fired = append(fired, ci)
	})
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

// Stage is the stage fixpoint (Def. 3.7) read off the formula (why it is,
// is the lemma on core's Derivation.runStage): the layered pass with a
// shrinking base. It returns the tuples deleted after the seeds, stage by
// stage and within a stage in clause order, and the number of stages.
func (f *Formula) Stage(seeded map[engine.TupleID]bool) (heads []engine.TupleID, stages int) {
	f.layers(seeded, true, func(layer int, ci int32, joined bool) {
		if joined {
			heads = append(heads, f.Heads[ci])
			stages = layer
		}
	})
	return heads, stages
}

// layers is the one counter pass under EndGraph and Stage. The seeds are
// deleted at layer 0; a clause fires at layer k once all its Neg tuples
// were deleted before k (it counts those not yet deleted, and a deletion
// counts down its Neg occurrences), in clause order, and the layer's heads
// are deleted together after it. Under stage a deletion also voids its Pos
// occurrences, which then never fire. fire sees each fired clause, its
// layer and whether its head was deleted there.
func (f *Formula) layers(seeded map[engine.TupleID]bool, stage bool, fire func(layer int, ci int32, joined bool)) {
	occ := f.Occurrences()
	deleted := make([]bool, len(f.ids)+1) // by variable
	void := make([]bool, f.Len())         // by clause; set under stage only
	missing := make([]int32, f.Len())
	var ready []int32
	for ci := range missing {
		for _, l := range f.Lits(ci) {
			if l < 0 {
				missing[ci]++
			}
		}
		if missing[ci] == 0 {
			ready = append(ready, int32(ci))
		}
	}
	var joined []int // the previous layer's deletions, by variable
	for id := range seeded {
		if v := f.vars[id]; v != 0 {
			deleted[v] = true
			joined = append(joined, v)
		}
	}
	unnumbered := make(map[engine.TupleID]bool) // deleted heads no clause mentions
	for layer := 1; ; layer++ {
		for _, v := range joined {
			pos, neg := occ.Of(int32(v))
			if stage {
				for _, ci := range pos {
					void[ci] = true
				}
			}
			for _, ci := range neg {
				if missing[ci]--; missing[ci] == 0 {
					ready = append(ready, ci)
				}
			}
		}
		if len(ready) == 0 {
			return
		}
		slices.Sort(ready)
		joined = joined[:0]
		for _, ci := range ready {
			if void[ci] {
				continue
			}
			h := f.Heads[ci]
			var j bool
			if v := f.vars[h]; v != 0 {
				if j = !deleted[v]; j {
					deleted[v] = true
					joined = append(joined, v)
				}
			} else if j = !seeded[h] && !unnumbered[h]; j {
				unnumbered[h] = true
			}
			fire(layer, ci, j)
		}
		ready = ready[:0]
	}
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
