package provenance

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// FuzzFormula checks the flat store against a map-based reference. The
// input is a seed mask, then a sequence of adds over tuple IDs 1–6: a head
// byte, a length byte and that many literal bytes (ID, and a delta bit),
// so bodies repeat tuples, repeat whole clauses and hold tautologies. The
// reference keeps every clause as two sets: Add's dedup on (head, body),
// each clause's decoding, the occurrence index, EndGraph's heads, layers
// and per-head clause lists, and Stage's heads and stage count — with and
// without the seeds — must match it, the graph and the stages against
// naive layered loops.
func FuzzFormula(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 2, 9, 1, 2, 3, 1, 3, 3, 2, 2, 4, 4, 3, 8, 1, 9})
	f.Add([]byte{2, 3, 2, 5, 8, 2, 2, 12, 3, 3, 4, 7, 6, 3, 2, 4, 5, 1, 2, 1, 8})
	f.Add([]byte{5, 1, 0, 2, 1, 3, 3, 2, 6, 3, 4, 1, 8, 9, 2, 0, 5, 4, 3, 5, 7, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seeded := make(map[engine.TupleID]bool)
		for id := engine.TupleID(1); id <= 6; id++ {
			if data[0]&(1<<id) != 0 {
				seeded[id] = true
			}
		}
		type refClause struct {
			head     engine.TupleID
			pos, neg map[engine.TupleID]bool
		}
		var ref []refClause
		seen := make(map[string]bool)
		fm := NewFormula()
		for rest := data[1:]; len(rest) >= 2; {
			head, n := engine.TupleID(rest[0]%6+1), int(rest[1]%6)
			rest = rest[2:]
			n = min(n, len(rest))
			asn := &datalog.Assignment{Rule: &datalog.Rule{}}
			c := refClause{head: head, pos: make(map[engine.TupleID]bool), neg: make(map[engine.TupleID]bool)}
			for _, b := range rest[:n] {
				id, delta := engine.TupleID(b%6+1), b&8 != 0
				asn.Rule.Body = append(asn.Rule.Body, datalog.Atom{Delta: delta})
				asn.Tuples = append(asn.Tuples, &engine.Tuple{TID: id})
				if delta {
					c.neg[id] = true
				} else {
					c.pos[id] = true
				}
			}
			rest = rest[n:]
			key := fmt.Sprint(head, slices.Sorted(maps.Keys(c.pos)), slices.Sorted(maps.Keys(c.neg)))
			if added := fm.Add(head, asn); added == seen[key] {
				t.Fatalf("Add(%s) reported new=%v, reference says seen=%v", key, added, seen[key])
			}
			if !seen[key] {
				seen[key] = true
				ref = append(ref, c)
			}
		}
		if fm.Len() != len(ref) {
			t.Fatalf("Len = %d, reference %d", fm.Len(), len(ref))
		}
		occ := fm.Occurrences()
		wantPos := make(map[int][]int32)
		wantNeg := make(map[int][]int32)
		for i, c := range ref {
			pos, neg := fm.Body(i)
			if fm.Heads[i] != c.head || !sameSet(pos, c.pos) || !sameSet(neg, c.neg) {
				t.Fatalf("clause %d decodes to t%d: %v ∧ ¬%v, reference t%d: %v ∧ ¬%v",
					i, fm.Heads[i], pos, neg, c.head, slices.Sorted(maps.Keys(c.pos)), slices.Sorted(maps.Keys(c.neg)))
			}
			for _, id := range pos {
				wantPos[fm.Var(id)] = append(wantPos[fm.Var(id)], int32(i))
			}
			for _, id := range neg {
				wantNeg[fm.Var(id)] = append(wantNeg[fm.Var(id)], int32(i))
			}
		}
		for v := 1; v <= len(fm.TupleIDs()); v++ {
			if pos, neg := occ.Of(int32(v)); !slices.Equal(pos, wantPos[v]) || !slices.Equal(neg, wantNeg[v]) {
				t.Fatalf("occurrences of variable %d: %v / %v, want %v / %v", v, pos, neg, wantPos[v], wantNeg[v])
			}
		}

		for _, seeds := range []map[engine.TupleID]bool{nil, seeded} {
			// The naive layered loop: round r fires, in clause order, every
			// clause not fired before whose Neg tuples all lie in E as the
			// round starts; their heads join E after the round.
			inE := maps.Clone(seeds)
			if inE == nil {
				inE = make(map[engine.TupleID]bool)
			}
			fired := make([]bool, len(ref))
			layer := make(map[engine.TupleID]int)
			var heads []engine.TupleID
			assignments := make(map[engine.TupleID][]int32)
			for round := 1; ; round++ {
				var joined []engine.TupleID
				for i, c := range ref {
					if fired[i] || !subset(c.neg, inE) {
						continue
					}
					fired[i] = true
					if _, known := layer[c.head]; !known {
						layer[c.head] = round
						heads = append(heads, c.head)
					}
					assignments[c.head] = append(assignments[c.head], int32(i))
					joined = append(joined, c.head)
				}
				grew := false
				for _, h := range joined {
					if !inE[h] {
						inE[h], grew = true, true
					}
				}
				if !grew {
					break
				}
			}
			g := fm.EndGraph(seeds)
			if !slices.Equal(g.Heads, heads) || !maps.Equal(g.Layer, layer) {
				t.Fatalf("seeds %v: heads %v, layers %v; want %v, %v", seeds, g.Heads, g.Layer, heads, layer)
			}
			if !maps.EqualFunc(g.Assignments, assignments, slices.Equal) {
				t.Fatalf("seeds %v: clauses per head %v, want %v", seeds, g.Assignments, assignments)
			}
			numLayers := 0
			for _, l := range layer {
				numLayers = max(numLayers, l)
			}
			if g.NumLayers != numLayers {
				t.Fatalf("seeds %v: NumLayers = %d, want %d", seeds, g.NumLayers, numLayers)
			}

			// The naive stage loop: round r fires every clause whose Neg
			// tuples all lie in the deleted set as the round starts and whose
			// Pos tuples all lie outside it; their new heads, in clause
			// order, join after the round.
			deleted := maps.Clone(seeds)
			if deleted == nil {
				deleted = make(map[engine.TupleID]bool)
			}
			var stageHeads []engine.TupleID
			stages := 0
			for round := 1; ; round++ {
				var joined []engine.TupleID
				for _, c := range ref {
					if subset(c.neg, deleted) && !intersects(c.pos, deleted) && !deleted[c.head] && !slices.Contains(joined, c.head) {
						joined = append(joined, c.head)
					}
				}
				if len(joined) == 0 {
					break
				}
				for _, h := range joined {
					deleted[h] = true
				}
				stageHeads, stages = append(stageHeads, joined...), round
			}
			if heads, n := fm.Stage(seeds); !slices.Equal(heads, stageHeads) || n != stages {
				t.Fatalf("seeds %v: stage heads %v in %d stages, want %v in %d", seeds, heads, n, stageHeads, stages)
			}
		}
	})
}

// sameSet reports whether ids, which must not repeat, are exactly set.
func sameSet(ids []engine.TupleID, set map[engine.TupleID]bool) bool {
	if len(ids) != len(set) {
		return false
	}
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}

// intersects reports whether a and b share a member.
func intersects(a, b map[engine.TupleID]bool) bool {
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}

// subset reports whether every member of a lies in b.
func subset(a, b map[engine.TupleID]bool) bool {
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}
