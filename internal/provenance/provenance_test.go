package provenance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

func simpleSchema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	s.MustAddRelation("S", "s", "a")
	return s
}

func TestClauseOfSeparatesPosAndNeg(t *testing.T) {
	s := simpleSchema()
	db := engine.NewDatabase(s)
	r1 := db.MustInsert("R", engine.Int(1))
	s1 := db.MustInsert("S", engine.Int(1))
	db.DeleteTupleToDelta(s1)

	p, err := datalog.ParseAndValidate("Delta_R(x) :- R(x), Delta_S(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	var clauses []Clause
	if err := datalog.EvalRuleOnDB(db, p.Rules[0], func(a *datalog.Assignment) bool {
		clauses = append(clauses, ClauseOf(a))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 1 {
		t.Fatalf("clauses = %d, want 1", len(clauses))
	}
	c := clauses[0]
	if len(c.Pos) != 1 || c.Pos[0] != r1.TID {
		t.Fatalf("Pos = %v, want [%d]", c.Pos, r1.TID)
	}
	if len(c.Neg) != 1 || c.Neg[0] != s1.TID {
		t.Fatalf("Neg = %v, want [%d]", c.Neg, s1.TID)
	}
	if !strings.Contains(c.String(), fmt.Sprintf("¬t%d", s1.TID)) {
		t.Fatalf("String = %q missing negation", c.String())
	}
}

func TestClauseOfDeduplicatesRepeatedTuples(t *testing.T) {
	s := simpleSchema()
	db := engine.NewDatabase(s)
	db.MustInsert("R", engine.Int(1))
	// Rule with the same atom twice: R(x), R(x) binds the same tuple.
	p, err := datalog.ParseAndValidate("Delta_R(x) :- R(x), R(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	var c Clause
	datalog.EvalRuleOnDB(db, p.Rules[0], func(a *datalog.Assignment) bool {
		c = ClauseOf(a)
		return false
	})
	if len(c.Pos) != 1 {
		t.Fatalf("Pos = %v, want single deduplicated entry", c.Pos)
	}
}

func TestClauseSigOrderInsensitive(t *testing.T) {
	// Add dedups on the head and the Pos and Neg sets: the order inside a
	// set is ignored, a tuple's sign and the head are not.
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	f := NewFormula()
	a := Clause{Pos: ids(1, 2), Neg: ids(3)}
	f.Add(9, a)
	if f.Add(9, Clause{Pos: ids(2, 1), Neg: ids(3)}) {
		t.Fatal("dedup should ignore Pos order")
	}
	if !f.Add(9, Clause{Pos: ids(1), Neg: ids(2, 3)}) {
		t.Fatal("different clauses must both be kept")
	}
	if !f.Add(9, Clause{Pos: ids(1, 2, 3)}) {
		t.Fatal("sign placement must be part of the dedup key")
	}
	if !f.Add(8, a) {
		t.Fatal("head must be part of the dedup key")
	}
	// A tautological body (tuple 4 both present and deleted) has no CNF
	// clause, and dedups the same way.
	taut := Clause{Pos: ids(1, 4), Neg: ids(4)}
	if !f.Add(9, taut) || f.Add(9, Clause{Pos: ids(4, 1), Neg: ids(4)}) || !f.Add(8, taut) {
		t.Fatal("tautological clauses must dedup on head and body")
	}
	// Six clauses; the CNF holds the three distinct non-tautological bodies.
	if f.Len() != 6 || f.CNF().NumClauses() != 3 || f.Lits(4) != nil {
		t.Fatalf("Len = %d, CNF clauses = %d, Lits(4) = %v; want 6, 3, nil", f.Len(), f.CNF().NumClauses(), f.Lits(4))
	}
	// The end graph still reads it: with tuple 4 seeded, head 8's only
	// firing clause is the tautological one (its other needs tuple 3).
	if g := f.EndGraph(map[engine.TupleID]bool{4: true}); len(g.Assignments[8]) != 1 || len(g.Assignments[8][0].Neg) != 1 {
		t.Fatalf("head 8's end-graph clauses = %v, want the tautological one", g.Assignments[8])
	}
}

func TestFormulaDedupAndTupleIDs(t *testing.T) {
	f := NewFormula()
	c1 := Clause{Pos: []engine.TupleID{1}, Neg: []engine.TupleID{2}}
	if !f.Add(1, c1) {
		t.Fatal("first add should be new")
	}
	if f.Add(1, Clause{Pos: []engine.TupleID{1}, Neg: []engine.TupleID{2}}) {
		t.Fatal("duplicate clause should be dropped")
	}
	if !f.Add(3, c1) {
		t.Fatal("same clause under a different head is distinct")
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	ids := f.TupleIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("TupleIDs = %v", ids)
	}
	// Clauses over the variables numbering TupleIDs, sorted as the CNF
	// stores them: ¬t2 is -2, t1 is 1.
	if lits := f.Lits(1); len(lits) != 2 || lits[0] != -2 || lits[1] != 1 {
		t.Fatalf("Lits(1) = %v, want [-2 1]", lits)
	}
	if f.Var(2) != 2 || f.Var(7) != 0 {
		t.Fatalf("Var(2) = %d, Var(7) = %d; want 2, 0", f.Var(2), f.Var(7))
	}
}

func TestGraphLayersAndBenefits(t *testing.T) {
	// IDs: g=1, a4=2, ag4=3, a5=4, ag5=5.
	const g, a4, ag4, a5, ag5 = 1, 2, 3, 4, 5
	f := NewFormula()
	// ∆(g) via {g}; ∆(a) via {a, ag, ¬g} twice-ish.
	f.Add(g, Clause{Pos: []engine.TupleID{g}})
	f.Add(a4, Clause{Pos: []engine.TupleID{a4, ag4}, Neg: []engine.TupleID{g}})
	f.Add(a5, Clause{Pos: []engine.TupleID{a5, ag5}, Neg: []engine.TupleID{g}})
	// Duplicate clause for a4 dropped.
	if f.Add(a4, Clause{Pos: []engine.TupleID{ag4, a4}, Neg: []engine.TupleID{g}}) {
		t.Fatal("duplicate clause should be dropped")
	}
	gr := f.EndGraph(nil)
	// Layers are outputs: ∆(g) needs nothing, ∆(a4) and ∆(a5) need ∆(g).
	if gr.Layer[g] != 1 || gr.Layer[a4] != 2 || gr.Layer[a5] != 2 {
		t.Fatalf("layers = %v, want g:1 a4:2 a5:2", gr.Layer)
	}
	if gr.NumLayers != 2 {
		t.Fatalf("NumLayers = %d, want 2", gr.NumLayers)
	}
	if heads := gr.LayerHeads(2); len(heads) != 2 || heads[0] != a4 || heads[1] != a5 {
		t.Fatalf("layer-2 heads = %v, want [a4 a5] in clause order", heads)
	}
	if n := len(gr.Assignments[g]) + len(gr.Assignments[a4]) + len(gr.Assignments[a5]); n != 3 {
		t.Fatalf("%d assignments, want 3", n)
	}
	b := gr.Benefits()
	// g: +1 (own assignment) -2 (delta dep of two a assignments) = -1.
	if b[g] != -1 {
		t.Fatalf("benefit[g] = %d, want -1", b[g])
	}
	// a4: +1; ag4: +1.
	if b[a4] != 1 || b[ag4] != 1 {
		t.Fatalf("benefits = %v", b)
	}
}

// TestGraphMatchesPaperFigure5 rebuilds the running example's provenance
// graph from its clauses and checks the layers and the benefits annotated in
// Figure 5: w1:3, p1:1, a2:-1, g2:-1, a3:-1, p2:2(*), w2:3, c:1, ag2/ag3 not
// derived (∅ benefit in the figure because they have no delta node; they
// participate in assignments).
func TestGraphMatchesPaperFigure5(t *testing.T) {
	// Tuple IDs standing in for the paper's named tuples.
	const g2, a2, ag2, a3, ag3, p1, w1, p2, w2, c = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	f := NewFormula()
	// Rule (4): ∆(c) from {c, w1, w2, ¬p1} — added first: layers follow
	// the negative literals, not the order clauses arrive in.
	f.Add(c, Clause{Pos: ids(c, w1, w2), Neg: ids(p1)})
	// Rules (2)/(3): ∆(p1), ∆(w1) from {p1, w1, ¬a2}; ∆(p2), ∆(w2) from {p2, w2, ¬a3}.
	f.Add(p1, Clause{Pos: ids(p1, w1), Neg: ids(a2)})
	f.Add(w1, Clause{Pos: ids(p1, w1), Neg: ids(a2)})
	f.Add(p2, Clause{Pos: ids(p2, w2), Neg: ids(a3)})
	f.Add(w2, Clause{Pos: ids(p2, w2), Neg: ids(a3)})
	// Rule (1): ∆(a2) from {a2, ag2, ¬g2}; ∆(a3) from {a3, ag3, ¬g2}.
	f.Add(a2, Clause{Pos: ids(a2, ag2), Neg: ids(g2)})
	f.Add(a3, Clause{Pos: ids(a3, ag3), Neg: ids(g2)})
	// Rule (0): ∆(g2) from {g2}.
	f.Add(g2, Clause{Pos: ids(g2)})
	g := f.EndGraph(nil)

	wantLayer := map[engine.TupleID]int{g2: 1, a2: 2, a3: 2, p1: 3, w1: 3, p2: 3, w2: 3, c: 4}
	if len(g.Layer) != len(wantLayer) {
		t.Fatalf("heads = %v, want %d", g.Heads, len(wantLayer))
	}
	for k, wl := range wantLayer {
		if g.Layer[k] != wl {
			t.Errorf("layer[t%d] = %d, want %d", k, g.Layer[k], wl)
		}
	}
	if g.NumLayers != 4 {
		t.Fatalf("NumLayers = %d, want 4", g.NumLayers)
	}

	b := g.Benefits()
	want := map[engine.TupleID]int{
		g2: 1 - 2, // own + delta-dep of a2, a3
		a2: 1 - 2, // own + delta-dep of p1/w1 clause (two clauses)
		a3: 1 - 2,
		w1: 3, // p1 clause, w1 clause, c clause
		w2: 3,
		p1: 2 - 1, // p1+w1 clauses positively, delta-dep of c
		p2: 2,
		c:  1,
	}
	for k, wv := range want {
		if b[k] != wv {
			t.Errorf("benefit[t%d] = %d, want %d", k, b[k], wv)
		}
	}
}

// TestEndGraphSeeded: with a pre-deleted tuple, layer 1 is exactly the
// clauses whose negative literals are all seeded; a clause needing a tuple
// nothing derives never fires; and a clause deriving the seed itself is
// recorded, with the seed still counting as layer 0 for its dependents.
func TestEndGraphSeeded(t *testing.T) {
	const s, x, y, z, q, w = 1, 2, 3, 4, 5, 6
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	f := NewFormula()
	f.Add(z, Clause{Pos: ids(z), Neg: ids(s, x)})
	f.Add(s, Clause{Pos: ids(s), Neg: ids(x)})
	f.Add(x, Clause{Pos: ids(x), Neg: ids(s)})
	f.Add(w, Clause{Pos: ids(w), Neg: ids(q)})
	f.Add(y, Clause{Pos: ids(y, x)})
	g := f.EndGraph(map[engine.TupleID]bool{s: true})

	if l1 := g.LayerHeads(1); len(l1) != 2 || l1[0] != x || l1[1] != y {
		t.Fatalf("layer 1 = %v, want [t%d t%d] (negatives all seeded, in clause order)", l1, x, y)
	}
	if g.Layer[z] != 2 || g.Layer[s] != 2 || g.NumLayers != 2 {
		t.Fatalf("layers = %v (NumLayers %d), want z:2 s:2", g.Layer, g.NumLayers)
	}
	if _, fired := g.Layer[w]; fired || len(g.Assignments[w]) != 0 {
		t.Fatalf("clause needing underived t%d fired", q)
	}
	for _, h := range []engine.TupleID{x, y, z, s} {
		if len(g.Assignments[h]) != 1 {
			t.Fatalf("t%d has %d assignments, want 1", h, len(g.Assignments[h]))
		}
	}
}
