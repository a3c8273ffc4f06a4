package provenance

import (
	"slices"
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

// clause builds an assignment binding pos at base atoms and neg at delta
// atoms, whose clause is pos ∧ ¬neg.
func clause(pos, neg []engine.TupleID) *datalog.Assignment {
	asn := &datalog.Assignment{Rule: &datalog.Rule{}}
	for i, id := range append(slices.Clip(pos), neg...) {
		asn.Rule.Body = append(asn.Rule.Body, datalog.Atom{Delta: i >= len(pos)})
		asn.Tuples = append(asn.Tuples, &engine.Tuple{TID: id})
	}
	return asn
}

func TestAddSeparatesPosAndNeg(t *testing.T) {
	s := simpleSchema()
	db := engine.NewDatabase(s)
	r1 := db.MustInsert("R", engine.Int(1))
	s1 := db.MustInsert("S", engine.Int(1))
	db.DeleteTupleToDelta(s1)

	p, err := datalog.ParseAndValidate("Delta_R(x) :- Delta_S(x), R(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, s)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFormula()
	if err := prep.Rules[0].EvalOperational(db, nil, func(a *datalog.Assignment) bool {
		f.Add(a.Head().TID, a)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatalf("clauses = %d, want 1", f.Len())
	}
	pos, neg := f.Body(0)
	if !slices.Equal(pos, []engine.TupleID{r1.TID}) {
		t.Fatalf("Pos = %v, want [%d]", pos, r1.TID)
	}
	if !slices.Equal(neg, []engine.TupleID{s1.TID}) {
		t.Fatalf("Neg = %v, want [%d]", neg, s1.TID)
	}
	// Pos tuples are numbered before Neg tuples, whatever the body order.
	if ids := f.TupleIDs(); !slices.Equal(ids, []engine.TupleID{r1.TID, s1.TID}) {
		t.Fatalf("TupleIDs = %v, want [%d %d]", ids, r1.TID, s1.TID)
	}
}

func TestAddDeduplicatesRepeatedTuples(t *testing.T) {
	s := simpleSchema()
	db := engine.NewDatabase(s)
	db.MustInsert("R", engine.Int(1))
	// Rule with the same atom twice: R(x), R(x) binds the same tuple.
	p, err := datalog.ParseAndValidate("Delta_R(x) :- R(x), R(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, s)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFormula()
	prep.Rules[0].EvalOperational(db, nil, func(a *datalog.Assignment) bool {
		f.Add(a.Head().TID, a)
		return false
	})
	if pos, neg := f.Body(0); len(pos) != 1 || len(neg) != 0 {
		t.Fatalf("Pos = %v, Neg = %v; want a single deduplicated Pos entry", pos, neg)
	}
}

func TestClauseSigOrderInsensitive(t *testing.T) {
	// Add dedups on the head and the Pos and Neg sets: the order inside a
	// set is ignored, a tuple's sign and the head are not.
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	f := NewFormula()
	a := clause(ids(1, 2), ids(3))
	f.Add(9, a)
	if f.Add(9, clause(ids(2, 1), ids(3))) {
		t.Fatal("dedup should ignore Pos order")
	}
	if !f.Add(9, clause(ids(1), ids(2, 3))) {
		t.Fatal("different clauses must both be kept")
	}
	if !f.Add(9, clause(ids(1, 2, 3), nil)) {
		t.Fatal("sign placement must be part of the dedup key")
	}
	if !f.Add(8, a) {
		t.Fatal("head must be part of the dedup key")
	}
	// A tautological body (tuple 4 both present and deleted) has no CNF
	// clause, and dedups the same way.
	taut := clause(ids(1, 4), ids(4))
	if !f.Add(9, taut) || f.Add(9, clause(ids(4, 1), ids(4))) || !f.Add(8, taut) {
		t.Fatal("tautological clauses must dedup on head and body")
	}
	// Six clauses; the CNF holds the three distinct non-tautological
	// bodies, and the side table decodes the tautological one.
	if f.Len() != 6 || f.CNF().NumClauses() != 3 {
		t.Fatalf("Len = %d, CNF clauses = %d; want 6, 3", f.Len(), f.CNF().NumClauses())
	}
	if pos, neg := f.Body(4); !slices.Equal(pos, ids(1, 4)) || !slices.Equal(neg, ids(4)) {
		t.Fatalf("Body(4) = %v, %v; want [1 4], [4]", pos, neg)
	}
	// The end graph still reads it: with tuple 4 seeded, head 8's only
	// firing clause is the tautological one (its other needs tuple 3).
	if g := f.EndGraph(map[engine.TupleID]bool{4: true}); !slices.Equal(g.Assignments[8], []int32{5}) {
		t.Fatalf("head 8's end-graph clauses = %v, want the tautological one, [5]", g.Assignments[8])
	}
}

func TestFormulaDedupAndTupleIDs(t *testing.T) {
	f := NewFormula()
	c1 := clause([]engine.TupleID{1}, []engine.TupleID{2})
	if !f.Add(1, c1) {
		t.Fatal("first add should be new")
	}
	if f.Add(1, clause([]engine.TupleID{1}, []engine.TupleID{2})) {
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
	f.Add(g, clause([]engine.TupleID{g}, nil))
	f.Add(a4, clause([]engine.TupleID{a4, ag4}, []engine.TupleID{g}))
	f.Add(a5, clause([]engine.TupleID{a5, ag5}, []engine.TupleID{g}))
	// Duplicate clause for a4 dropped.
	if f.Add(a4, clause([]engine.TupleID{ag4, a4}, []engine.TupleID{g})) {
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
	if b[f.Var(g)] != -1 {
		t.Fatalf("benefit[g] = %d, want -1", b[f.Var(g)])
	}
	// a4: +1; ag4: +1.
	if b[f.Var(a4)] != 1 || b[f.Var(ag4)] != 1 {
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
	f.Add(c, clause(ids(c, w1, w2), ids(p1)))
	// Rules (2)/(3): ∆(p1), ∆(w1) from {p1, w1, ¬a2}; ∆(p2), ∆(w2) from {p2, w2, ¬a3}.
	f.Add(p1, clause(ids(p1, w1), ids(a2)))
	f.Add(w1, clause(ids(p1, w1), ids(a2)))
	f.Add(p2, clause(ids(p2, w2), ids(a3)))
	f.Add(w2, clause(ids(p2, w2), ids(a3)))
	// Rule (1): ∆(a2) from {a2, ag2, ¬g2}; ∆(a3) from {a3, ag3, ¬g2}.
	f.Add(a2, clause(ids(a2, ag2), ids(g2)))
	f.Add(a3, clause(ids(a3, ag3), ids(g2)))
	// Rule (0): ∆(g2) from {g2}.
	f.Add(g2, clause(ids(g2), nil))
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
		if b[f.Var(k)] != wv {
			t.Errorf("benefit[t%d] = %d, want %d", k, b[f.Var(k)], wv)
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
	f.Add(z, clause(ids(z), ids(s, x)))
	f.Add(s, clause(ids(s), ids(x)))
	f.Add(x, clause(ids(x), ids(s)))
	f.Add(w, clause(ids(w), ids(q)))
	f.Add(y, clause(ids(y, x), nil))
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
