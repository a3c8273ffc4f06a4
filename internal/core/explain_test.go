package core

import (
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

func TestExplainRunningExample(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	ex, err := NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	// w1 (Writes(4,6)) was deleted because p1 was present and a2's
	// deletion enabled rule (3); a2's deletion traces back to g2.
	w1Key := engine.ContentKey("Writes", []engine.Value{engine.Int(4), engine.Int(6)})
	if ex.Explain(w1Key) == nil {
		t.Fatal("w1 should be explainable")
	}
	e := ex.Explain(w1Key)
	if e == nil || e.Layer != 3 {
		t.Fatalf("w1 explanation = %+v", e)
	}
	if len(e.After) != 1 {
		t.Fatalf("w1 should depend on one deletion, got %d", len(e.After))
	}
	a2 := e.After[0]
	if a2.Layer != 2 || len(a2.After) != 1 {
		t.Fatalf("a2 explanation = %+v", a2)
	}
	g2 := a2.After[0]
	if g2.Layer != 1 || len(g2.After) != 0 {
		t.Fatalf("g2 explanation = %+v", g2)
	}
	if !strings.Contains(g2.Tuple, "Grant") {
		t.Fatalf("chain should bottom out at the grant: %s", g2.Tuple)
	}
	// Rendering is an indented tree naming all three layers.
	s := e.String()
	for _, want := range []string{"layer 3", "layer 2", "layer 1", "after:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestExplainUnderivableTuple(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	ex, err := NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	// AuthGrant tuples are never derived by any rule: independent
	// semantics deletes them, but there is no derivation to show.
	agKey := engine.ContentKey("AuthGrant", []engine.Value{engine.Int(4), engine.Int(2)})
	if ex.Explain(agKey) != nil {
		t.Fatal("ag2 explanation should be nil")
	}
}

func TestExplainResultCoversAllSemantics(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	ex, err := NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics {
		res, _, err := RunWith(db, p, sem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		entries := ex.ExplainResult(res)
		if len(entries) != res.Size() {
			t.Fatalf("%s: %d entries for %d deletions", sem, len(entries), res.Size())
		}
		for _, entry := range entries {
			derivable := ex.Explain(entry.Tuple.Key()) != nil
			if derivable && entry.Explanation == nil {
				t.Fatalf("%s: derivable %s lacks explanation", sem, entry.Tuple.Key())
			}
			if !derivable && entry.Explanation != nil {
				t.Fatalf("%s: underivable %s has explanation", sem, entry.Tuple.Key())
			}
		}
	}
	// Every step/stage/end deletion must be explainable (all derivable).
	for _, sem := range []Semantics{SemStep, SemStage, SemEnd} {
		res, _, _ := RunWith(db, p, sem, Options{})
		for _, entry := range ex.ExplainResult(res) {
			if entry.Explanation == nil {
				t.Fatalf("%s deletion %s unexplained", sem, entry.Tuple.Key())
			}
		}
	}
}

func TestExplainRecursiveProgramTerminates(t *testing.T) {
	// Mutually recursive deletions: explanations must not loop.
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	s.MustAddRelation("S", "s", "a")
	db := engine.NewDatabase(s)
	db.MustInsert("R", engine.Int(1))
	db.MustInsert("S", engine.Int(1))
	p, err := datalog.ParseAndValidate(`
Delta_R(x) :- R(x).
Delta_S(x) :- S(x), Delta_R(x).
Delta_R(x) :- R(x), Delta_S(x).
`, s)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Recursive {
		t.Fatal("program should be flagged recursive")
	}
	ex, err := NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	e := ex.Explain(engine.ContentKey("S", []engine.Value{engine.Int(1)}))
	if e == nil {
		t.Fatal("S(1) deletion should be explainable")
	}
	if len(e.After) != 1 || e.After[0].Layer != 1 {
		t.Fatalf("S(1) should trace to the layer-1 R deletion: %+v", e)
	}
}

// TestExplainAfterPreDeletion is the §3.6 scenario RepairAfterDeletions
// serves: a user deletes Author(4,"Marge") before the repair. Writes(4,6)
// and Pub(6,"x") are then derived from that deletion at layer 1, and their
// explanations bottom out at it as a leaf deleted before the repair.
func TestExplainAfterPreDeletion(t *testing.T) {
	db, p := academicDB().Fork(), academicProgram(t)
	marge := engine.ContentKey("Author", []engine.Value{engine.Int(4), engine.Str("Marge")})
	if !db.DeleteToDelta(marge) {
		t.Fatal("Author(4,Marge) should be live")
	}
	ex, err := NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	w1Key := engine.ContentKey("Writes", []engine.Value{engine.Int(4), engine.Int(6)})
	if ex.Explain(w1Key) == nil {
		t.Fatal("w1 should be explainable")
	}
	e := ex.Explain(w1Key)
	if e == nil || e.Layer != 1 || len(e.After) != 1 {
		t.Fatalf("w1 explanation = %+v, want layer 1 after one deletion", e)
	}
	if leaf := e.After[0]; leaf.Tuple != marge || leaf.Layer != 0 || len(leaf.After) != 0 {
		t.Fatalf("w1's dependency = %+v, want the pre-deleted %s as a layer-0 leaf", leaf, marge)
	}
	if s := e.String(); !strings.Contains(s, marge+" deleted before the repair") {
		t.Fatalf("rendering does not name the pre-deletion:\n%s", s)
	}
	res, _, err := RunWith(db, p, SemEnd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 7 {
		t.Fatalf("end deletes %d, want 7", res.Size())
	}
	for _, entry := range ex.ExplainResult(res) {
		if entry.Explanation == nil {
			t.Fatalf("end deletion %s unexplained", entry.Tuple.Key())
		}
	}
}
