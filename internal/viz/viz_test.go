package viz

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/programs"
)

func TestProvenanceDOTFigure5(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	dot := ProvenanceDOT(ex.Graph, func(id engine.TupleID) string { return db.LookupID(id).Key() })
	// Structural spot checks against Figure 5.
	for _, want := range []string{
		"digraph provenance",
		"// layer 1", "// layer 2", "// layer 3", "// layer 4",
		`Δ(Grant(i2,\"ERC\")`,   // the initiating delta
		"style=dashed",          // delta dependencies
		"style=solid",           // positive participation
		`Writes(i4,i6), 3`,      // w1's benefit from Figure 5
		`Grant(i2,\"ERC\"), -1`, // g2's benefit
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Balanced braces: crude well-formedness check.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced braces in DOT output")
	}
}

func TestExplanationDOT(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	key := engine.ContentKey("Writes", []engine.Value{engine.Int(4), engine.Int(6)})
	e := ex.Explain(key)
	if e == nil {
		t.Fatal("w1 should be explainable")
	}
	dot := ExplanationDOT(e)
	for _, want := range []string{
		"digraph explanation",
		"layer 3", "layer 2", "layer 1",
		"->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Three nodes in the chain w1 -> a2 -> g2.
	if got := strings.Count(dot, "label="); got != 3 {
		t.Errorf("node count = %d, want 3", got)
	}
}
