package datalog

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

func exampleSchema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("Grant", "g", "gid", "name")
	s.MustAddRelation("AuthGrant", "ag", "aid", "gid")
	s.MustAddRelation("Author", "a", "aid", "name")
	s.MustAddRelation("Writes", "w", "aid", "pid")
	s.MustAddRelation("Pub", "p", "pid", "title")
	s.MustAddRelation("Cite", "c", "citing", "cited")
	return s
}

func TestValidateRunningExample(t *testing.T) {
	p := MustParse(runningExampleSrc)
	if err := p.Validate(exampleSchema()); err != nil {
		t.Fatal(err)
	}
	// Self atoms: rule 0 -> body[0]; rules 2,3 share bodies but different
	// heads: rule 2 head Pub -> body[0] (Pub), rule 3 head Writes -> body[1].
	wantSelf := []int{0, 0, 0, 1, 0}
	for i, r := range p.Rules {
		if r.SelfIdx != wantSelf[i] {
			t.Errorf("rule %d SelfIdx = %d, want %d", i, r.SelfIdx, wantSelf[i])
		}
	}
	if p.Recursive {
		t.Error("running example is not recursive")
	}
}

func TestValidateRejectsNonDeltaHead(t *testing.T) {
	p := &Program{Rules: []*Rule{
		NewRule("", Atom{Rel: "R", Terms: []Term{V("x")}}, []Atom{{Rel: "R", Terms: []Term{V("x")}}}),
	}}
	if err := p.Validate(nil); err == nil || !strings.Contains(err.Error(), "delta atom") {
		t.Fatalf("want delta-head error, got %v", err)
	}
}

func TestValidateRejectsMissingSelfAtom(t *testing.T) {
	// Head terms (x, y) but body atom has (y, x): not the same vector.
	p := &Program{Rules: []*Rule{
		NewRule("", Atom{Delta: true, Rel: "R", Terms: []Term{V("x"), V("y")}}, []Atom{{Rel: "R", Terms: []Term{V("y"), V("x")}}}),
	}}
	if err := p.Validate(nil); err == nil || !strings.Contains(err.Error(), "Def. 3.1") {
		t.Fatalf("want self-atom error, got %v", err)
	}
	// A delta atom with the same terms does not count as self.
	p2 := &Program{Rules: []*Rule{
		NewRule("", Atom{Delta: true, Rel: "R", Terms: []Term{V("x")}}, []Atom{{Delta: true, Rel: "R", Terms: []Term{V("x")}}}),
	}}
	if err := p2.Validate(nil); err == nil {
		t.Fatal("delta-only body should be rejected")
	}
}

func TestValidateRejectsEmptyBody(t *testing.T) {
	p := &Program{Rules: []*Rule{NewRule("", Atom{Delta: true, Rel: "R", Terms: []Term{V("x")}}, nil)}}
	if err := p.Validate(nil); err == nil {
		t.Fatal("empty body should be rejected")
	}
}

func TestValidateRejectsUnboundComparisonVar(t *testing.T) {
	p := &Program{Rules: []*Rule{
		NewRule("", Atom{Delta: true, Rel: "R", Terms: []Term{V("x")}}, []Atom{{Rel: "R", Terms: []Term{V("x")}}},
			Comparison{Left: V("z"), Op: OpLT, Right: C(engine.Int64(5))}),
	}}
	if err := p.Validate(nil); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("want unbound-variable error, got %v", err)
	}
}

func TestValidateSchemaChecks(t *testing.T) {
	s := exampleSchema()
	// Unknown relation in body.
	p := MustParse("Delta_Grant(g, n) :- Grant(g, n), Mystery(g).")
	if err := p.Validate(s); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("want unknown-relation error, got %v", err)
	}
	// Arity mismatch in head.
	p2 := MustParse("Delta_Grant(g) :- Grant(g).")
	if err := p2.Validate(s); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("want arity error, got %v", err)
	}
}

func TestValidateConstantHead(t *testing.T) {
	// Initialization rules ∆_i(C) :- R_i(C) are legal (§3.6).
	p := MustParse("Delta_Grant(2, 'ERC') :- Grant(2, 'ERC').")
	if err := p.Validate(exampleSchema()); err != nil {
		t.Fatal(err)
	}
	if p.Rules[0].SelfIdx != 0 {
		t.Fatalf("SelfIdx = %d", p.Rules[0].SelfIdx)
	}
	// Constant kinds must match: Grant(2) vs Grant('2') are different.
	q := &Program{Rules: []*Rule{
		NewRule("", Atom{Delta: true, Rel: "R", Terms: []Term{C(engine.Int64(2))}}, []Atom{{Rel: "R", Terms: []Term{C(engine.Str("2"))}}}),
	}}
	if err := q.Validate(nil); err == nil {
		t.Fatal("constant kind mismatch should not match the self atom")
	}
}

func TestRecursionDetection(t *testing.T) {
	// ∆R depends on ∆S and vice versa: cyclic.
	src := `
Delta_R(x) :- R(x), Delta_S(x).
Delta_S(x) :- S(x), Delta_R(x).
`
	p := MustParse(src)
	if err := p.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if !p.Recursive {
		t.Fatal("mutually recursive program should be flagged")
	}

	// Self-loop: ∆R depends on ∆R.
	p2 := MustParse("Delta_R(x) :- R(x), Delta_R(y), x != y.")
	if err := p2.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if !p2.Recursive {
		t.Fatal("self-recursive program should be flagged")
	}
}

func TestRuleNameHelper(t *testing.T) {
	labeled := NewRule("7", Atom{Delta: true, Rel: "R", Terms: []Term{V("x")}}, []Atom{{Rel: "R", Terms: []Term{V("x")}}})
	if ruleName(labeled) != "(7)" {
		t.Fatalf("ruleName = %q", ruleName(labeled))
	}
	unlabeled := NewRule("", Atom{Delta: true, Rel: "R", Terms: []Term{V("x")}}, []Atom{{Rel: "R", Terms: []Term{V("x")}}})
	if ruleName(unlabeled) != "Delta_R(x)" {
		t.Fatalf("ruleName = %q", ruleName(unlabeled))
	}
}
