package datalog

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// runningExampleSrc is the delta program of Figure 2 in the paper.
const runningExampleSrc = `
# Delta program for the academic database (Figure 2).
(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
(1) Delta_Author(a, n) :- Author(a, n), AuthGrant(a, g), Delta_Grant(g, gn).
(2) Delta_Pub(p, t) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).
(3) Delta_Writes(a, p) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).
(4) Delta_Cite(c, p) :- Cite(c, p), Delta_Pub(p, t), Writes(a1, c), Writes(a2, p).
`

func TestParseRunningExample(t *testing.T) {
	p, err := Parse(runningExampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(p.Rules))
	}
	r0 := p.Rules[0]
	if r0.Label != "0" {
		t.Errorf("rule 0 label = %q", r0.Label)
	}
	if !r0.Head.Delta || r0.Head.Rel != "Grant" {
		t.Errorf("rule 0 head = %v", r0.Head)
	}
	if len(r0.Body) != 1 || len(r0.Comps) != 1 {
		t.Errorf("rule 0 body/comps = %d/%d", len(r0.Body), len(r0.Comps))
	}
	if r0.Comps[0].Op != OpEQ || r0.Comps[0].Right.Const.Str != "ERC" {
		t.Errorf("rule 0 comparison = %v", r0.Comps[0])
	}
	r4 := p.Rules[4]
	if len(r4.Body) != 4 {
		t.Errorf("rule 4 body size = %d, want 4", len(r4.Body))
	}
	if !r4.Body[1].Delta || r4.Body[1].Rel != "Pub" {
		t.Errorf("rule 4 second atom = %v, want Delta_Pub", r4.Body[1])
	}
}

func TestParseUnicodeDeltaAndOperators(t *testing.T) {
	src := `∆Pub(p1, t1, c1) :- Pub(p1, t1, c1), Pub(p2, t2, c2), t1 = t2, c1 ≠ c2, p1 ≤ 10, p2 ≥ 0.`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if !r.Head.Delta || r.Head.Rel != "Pub" {
		t.Fatalf("head = %v", r.Head)
	}
	wantOps := []CompOp{OpEQ, OpNEQ, OpLEQ, OpGEQ}
	if len(r.Comps) != len(wantOps) {
		t.Fatalf("comps = %d, want %d", len(r.Comps), len(wantOps))
	}
	for i, op := range wantOps {
		if r.Comps[i].Op != op {
			t.Errorf("comp %d op = %v, want %v", i, r.Comps[i].Op, op)
		}
	}
}

func TestParseTermKinds(t *testing.T) {
	src := `Delta_R(x, y, z) :- R(x, y, z), S(x, 42, 'str', -7, 2.5, _, _).`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Rules[0].Body[1]
	if s.Terms[1].Const.Int != 42 {
		t.Errorf("int const = %v", s.Terms[1])
	}
	if s.Terms[2].Const.Str != "str" {
		t.Errorf("string const = %v", s.Terms[2])
	}
	if s.Terms[3].Const.Int != -7 {
		t.Errorf("negative const = %v", s.Terms[3])
	}
	if s.Terms[4].Const.Flt != 2.5 {
		t.Errorf("float const = %v", s.Terms[4])
	}
	// Anonymous variables must be distinct.
	if !s.Terms[5].IsVar() || !s.Terms[6].IsVar() || s.Terms[5].Var == s.Terms[6].Var {
		t.Errorf("anonymous vars not distinct: %v vs %v", s.Terms[5], s.Terms[6])
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	src := "% percent comment\n// slash comment\n  Delta_R(x) :- R(x). # trailing\n"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(p.Rules))
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := MustParse(runningExampleSrc)
	// String() output must reparse to an equivalent program.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, p.String())
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", p.String(), p2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                   // empty program
		"Delta_R(x)",                         // missing :- and .
		"Delta_R(x) :- R(x)",                 // missing dot
		"Delta_R(x) : R(x).",                 // broken implies
		"Delta_R(x) :- R(x), .",              // dangling comma
		"Delta_R(x) :- R(x, ).",              // missing term
		"Delta_R(x) :- R(x), x ! 3.",         // broken operator
		"Delta_R(x) :- R(x), 'unterminated.", // unterminated string
		"(x Delta_R(x) :- R(x).",             // malformed label
		"Delta_(x) :- R(x).",                 // empty relation after prefix
		"Delta_R(x) :- R(x), @.",             // unlexable char
		"Delta_R(x) :- R(x), x =.",           // missing comparison operand
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input should panic")
		}
	}()
	MustParse("garbage(")
}

func TestParseAndValidate(t *testing.T) {
	schema := engine.NewSchema()
	schema.MustAddRelation("R", "r", "a")
	if _, err := ParseAndValidate("Delta_R(x) :- R(x).", schema); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if _, err := ParseAndValidate("Delta_R(x) :- S(x).", schema); err == nil {
		t.Fatal("program missing self atom should be rejected")
	}
	if _, err := ParseAndValidate("Delta_R(x, y) :- R(x, y).", schema); err == nil {
		t.Fatal("arity mismatch should be rejected")
	}
}

func TestProgramAccessors(t *testing.T) {
	p := MustParse(runningExampleSrc)
	drels := p.DeltaRelations()
	want := []string{"Grant", "Author", "Pub", "Writes", "Cite"}
	if len(drels) != len(want) {
		t.Fatalf("DeltaRelations = %v", drels)
	}
	for i := range want {
		if drels[i] != want[i] {
			t.Fatalf("DeltaRelations[%d] = %s, want %s", i, drels[i], want[i])
		}
	}
	if !strings.Contains(p.String(), "Delta_Cite(c, p)") {
		t.Fatalf("String missing rule 4: %s", p.String())
	}
}

func TestRuleDeltaCount(t *testing.T) {
	p := MustParse(runningExampleSrc)
	if err := p.Validate(exampleSchema()); err != nil {
		t.Fatal(err)
	}
	pp, err := Prepare(p, exampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if n := pp.Rules[4].NumDeltaBody(); n != 1 {
		t.Fatalf("NumDeltaBody = %d, want 1", n)
	}
	if pp.Rules[0].NumDeltaBody() != 0 {
		t.Fatal("rule 0 has no delta body atoms")
	}
}
