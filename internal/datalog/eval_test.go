package datalog

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// exampleDB builds the database instance D of Figure 1.
func exampleDB() *engine.Database {
	db := engine.NewDatabase(exampleSchema())
	db.MustInsert("Grant", engine.Int(1), engine.Str("NSF"))
	db.MustInsert("Grant", engine.Int(2), engine.Str("ERC"))
	db.MustInsert("AuthGrant", engine.Int(2), engine.Int(1))
	db.MustInsert("AuthGrant", engine.Int(4), engine.Int(2))
	db.MustInsert("AuthGrant", engine.Int(5), engine.Int(2))
	db.MustInsert("Author", engine.Int(2), engine.Str("Maggie"))
	db.MustInsert("Author", engine.Int(4), engine.Str("Marge"))
	db.MustInsert("Author", engine.Int(5), engine.Str("Homer"))
	db.MustInsert("Cite", engine.Int(7), engine.Int(6))
	db.MustInsert("Writes", engine.Int(4), engine.Int(6))
	db.MustInsert("Writes", engine.Int(5), engine.Int(7))
	db.MustInsert("Pub", engine.Int(6), engine.Str("x"))
	db.MustInsert("Pub", engine.Int(7), engine.Str("y"))
	return db
}

func validatedExample(t *testing.T) *Program {
	t.Helper()
	p := MustParse(runningExampleSrc)
	if err := p.Validate(exampleSchema()); err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(t *testing.T, db *engine.Database, r *Rule) []*Assignment {
	t.Helper()
	var out []*Assignment
	if err := EvalRuleOnDB(db, r, func(a *Assignment) bool {
		out = append(out, a)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEvalRuleWithConstantSelection(t *testing.T) {
	db := exampleDB()
	p := validatedExample(t)
	// Rule (0): ∆Grant(g, n) :- Grant(g, n), n = 'ERC' has exactly one
	// assignment, binding the g2 tuple.
	asns := collect(t, db, p.Rules[0])
	if len(asns) != 1 {
		t.Fatalf("rule 0 assignments = %d, want 1", len(asns))
	}
	if asns[0].Head().ID != "g2" {
		t.Fatalf("rule 0 head = %v, want g2", asns[0].Head())
	}
}

func TestEvalRuleJoinsThroughDelta(t *testing.T) {
	db := exampleDB()
	p := validatedExample(t)
	// Before any deletion, rule (1) has no assignment: ∆Grant is empty.
	asns := collect(t, db, p.Rules[1])
	if len(asns) != 0 {
		t.Fatalf("rule 1 should have no assignments before deletion, got %d", len(asns))
	}
	// Delete g2: now rule (1) matches Marge (a2/ag2) and Homer (a3/ag3),
	// exactly the two assignments α1, α2 of Example 2.1.
	db.DeleteToDelta(engine.ContentKey("Grant", []engine.Value{engine.Int(2), engine.Str("ERC")}))
	asns = collect(t, db, p.Rules[1])
	if len(asns) != 2 {
		t.Fatalf("rule 1 assignments = %d, want 2", len(asns))
	}
	heads := map[string]bool{}
	for _, a := range asns {
		heads[a.Head().ID] = true
	}
	if !heads["a2"] || !heads["a3"] {
		t.Fatalf("rule 1 heads = %v, want a2 and a3", heads)
	}
}

func TestEvalEarlyStop(t *testing.T) {
	db := exampleDB()
	p := validatedExample(t)
	db.DeleteToDelta(engine.ContentKey("Grant", []engine.Value{engine.Int(2), engine.Str("ERC")}))
	n := 0
	if err := EvalRuleOnDB(db, p.Rules[1], func(*Assignment) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d assignments, want 1", n)
	}
	ok, err := HasAssignment(db, p.Rules[1])
	if err != nil || !ok {
		t.Fatalf("HasAssignment = %v, %v", ok, err)
	}
	ok, err = HasAssignment(db, p.Rules[4])
	if err != nil || ok {
		t.Fatalf("rule 4 should have no assignment yet, got %v, %v", ok, err)
	}
}

func TestEvalRepeatedVariables(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("E", "e", "src", "dst")
	db := engine.NewDatabase(s)
	db.MustInsert("E", engine.Int(1), engine.Int(1)) // self-loop
	db.MustInsert("E", engine.Int(1), engine.Int(2))
	db.MustInsert("E", engine.Int(2), engine.Int(2)) // self-loop
	p, err := ParseAndValidate("Delta_E(x, x) :- E(x, x).", s)
	if err != nil {
		t.Fatal(err)
	}
	asns := collect(t, db, p.Rules[0])
	if len(asns) != 2 {
		t.Fatalf("self-loop assignments = %d, want 2", len(asns))
	}
}

func TestEvalComparisonsAllOps(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("N", "n", "v")
	db := engine.NewDatabase(s)
	for i := 1; i <= 10; i++ {
		db.MustInsert("N", engine.Int(i))
	}
	cases := []struct {
		src  string
		want int
	}{
		{"Delta_N(x) :- N(x), x < 4.", 3},
		{"Delta_N(x) :- N(x), x <= 4.", 4},
		{"Delta_N(x) :- N(x), x > 8.", 2},
		{"Delta_N(x) :- N(x), x >= 8.", 3},
		{"Delta_N(x) :- N(x), x = 5.", 1},
		{"Delta_N(x) :- N(x), x != 5.", 9},
		{"Delta_N(x) :- N(x), N(y), x < y.", 45},
	}
	for _, c := range cases {
		p, err := ParseAndValidate(c.src, s)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		got := len(collect(t, db, p.Rules[0]))
		if got != c.want {
			t.Errorf("%s: assignments = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvalConstantOnlyComparison(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("N", "n", "v")
	db := engine.NewDatabase(s)
	db.MustInsert("N", engine.Int(1))
	// A false constant comparison gates the whole rule.
	p := &Program{Rules: []*Rule{
		NewRule("", Atom{Delta: true, Rel: "N", Terms: []Term{V("x")}}, []Atom{{Rel: "N", Terms: []Term{V("x")}}},
			Comparison{Left: C(engine.Int64(1)), Op: OpEQ, Right: C(engine.Int64(2))}),
	}}
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, db, p.Rules[0])); got != 0 {
		t.Fatalf("false constant gate: %d assignments, want 0", got)
	}
	// A true constant comparison is a no-op.
	p2 := &Program{Rules: []*Rule{
		NewRule("", Atom{Delta: true, Rel: "N", Terms: []Term{V("x")}}, []Atom{{Rel: "N", Terms: []Term{V("x")}}},
			Comparison{Left: C(engine.Int64(1)), Op: OpEQ, Right: C(engine.Int64(1))}),
	}}
	if err := p2.Validate(s); err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, db, p2.Rules[0])); got != 1 {
		t.Fatalf("true constant gate: %d assignments, want 1", got)
	}
}

func TestEvalUnvalidatedRuleErrors(t *testing.T) {
	p := MustParse("Delta_R(x) :- R(x).")
	err := EvalRule(p.Rules[0], []AtomSource{nil}, func(*Assignment) bool { return true })
	if err == nil {
		t.Fatal("evaluating an unvalidated rule should error")
	}
}

func TestEvalSourceCountMismatch(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	p, err := ParseAndValidate("Delta_R(x) :- R(x), R(y).", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := EvalRule(p.Rules[0], []AtomSource{nil}, func(*Assignment) bool { return true }); err == nil {
		t.Fatal("source count mismatch should error")
	}
}

func TestEvalUnionSources(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	db := engine.NewDatabase(s)
	p, err := ParseAndValidate("Delta_R(x) :- R(x), Delta_R(y), x != y.", s)
	if err != nil {
		t.Fatal(err)
	}
	// Two halves of a split delta relation must behave as their union.
	old := engine.NewRelation("R", 1)
	fresh := engine.NewRelation("R", 1)
	t1 := db.MustInsert("R", engine.Int(1))
	t2 := db.MustInsert("R", engine.Int(2))
	t3 := db.MustInsert("R", engine.Int(3))
	_ = t1
	old.Insert(t2)
	fresh.Insert(t3)

	sources := []AtomSource{
		{db.Relation("R")},
		{old, fresh},
	}
	var n int
	if err := EvalRule(p.Rules[0], sources, func(a *Assignment) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// R has 3 tuples, delta union {2,3}; pairs with x != y: (1,2),(1,3),
	// (2,3),(3,2) = 4... wait: x ranges over R={1,2,3}, y over {2,3}:
	// (1,2),(1,3),(2,3),(3,2) -> 4.
	if n != 4 {
		t.Fatalf("union-source assignments = %d, want 4", n)
	}
}

func TestAssignmentString(t *testing.T) {
	db := exampleDB()
	p := validatedExample(t)
	asns := collect(t, db, p.Rules[0])
	if len(asns) != 1 {
		t.Fatal("want one assignment")
	}
	s := asns[0].String()
	if s == "" || s[0] != '(' {
		t.Fatalf("Assignment.String = %q", s)
	}
}

func TestEvalNilSourceRelation(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	p, err := ParseAndValidate("Delta_R(x) :- R(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	// nil relation inside a source is skipped, not a crash.
	var n int
	if err := EvalRule(p.Rules[0], []AtomSource{{nil}}, func(*Assignment) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("nil source produced %d assignments", n)
	}
}

// TestConstantEqualityAtIndexBoundary: "v = c" compiles to an index probe
// only for constants whose Equal class shares one index key (strings, and
// numbers below 2^53 in magnitude); past 2^53 an int64 and a float64 can be
// Equal through rounding yet hash apart, so such a constant must stay a
// filter. Either way the rule must accept exactly the rows Value.Equal
// accepts — on the row tail and on frozen segments, through the per-call
// planner and through the prepared view plan.
func TestConstantEqualityAtIndexBoundary(t *testing.T) {
	const p53 = 1 << 53
	cells := []engine.Value{
		engine.Int(p53 - 1), engine.Int(p53), engine.Int(p53 + 1), engine.Int(p53 + 2),
		engine.Float(p53 - 1), engine.Float(p53), engine.Float(p53 + 2),
		engine.Int(-p53), engine.Int(-p53 - 1), engine.Float(-p53),
		engine.Int(4), engine.Float(4), engine.Float(4.5), engine.Str("4"),
	}
	consts := []engine.Value{
		engine.Int(p53 - 1), engine.Int(p53), engine.Int(p53 + 1),
		engine.Float(p53 - 1), engine.Float(p53), engine.Float(p53 + 2),
		engine.Int(-p53), engine.Int(-p53 + 1), engine.Float(-p53),
		engine.Int(4), engine.Float(4), engine.Float(4.5), engine.Str("4"),
	}
	for _, frozen := range []bool{false, true} {
		s := engine.NewSchema()
		s.MustAddRelation("N", "n", "id", "v")
		db := engine.NewDatabase(s)
		for i, c := range cells {
			db.MustInsert("N", engine.Int(i), c)
		}
		if frozen {
			db.Freeze()
		}
		for _, c := range consts {
			var want []string
			for _, tp := range db.Relation("N").Tuples() {
				if tp.Vals[1].Equal(c) {
					want = append(want, tp.Key())
				}
			}
			for _, left := range []bool{false, true} {
				cmp := Comparison{Left: V("v"), Op: OpEQ, Right: C(c)}
				if left {
					cmp = Comparison{Left: C(c), Op: OpEQ, Right: V("v")}
				}
				rule := NewRule("", Atom{Delta: true, Rel: "N", Terms: []Term{V("i"), V("v")}},
					[]Atom{{Rel: "N", Terms: []Term{V("i"), V("v")}}}, cmp)
				p := NewProgram(rule)
				if err := p.Validate(s); err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, a := range collect(t, db, rule) {
					got = append(got, a.Tuples[0].Key())
				}
				pp, err := Prepare(p, s)
				if err != nil {
					t.Fatal(err)
				}
				var viaPlan []string
				if err := pp.Rules[0].EvalOperational(db, nil, func(a *Assignment) bool {
					viaPlan = append(viaPlan, a.Tuples[0].Key())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				probed := pp.Rules[0].operational.lookup[0] == 1
				if probed != indexExact(c) {
					t.Errorf("%s (frozen %v): probed %v, index-exact %v", cmp, frozen, probed, indexExact(c))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(viaPlan) != fmt.Sprint(want) {
					t.Errorf("%s (frozen %v): EvalRule %v, prepared %v, Value.Equal accepts %v",
						cmp, frozen, got, viaPlan, want)
				}
			}
		}
	}
}
