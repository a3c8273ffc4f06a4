package datalog

import (
	"sort"
	"testing"

	"repro/internal/engine"
)

func preparedExample(t *testing.T) (*engine.Database, *Program, *Prepared) {
	t.Helper()
	db := exampleDB()
	p := validatedExample(t)
	pp, err := Prepare(p, exampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	return db, p, pp
}

// assignmentKeys renders an assignment set order-independently for
// comparison between evaluation paths.
func assignmentKeys(asns []*Assignment) []string {
	out := make([]string, len(asns))
	for i, a := range asns {
		out[i] = a.String()
	}
	sort.Strings(out)
	return out
}

// TestPreparedOperationalMatchesEvalRule: the prepared operational plan
// enumerates exactly the assignments the per-call planner finds, for every
// rule, both on the clean database and mid-repair (non-empty deltas).
func TestPreparedOperationalMatchesEvalRule(t *testing.T) {
	db, p, pp := preparedExample(t)
	// Seed a delta so operational evaluation has something to join.
	db.DeleteToDelta(db.Relation("Grant").Keys()[1])

	ctx := pp.AcquireContext()
	defer pp.ReleaseContext(ctx)
	for i, r := range p.Rules {
		var legacy []*Assignment
		if err := EvalRuleOnDB(db, r, func(a *Assignment) bool {
			legacy = append(legacy, a)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var prepared []*Assignment
		if err := pp.Rules[i].EvalOperational(db, ctx, func(a *Assignment) bool {
			prepared = append(prepared, a)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		lk, pk := assignmentKeys(legacy), assignmentKeys(prepared)
		if len(lk) != len(pk) {
			t.Fatalf("rule %d: prepared %d assignments, legacy %d", i, len(pk), len(lk))
		}
		for j := range lk {
			if lk[j] != pk[j] {
				t.Fatalf("rule %d: assignment sets differ: %v vs %v", i, pk, lk)
			}
		}
	}
}

// TestPrepareRejectsUnvalidated: preparation requires validated rules and
// a schema, never guessing at semantics.
func TestPrepareRejectsUnvalidated(t *testing.T) {
	p := MustParse(runningExampleSrc) // parsed but not validated
	if _, err := Prepare(p, exampleSchema()); err == nil {
		t.Fatal("Prepare accepted an unvalidated program")
	}
	vp := MustParse(runningExampleSrc)
	if err := vp.Validate(exampleSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(vp, nil); err == nil {
		t.Fatal("Prepare accepted a nil schema")
	}
	if _, err := Prepare(nil, exampleSchema()); err == nil {
		t.Fatal("Prepare accepted a nil program")
	}
}

// TestPreparedIndexReqs: every declared requirement names a schema
// relation and an in-range column, and warming builds exactly the base and
// delta targets.
func TestPreparedIndexReqs(t *testing.T) {
	db, _, pp := preparedExample(t)
	reqs := pp.IndexReqs()
	if len(reqs) == 0 {
		t.Fatal("no index requirements declared for a multi-join program")
	}
	seen := make(map[IndexReq]bool)
	for _, rq := range reqs {
		if seen[rq] {
			t.Fatalf("duplicate requirement %+v", rq)
		}
		seen[rq] = true
		rs := pp.Schema.Relation(rq.Rel)
		if rs == nil {
			t.Fatalf("requirement %+v names unknown relation", rq)
		}
		if rq.Col < 0 || rq.Col >= rs.Arity() {
			t.Fatalf("requirement %+v column out of range", rq)
		}
	}
	pp.WarmIndexes(db)
	for _, rq := range reqs {
		switch rq.Target {
		case TargetBase:
			if cols := db.Relation(rq.Rel).IndexedColumns(); !containsInt(cols, rq.Col) {
				t.Fatalf("base index %s.%d not built by WarmIndexes", rq.Rel, rq.Col)
			}
		case TargetDelta:
			if cols := db.Delta(rq.Rel).IndexedColumns(); !containsInt(cols, rq.Col) {
				t.Fatalf("delta index %s.%d not built by WarmIndexes", rq.Rel, rq.Col)
			}
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestEvalChangeSeededBaseOnly: seeding an insert batch over relations the
// running example reads only at base atoms (AuthGrant, Writes), with the
// other atoms over the operational sources, enumerates exactly the
// assignments that appeared because of it — the set difference between
// evaluating the updated database and the original — for every rule.
func TestEvalChangeSeededBaseOnly(t *testing.T) {
	db, p, pp := preparedExample(t)
	// Mid-repair state: one grant already deleted, so delta joins fire.
	db.DeleteToDelta(db.Relation("Grant").Keys()[1])

	before := make([][]string, len(p.Rules))
	for i, r := range p.Rules {
		var asns []*Assignment
		if err := EvalRuleOnDB(db, r, func(a *Assignment) bool { asns = append(asns, a); return true }); err != nil {
			t.Fatal(err)
		}
		before[i] = assignmentKeys(asns)
	}

	// Insert new base tuples wiring author 5 to the deleted grant's world.
	seeds := map[string]*engine.Relation{
		"AuthGrant": engine.NewScratchRelation("AuthGrant", 2),
		"Writes":    engine.NewScratchRelation("Writes", 2),
	}
	for _, row := range [][2]int{{2, 2}} {
		tp := db.MustInsert("AuthGrant", engine.Int(row[0]), engine.Int(row[1]))
		seeds["AuthGrant"].Insert(tp)
	}
	tp := db.MustInsert("Writes", engine.Int(2), engine.Int(6))
	seeds["Writes"].Insert(tp)

	ctx := pp.AcquireContext()
	defer pp.ReleaseContext(ctx)
	for i, r := range p.Rules {
		var after []*Assignment
		if err := EvalRuleOnDB(db, r, func(a *Assignment) bool { after = append(after, a); return true }); err != nil {
			t.Fatal(err)
		}
		afterKeys := assignmentKeys(after)
		// wantNew = after \ before (both sorted string sets).
		prev := make(map[string]bool, len(before[i]))
		for _, k := range before[i] {
			prev[k] = true
		}
		var wantNew []string
		for _, k := range afterKeys {
			if !prev[k] {
				wantNew = append(wantNew, k)
			}
		}
		seeded := make(map[string]bool)
		src := SourcesFor(db, r)
		at := func(bi int) AtomSource { return src[bi] }
		if err := pp.Rules[i].EvalChangeSeeded(seeds, at, ctx, func(a *Assignment) bool {
			seeded[a.String()] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(seeded) != len(wantNew) {
			t.Fatalf("rule %d: insert-seeded found %d assignments, want %d new (%v)", i, len(seeded), len(wantNew), wantNew)
		}
		for _, k := range wantNew {
			if !seeded[k] {
				t.Fatalf("rule %d: insert-seeded missed new assignment %s", i, k)
			}
		}
	}
}

// TestScratchPoolRoundTrip: acquired scratch is empty with registered
// indexes, and reacquiring after release hands back reset relations.
func TestScratchPoolRoundTrip(t *testing.T) {
	_, _, pp := preparedExample(t)
	s := pp.AcquireScratch()
	for _, rs := range pp.Schema.Relations {
		if s.Old[rs.Name] == nil || s.Frontier[rs.Name] == nil {
			t.Fatalf("scratch missing relation %s", rs.Name)
		}
		if s.Old[rs.Name].Len() != 0 || s.Frontier[rs.Name].Len() != 0 {
			t.Fatalf("scratch for %s not empty", rs.Name)
		}
	}
	// Dirty the scratch, release, reacquire: must come back empty.
	tp := &engine.Tuple{Rel: "Grant", Vals: []engine.Value{engine.Int(9), engine.Str("X")}}
	s.Frontier["Grant"].Insert(tp)
	s.Derived[tp.TID] = true
	s.Heads = append(s.Heads, tp)
	pp.ReleaseScratch(s)
	s2 := pp.AcquireScratch()
	defer pp.ReleaseScratch(s2)
	for _, rs := range pp.Schema.Relations {
		if s2.Old[rs.Name].Len() != 0 || s2.Frontier[rs.Name].Len() != 0 {
			t.Fatalf("recycled scratch for %s not reset", rs.Name)
		}
	}
	if len(s2.Derived) != 0 || len(s2.Fresh) != 0 || len(s2.Heads) != 0 {
		t.Fatal("recycled scratch sets/buffers not reset")
	}
}

// TestOrgQueryProbesAuthorFirst pins the plan of the socket benchmark's
// /query view, "Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4." (as the
// sideeffect package compiles it: a synthetic delta head over the first
// atom). The equality folds into Author's third column, so the view plan
// starts with an index probe of Author on column 2 and reaches Writes
// through a probe on the author id — instead of scanning every Writes row
// and filtering o afterwards.
func TestOrgQueryProbesAuthorFirst(t *testing.T) {
	s := engine.NewSchema()
	s.MustAddRelation("Author", "au", "aid", "name", "oid")
	s.MustAddRelation("Writes", "w", "aid", "pid")
	p, err := ParseAndValidate("Delta_Writes(a, p) :- Writes(a, p), Author(a, n, o), o = 4.", s)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Prepare(p, s)
	if err != nil {
		t.Fatal(err)
	}
	pl := pp.Rules[0].operational
	if pl.order[0] != 1 || pl.lookup[0] != 2 {
		t.Fatalf("view plan starts with body atom %d probing column %d; want Author (1) probing column 2", pl.order[0], pl.lookup[0])
	}
	if pl.order[1] != 0 || pl.lookup[1] != 0 {
		t.Fatalf("view plan reaches body atom %d probing column %d; want Writes (0) probing column 0", pl.order[1], pl.lookup[1])
	}
	if len(pp.Rules[0].cr.comps) != 0 {
		t.Fatalf("o = 4 still compiled as a filter: %d comparisons left", len(pp.Rules[0].cr.comps))
	}
}
