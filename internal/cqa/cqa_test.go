package cqa

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/sideeffect"
)

func runningExample(t *testing.T) (*engine.Database, *core.RepairSpace) {
	t.Helper()
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.EnumerateRepairsWith(db, p, core.Options{}, core.EnumerateOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !space.Optimal {
		t.Fatal("running example should enumerate within budget")
	}
	// Brute-force agreement below compares against exactly the enumerated
	// repairs, so completeness is not required — but the example's space
	// is small enough that k=8 exhausts it.
	return db, space
}

// bruteAnswers re-evaluates the view on each materialized repair and
// intersects/unions the row keys — the definitionally correct certain and
// possible answers over the enumerated set.
func bruteAnswers(t *testing.T, db *engine.Database, v *sideeffect.View, space *core.RepairSpace) (certain, possible map[string]bool) {
	t.Helper()
	certain = nil
	possible = make(map[string]bool)
	for _, res := range space.Repairs {
		work := db.Fork()
		for _, tp := range res.Deleted {
			if !work.DeleteTupleToDelta(tp) {
				t.Fatalf("repair tuple %s not deletable", tp.Key())
			}
		}
		rows, err := v.Eval(work)
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[string]bool, len(rows))
		for _, row := range rows {
			keys[row.Key()] = true
			possible[row.Key()] = true
		}
		if certain == nil {
			certain = keys
		} else {
			for k := range certain {
				if !keys[k] {
					delete(certain, k)
				}
			}
		}
	}
	return certain, possible
}

func keySet(rows [][]engine.Value) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, vals := range rows {
		r := sideeffect.Row{Values: vals}
		out[r.Key()] = true
	}
	return out
}

func TestAnswerAgreesWithBruteForce(t *testing.T) {
	db, space := runningExample(t)
	queries := []string{
		// Unary over a relation every repair prunes differently.
		"Q(a) :- Writes(a, p).",
		// Join crossing two repaired relations.
		"Q(a, t) :- Writes(a, p), Pub(p, t).",
		// Untouched relation: everything stays certain.
		"Q(a, g) :- AuthGrant(a, g).",
		// Join with an untouched relation.
		"Q(n) :- Author(a, n), AuthGrant(a, g), Grant(g, gn).",
		// Comparison predicate.
		"Q(g) :- Grant(g, n), g > 1.",
	}
	for _, src := range queries {
		v, err := sideeffect.ParseView(src, db.Schema)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ans, err := Answer(db, v, space)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		wantCertain, wantPossible := bruteAnswers(t, db, v, space)
		if got := keySet(ans.Certain); !reflect.DeepEqual(got, wantCertain) {
			t.Errorf("%s: certain = %v, brute force %v", src, got, wantCertain)
		}
		if got := keySet(ans.Possible); !reflect.DeepEqual(got, wantPossible) {
			t.Errorf("%s: possible = %v, brute force %v", src, got, wantPossible)
		}
		// Structural sanity: certain ⊆ possible, and both orders are
		// deterministic re-running the same classification.
		if len(ans.Certain) > len(ans.Possible) {
			t.Errorf("%s: more certain than possible answers", src)
		}
		again, err := Answer(db, v, space)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans, again) {
			t.Errorf("%s: classification not deterministic", src)
		}
	}
}

func TestAnswerForcedAndUntouchableRows(t *testing.T) {
	// Grant(2, 'ERC') matches the self-referential rule (0), so every
	// repair deletes it: the row is neither certain nor possible. Grant(1,
	// 'NSF') appears in no stability clause, so no set-minimal repair can
	// delete it: the row is certain.
	db, space := runningExample(t)
	v, err := sideeffect.ParseView("Q(g, n) :- Grant(g, n).", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := Answer(db, v, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Certain) != 1 || len(ans.Possible) != 1 {
		t.Fatalf("Grant rows: certain %d possible %d, want 1/1", len(ans.Certain), len(ans.Possible))
	}
	if got := ans.Certain[0][1].Str; got != "NSF" {
		t.Fatalf("surviving grant = %q, want NSF", got)
	}
	if ans.Columns != 2 || ans.Repairs != space.K() {
		t.Fatalf("answer metadata = %+v", ans)
	}
}

func TestAnswerPossibleNotCertain(t *testing.T) {
	// The running example's minimal repairs differ on which Writes/Author
	// tuples go, so some Writes-derived answers must be possible-only.
	db, space := runningExample(t)
	if space.K() < 2 {
		t.Skip("space collapsed to one repair; nothing to distinguish")
	}
	v, err := sideeffect.ParseView("Q(a, p) :- Writes(a, p).", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := Answer(db, v, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Possible) == len(ans.Certain) {
		t.Fatalf("expected possible-only answers across %d distinct repairs: certain %d possible %d",
			space.K(), len(ans.Certain), len(ans.Possible))
	}
}

// BenchmarkQueryAnswer is the layer benchmark of the socket benchmark's
// /query: the org query "Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4."
// (304 rows) answered against a k = 4 repair space of MAS-20 over MAS at
// scale 0.2. The space is enumerated outside the timer; each iteration
// parses the view and answers it, as one /query request does.
func BenchmarkQueryAnswer(b *testing.B) {
	md := mas.Generate(mas.Config{Scale: 0.2, Seed: 1})
	src, err := programs.MASSource(20, md)
	if err != nil {
		b.Fatal(err)
	}
	p, err := datalog.ParseAndValidate(src, md.DB.Schema)
	if err != nil {
		b.Fatal(err)
	}
	db := md.DB
	space, err := core.EnumerateRepairsWith(db, p, core.Options{}, core.EnumerateOptions{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		v, err := sideeffect.ParseView("Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4.", db.Schema)
		if err != nil {
			b.Fatal(err)
		}
		ans, err := Answer(db, v, space)
		if err != nil || len(ans.Possible) == 0 {
			b.Fatalf("%d possible rows, err %v", len(ans.Possible), err)
		}
	}
}
