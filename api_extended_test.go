package deltarepair_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	deltarepair "repro"
)

func TestPublicAPIEnumerateAndQuery(t *testing.T) {
	db, prog := apiDB(t)
	space, err := deltarepair.EnumerateRepairs(db, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	if space.K() < 2 || !space.Optimal {
		t.Fatalf("running example space: k=%d optimal=%v", space.K(), space.Optimal)
	}
	single, _, err := deltarepair.Repair(db, prog, deltarepair.Independent)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(space.Repairs[0].Keys()), fmt.Sprint(single.Keys()); got != want {
		t.Fatalf("repairs[0] %s != single independent repair %s", got, want)
	}
	// Grant(1,'NSF') survives every repair, Grant(2,'ERC') none.
	v, err := deltarepair.ParseView("Q(g, n) :- Grant(g, n).", db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := deltarepair.AnswerQuery(db, v, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Certain) != 1 || len(ans.Possible) != 1 || ans.Certain[0][1].Str != "NSF" {
		t.Fatalf("Grant CQA: certain %v possible %v, want the single NSF row", ans.Certain, ans.Possible)
	}
}

func TestPublicAPIReport(t *testing.T) {
	db, prog := apiDB(t)
	var buf bytes.Buffer
	if err := deltarepair.WriteReport(&buf, db, prog); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Repairs", "| independent | 3 |", "## Recommendation"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestPublicAPIProvenanceDOT(t *testing.T) {
	db, prog := apiDB(t)
	dot, err := deltarepair.ProvenanceDOT(db, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph provenance") || !strings.Contains(dot, "layer 4") {
		t.Fatalf("DOT output wrong:\n%s", dot)
	}
}

func TestPublicAPISideEffect(t *testing.T) {
	schema, err := deltarepair.ParseSchema(`
		Emp(id, dept)
		Dept(id, name)
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := deltarepair.NewDatabase(schema)
	db.MustInsert("Dept", deltarepair.Int(1), deltarepair.Str("eng"))
	db.MustInsert("Emp", deltarepair.Int(10), deltarepair.Int(1))
	db.MustInsert("Emp", deltarepair.Int(11), deltarepair.Int(1))

	view, err := deltarepair.ParseView("Staffed(n) :- Dept(d, n), Emp(e, d).", schema)
	if err != nil {
		t.Fatal(err)
	}
	res, repaired, err := deltarepair.DeleteViewTuple(db, view,
		[]deltarepair.Value{deltarepair.Str("eng")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cheapest: delete the single Dept tuple (1) rather than both Emps (2).
	if res.Size() != 1 || res.Deleted[0].Rel != "Dept" {
		t.Fatalf("side-effect solution = %v", res.Deleted)
	}
	if repaired.Relation("Emp").Len() != 2 {
		t.Fatal("employees should survive")
	}
}

// TestPublicAPISideEffectPreDeleted is the facade's view deletion on a
// database holding a tuple deleted beforehand whose cascade is unmet: the
// cascade R(4,30) joins the answer, and the pre-deleted S(30,300) is not
// listed as a deletion.
func TestPublicAPISideEffectPreDeleted(t *testing.T) {
	schema, err := deltarepair.ParseSchema(`
		R(a, b)
		S(b, c)
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := deltarepair.NewDatabase(schema)
	for _, r := range [][2]int{{1, 10}, {2, 10}, {3, 20}, {4, 30}} {
		db.MustInsert("R", deltarepair.Int(r[0]), deltarepair.Int(r[1]))
	}
	for _, s := range [][2]int{{10, 100}, {20, 200}} {
		db.MustInsert("S", deltarepair.Int(s[0]), deltarepair.Int(s[1]))
	}
	db.DeleteTupleToDelta(db.MustInsert("S", deltarepair.Int(30), deltarepair.Int(300)))
	prog, err := deltarepair.ParseProgram(`Delta_R(a, b) :- R(a, b), Delta_S(b, c).`, schema)
	if err != nil {
		t.Fatal(err)
	}
	view, err := deltarepair.ParseView("V(c) :- R(a, b), S(b, c).", schema)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := deltarepair.DeleteViewTuple(db, view, []deltarepair.Value{deltarepair.Int(100)}, prog)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, tp := range res.Deleted {
		keys = append(keys, tp.Key())
	}
	if got := strings.Join(keys, " "); got != "R(i1,i10) R(i2,i10) R(i4,i30)" || !res.Optimal {
		t.Fatalf("deleted %s (optimal %v), want R(i1,i10) R(i2,i10) R(i4,i30) proven", got, res.Optimal)
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	db, prog := apiDB(t)
	res, repaired, err := deltarepair.Repair(db, prog, deltarepair.Stage)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := deltarepair.SaveSnapshot(repaired, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := deltarepair.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalTuples() != repaired.TotalTuples() {
		t.Fatal("live tuples differ after snapshot round trip")
	}
	if back.TotalDeltaTuples() != res.Size() {
		t.Fatalf("delta tuples = %d, want %d", back.TotalDeltaTuples(), res.Size())
	}
	// The restored database is stable under the program.
	ok, err := deltarepair.IsStable(back, prog)
	if err != nil || !ok {
		t.Fatal("restored repaired database should be stable")
	}
}

func TestPublicAPIRepairAfterDeletionsError(t *testing.T) {
	db, prog := apiDB(t)
	if _, _, err := deltarepair.RepairAfterDeletions(db, prog, []string{"Nope(i1)"}, deltarepair.End); err == nil {
		t.Fatal("unknown key should error")
	}
}
