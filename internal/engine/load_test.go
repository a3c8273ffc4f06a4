package engine

import (
	"fmt"
	"math"
	"testing"
)

// loadEdgeValues are the values whose content keys are easy to get wrong:
// 1 against 1.0, -0.0 against 0.0, NaNs of two payloads (all render
// "NaN"), infinities, strings that look like numbers or keys, a kind the
// engine does not define (it renders as a quoted string), and values
// carrying stray fields the key ignores.
var loadEdgeValues = []Value{
	Int(0), Int(1), Int(-1), Int(math.MaxInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-1.5),
	Float(math.NaN()), Float(math.Float64frombits(0xFFF0000000000123)),
	Float(math.Inf(1)), Float(math.Inf(-1)),
	Str(""), Str("1"), Str("i1"), Str("f1"), Str("a,b"),
	{Kind: 7, Str: "1"},
	{Kind: KindInt, Int: 1, Str: "stray"},
	{Kind: KindString, Str: "1", Int: 9, Flt: 2},
	{Kind: KindFloat, Flt: 1, Int: 4},
}

// TestSameContentIsContentKeyEquality: the bulk loader's duplicate check
// agrees with content-key equality on every pair of edge values, and
// content it calls equal hashes equally.
func TestSameContentIsContentKeyEquality(t *testing.T) {
	for _, a := range loadEdgeValues {
		for _, b := range loadEdgeValues {
			x, y := []Value{Int(3), a}, []Value{Int(3), b}
			want := ContentKey("R", x) == ContentKey("R", y)
			if got := sameContent(x, y); got != want {
				t.Errorf("sameContent(%#v, %#v) = %v, content keys say %v", a, b, got, want)
			}
		}
	}
	// One call's keying, as dedupRows uses it: equal content, equal hash.
	rows := make([]Value, 0, 2*len(loadEdgeValues))
	for _, v := range loadEdgeValues {
		rows = append(rows, v, v)
	}
	if n := dedupRows(rows, 1, nil); n != len(loadEdgeValues)-5 {
		// Five values repeat an earlier one's key: the second NaN, the stray
		// int 1, the string "1" of kind 7 and of stray fields, the float 1.
		t.Errorf("dedupRows kept %d of %d doubled edge values, want %d", n, 2*len(loadEdgeValues), len(loadEdgeValues)-5)
	}
}

// loadRowsFixture is a schema and per-relation rows covering duplicates
// (exact, and of equal keys under different bit patterns), 1 against 1.0,
// -0.0, mixed-kind columns, an empty relation and one given no rows at
// all.
func loadRowsFixture() (*Schema, [][][]Value) {
	schema, err := ParseSchema("R:r(a, b)\nS(x)\nEmpty(e)\nAbsent:ab(z)")
	if err != nil {
		panic(err)
	}
	var r [][]Value
	for i, v := range loadEdgeValues {
		r = append(r, []Value{v, Int(i % 3)}, []Value{Str("row"), v})
	}
	for i, v := range loadEdgeValues {
		r = append(r, []Value{v, Int(i % 3)}) // every one a duplicate
	}
	s := [][]Value{{Int(1)}, {Float(1)}, {Int(1)}, {Str("1")}, {Float(math.Copysign(0, -1))}, {Float(0)}, {Float(math.Copysign(0, -1))}}
	return schema, [][][]Value{r, s, {}, nil}
}

// insertReference builds the database the loaders must reproduce: every
// row inserted one at a time, relation by relation in schema order.
func insertReference(schema *Schema, rows [][][]Value) *Database {
	db := NewDatabase(schema)
	for i, rel := range rows {
		for _, row := range rel {
			db.MustInsert(schema.Relations[i].Name, row...)
		}
	}
	return db
}

// checkSameDatabase compares two databases by their observable state:
// per relation the (ID, Seq, key) sequence of the base and delta sides,
// the ID counters and the sequence counter.
func checkSameDatabase(t *testing.T, tag string, got, want *Database) {
	t.Helper()
	for _, rs := range want.Schema.Relations {
		if !sameRows(got.Relation(rs.Name).Tuples(), want.Relation(rs.Name).Tuples()) {
			t.Fatalf("%s: %s base %v, want %v", tag, rs.Name, got.Relation(rs.Name).Tuples(), want.Relation(rs.Name).Tuples())
		}
		if !sameRows(got.Delta(rs.Name).Tuples(), want.Delta(rs.Name).Tuples()) {
			t.Fatalf("%s: %s delta %v, want %v", tag, rs.Name, got.Delta(rs.Name).Tuples(), want.Delta(rs.Name).Tuples())
		}
		if got.nextID[rs.Name] != want.nextID[rs.Name] {
			t.Fatalf("%s: %s next ID %d, want %d", tag, rs.Name, got.nextID[rs.Name], want.nextID[rs.Name])
		}
	}
	if got.seq != want.seq {
		t.Fatalf("%s: seq %d, want %d", tag, got.seq, want.seq)
	}
}

// TestLoadRowsMatchesInsert: LoadRows seals exactly what inserting the
// rows one at a time reaches — IDs, Seqs, order, set semantics, counters —
// as a pristine database whose Freeze is the cached snapshot and counts no
// fork; and the two stay equal through a chain of Snapshot.Apply batches
// that hit the dedup edge cases again.
func TestLoadRowsMatchesInsert(t *testing.T) {
	schema, rows := loadRowsFixture()
	want := insertReference(schema, rows)
	blocks := make([][]Value, len(rows))
	for i, rel := range rows {
		for _, row := range rel {
			blocks[i] = append(blocks[i], row...)
		}
	}
	got, err := LoadRows(schema, blocks)
	if err != nil {
		t.Fatal(err)
	}
	checkSameDatabase(t, "load", got, want)
	for name, r := range got.base {
		if !r.pristine() || (r.Len() > 0) != (len(r.frozen.segs) == 1) {
			t.Fatalf("%s: not one sealed segment read pristine", name)
		}
	}
	if snap := got.snap; got.Freeze() != snap || snap.Forks() != 0 {
		t.Fatalf("Freeze of a loaded database re-froze it or counted a fork (%d)", snap.Forks())
	}

	gs, ws := got.Freeze(), want.Freeze()
	batches := []struct{ ins, del []Row }{
		{ins: []Row{{"R", []Value{Float(1), Int(1)}}, {"S", []Value{Int(1)}}, {"Empty", []Value{Str("e")}}}},
		{del: []Row{{"S", []Value{Float(math.Copysign(0, -1))}}, {"R", []Value{Str("row"), Float(math.NaN())}}},
			ins: []Row{{"S", []Value{Float(0)}}, {"Absent", []Value{Int(7)}}, {"S", []Value{Float(math.Copysign(0, -1))}}}},
		{del: []Row{{"R", []Value{Int(0), Int(0)}}}, ins: []Row{{"R", []Value{Int(0), Int(0)}}}},
	}
	for i, b := range batches {
		var err error
		if gs, _, err = gs.Apply(b.ins, b.del); err != nil {
			t.Fatal(err)
		}
		if ws, _, err = ws.Apply(b.ins, b.del); err != nil {
			t.Fatal(err)
		}
		checkSameDatabase(t, fmt.Sprintf("after batch %d", i), gs.Fork(), ws.Fork())
	}

	if _, err := LoadRows(schema, [][]Value{{Int(1)}, nil, nil, nil}); err == nil {
		t.Error("a block that is not whole rows loaded")
	}
	if _, err := LoadRows(schema, make([][]Value, 3)); err == nil {
		t.Error("fewer blocks than relations loaded")
	}
}
