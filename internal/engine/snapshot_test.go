package engine

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := paperDatabase()
	// Delete a couple of tuples so the delta side is non-trivial.
	db.DeleteToDelta(ContentKey("Grant", []Value{Int(2), Str("ERC")}))
	db.DeleteToDelta(ContentKey("Author", []Value{Int(4), Str("Marge")}))
	// Grant's columns turn mixed-kind, and -0.0 is stored beside +0.0: the
	// segment frames keep every value's kind and float bits.
	db.MustInsert("Grant", Float(math.Copysign(0, -1)), Str("NSF"))
	db.MustInsert("Grant", Float(0), Str("NSF"))
	db.MustInsert("Grant", Str("g9"), Float(2.5))

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Schema round trip.
	if len(back.Schema.Relations) != len(db.Schema.Relations) {
		t.Fatal("schema relation count differs")
	}
	for i, rs := range db.Schema.Relations {
		brs := back.Schema.Relations[i]
		if rs.Name != brs.Name || rs.IDPrefix != brs.IDPrefix || strings.Join(rs.Attrs, ",") != strings.Join(brs.Attrs, ",") {
			t.Fatalf("schema relation %d differs: %v vs %v", i, rs, brs)
		}
	}
	// Contents round trip exactly, including order, IDs, deltas, value
	// kinds and float bits.
	for _, rs := range db.Schema.Relations {
		for _, side := range [][2]*Relation{{db.Relation(rs.Name), back.Relation(rs.Name)}, {db.Delta(rs.Name), back.Delta(rs.Name)}} {
			a, b := side[0].Tuples(), side[1].Tuples()
			if len(a) != len(b) {
				t.Fatalf("%s: %d vs %d tuples", rs.Name, len(a), len(b))
			}
			for i := range a {
				if a[i].Key() != b[i].Key() || a[i].ID != b[i].ID || a[i].Seq != b[i].Seq {
					t.Fatalf("%s[%d]: %v vs %v", rs.Name, i, a[i], b[i])
				}
				for j, v := range a[i].Vals {
					w := b[i].Vals[j]
					if v.Kind != w.Kind || v.Int != w.Int || v.Str != w.Str || math.Float64bits(v.Flt) != math.Float64bits(w.Flt) {
						t.Fatalf("%s[%d] column %d: %#v vs %#v", rs.Name, i, j, v, w)
					}
				}
			}
		}
	}
	// Inserting after load continues the ID sequence without collisions.
	tp := back.MustInsert("Author", Int(99), Str("Lisa"))
	if tp.ID != "a4" {
		t.Fatalf("post-load insert ID = %s, want a4", tp.ID)
	}
	if tp.Seq <= 13 {
		t.Fatalf("post-load Seq = %d should exceed loaded maximum", tp.Seq)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.snap")
	db := paperDatabase()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := LoadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalTuples() != db.TotalTuples() {
		t.Fatalf("tuple counts differ: %d vs %d", back.TotalTuples(), db.TotalTuples())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSnapshotErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := paperDatabase().Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	layout, _ := cutFrame(good)
	for name, data := range map[string][]byte{
		"garbage":     []byte("not a snapshot"),
		"layout only": layout,
		"truncated":   good[:len(good)-1],
		"trailing":    append(slices.Clone(good), 0),
	} {
		if _, err := LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	if err := paperDatabase().Save(failingWriter{}); err == nil {
		t.Fatal("a failing writer should fail Save")
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	db := NewDatabase(paperSchema())
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalTuples() != 0 || len(back.Schema.Relations) != 6 {
		t.Fatal("empty database should round trip")
	}
}

// TestSnapshotPreWarmsIndexes: indexes built before Save are rebuilt by
// LoadSnapshot, so a restored session pays no first-query latency spike.
func TestSnapshotPreWarmsIndexes(t *testing.T) {
	db := paperDatabase()
	db.Relation("Grant").EnsureIndex(0)
	db.Relation("AuthGrant").EnsureIndex(1)
	db.DeleteToDelta(ContentKey("Grant", []Value{Int(2), Str("ERC")}))
	db.Delta("Grant").EnsureIndex(1)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cols := back.Relation("Grant").IndexedColumns(); len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("Grant base indexes after restore = %v, want [0]", cols)
	}
	if cols := back.Relation("AuthGrant").IndexedColumns(); len(cols) != 1 || cols[0] != 1 {
		t.Fatalf("AuthGrant base indexes after restore = %v, want [1]", cols)
	}
	if cols := back.Delta("Grant").IndexedColumns(); len(cols) != 1 || cols[0] != 1 {
		t.Fatalf("Grant delta indexes after restore = %v, want [1]", cols)
	}
	// The rebuilt index must answer correctly.
	if n := back.Relation("Grant").LookupCount(0, Int(1)); n != 1 {
		t.Fatalf("restored index lookup = %d, want 1", n)
	}
}

// TestSnapshotSeqCounterSurvivesDeletes: the global Seq counter must
// round-trip even when the highest-Seq tuples were deleted before the
// save — otherwise tuples minted after a load would reuse Seq numbers,
// breaking byte-identical replay in crash recovery.
func TestSnapshotSeqCounterSurvivesDeletes(t *testing.T) {
	schema, err := ParseSchema("R(a)")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	keep := db.MustInsert("R", Int(1))
	doomed := db.MustInsert("R", Int(2))
	db.Relation("R").DeleteTuple(doomed)
	_ = keep

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := db.MustInsert("R", Int(3))
	reloaded := loaded.MustInsert("R", Int(3))
	if orig.Seq != reloaded.Seq {
		t.Fatalf("post-load Seq diverged: original %d, reloaded %d", orig.Seq, reloaded.Seq)
	}
	if orig.ID != reloaded.ID {
		t.Fatalf("post-load ID diverged: original %s, reloaded %s", orig.ID, reloaded.ID)
	}
}
