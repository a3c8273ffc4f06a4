package engine

import (
	"strings"
	"testing"
)

// paperSchema builds the running example's schema (Figure 1 of the paper).
func paperSchema() *Schema {
	s := NewSchema()
	s.MustAddRelation("Grant", "g", "gid", "name")
	s.MustAddRelation("AuthGrant", "ag", "aid", "gid")
	s.MustAddRelation("Author", "a", "aid", "name")
	s.MustAddRelation("Writes", "w", "aid", "pid")
	s.MustAddRelation("Pub", "p", "pid", "title")
	s.MustAddRelation("Cite", "c", "citing", "cited")
	return s
}

// paperDatabase builds the database instance D of Figure 1.
func paperDatabase() *Database {
	db := NewDatabase(paperSchema())
	db.MustInsert("Grant", Int(1), Str("NSF"))
	db.MustInsert("Grant", Int(2), Str("ERC"))
	db.MustInsert("AuthGrant", Int(2), Int(1))
	db.MustInsert("AuthGrant", Int(4), Int(2))
	db.MustInsert("AuthGrant", Int(5), Int(2))
	db.MustInsert("Author", Int(2), Str("Maggie"))
	db.MustInsert("Author", Int(4), Str("Marge"))
	db.MustInsert("Author", Int(5), Str("Homer"))
	db.MustInsert("Cite", Int(7), Int(6))
	db.MustInsert("Writes", Int(4), Int(6))
	db.MustInsert("Writes", Int(5), Int(7))
	db.MustInsert("Pub", Int(6), Str("x"))
	db.MustInsert("Pub", Int(7), Str("y"))
	return db
}

func TestSchemaConstruction(t *testing.T) {
	s := paperSchema()
	if len(s.Relations) != 6 {
		t.Fatalf("relations = %d, want 6", len(s.Relations))
	}
	if s.Relation("Grant") == nil || s.Relation("Nope") != nil {
		t.Fatal("Has is wrong")
	}
	if s.Relation("Author").Arity() != 2 {
		t.Fatal("Author arity should be 2")
	}
	names := s.Names()
	if names[0] != "Grant" || names[5] != "Cite" {
		t.Fatalf("Names order wrong: %v", names)
	}
	if !strings.Contains(s.String(), "Writes(aid, pid)") {
		t.Fatalf("schema String missing relation: %s", s)
	}
}

func TestSchemaErrors(t *testing.T) {
	s := NewSchema()
	if _, err := s.AddRelation("", "x", "a"); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := s.AddRelation("R", "", "a", "a"); err == nil {
		t.Error("duplicate attrs should fail")
	}
	if _, err := s.AddRelation("R", ""); err == nil {
		t.Error("no attrs should fail")
	}
	if _, err := s.AddRelation("R", "", "a"); err != nil {
		t.Errorf("valid relation failed: %v", err)
	}
	if _, err := s.AddRelation("R", "", "b"); err == nil {
		t.Error("duplicate relation should fail")
	}
	// Derived prefix from name.
	if s.Relation("R").IDPrefix != "r" {
		t.Errorf("derived prefix = %q, want r", s.Relation("R").IDPrefix)
	}
}

func TestDatabaseInsertMintsPaperIDs(t *testing.T) {
	db := paperDatabase()
	g := db.Relation("Grant").Lookup(1, Str("ERC"))
	if len(g) != 1 || g[0].ID != "g2" {
		t.Fatalf("ERC grant should be g2, got %v", g)
	}
	ag := db.Relation("AuthGrant").Lookup(0, Int(5))
	if len(ag) != 1 || ag[0].ID != "ag3" {
		t.Fatalf("AuthGrant(5,2) should be ag3, got %v", ag)
	}
}

func TestDatabaseInsertErrors(t *testing.T) {
	db := NewDatabase(paperSchema())
	if _, err := db.Insert("Nope", Int(1)); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := db.Insert("Grant", Int(1)); err == nil {
		t.Error("wrong arity should fail")
	}
	a, _ := db.Insert("Grant", Int(1), Str("NSF"))
	b, _ := db.Insert("Grant", Int(1), Str("NSF"))
	if a != b {
		t.Error("re-inserting same content should return the stored tuple")
	}
	if db.Relation("Grant").Len() != 1 {
		t.Error("duplicate insert should not grow the relation")
	}
}

func TestDeleteToDelta(t *testing.T) {
	db := paperDatabase()
	key := ContentKey("Grant", []Value{Int(2), Str("ERC")})
	if !db.DeleteToDelta(key) {
		t.Fatal("DeleteToDelta of live tuple should succeed")
	}
	if db.Relation("Grant").Contains(key) {
		t.Fatal("tuple should be gone from base")
	}
	if !db.Delta("Grant").Contains(key) {
		t.Fatal("tuple should be recorded in delta")
	}
	if db.DeleteToDelta(key) {
		t.Fatal("second DeleteToDelta should report false")
	}
	// Lookup resolves deleted tuples via the delta side.
	if got := db.Lookup(key); got == nil || got.ID != "g2" {
		t.Fatalf("Lookup(%s) = %v, want g2", key, got)
	}
	if db.DeleteToDelta("Garbage") {
		t.Fatal("malformed key should report false")
	}
	if db.DeleteToDelta("Nope(i1)") {
		t.Fatal("unknown relation key should report false")
	}
}

func TestDeleteTupleToDelta(t *testing.T) {
	db := paperDatabase()
	tp := db.Relation("Author").Tuples()[0]
	if !db.DeleteTupleToDelta(tp) {
		t.Fatal("DeleteTupleToDelta should succeed")
	}
	if db.Relation("Author").Len() != 2 || db.Delta("Author").Len() != 1 {
		t.Fatal("counts after delete are wrong")
	}
}

func TestTotalsAndStats(t *testing.T) {
	db := paperDatabase()
	if db.TotalTuples() != 13 {
		t.Fatalf("TotalTuples = %d, want 13", db.TotalTuples())
	}
	if db.TotalDeltaTuples() != 0 {
		t.Fatalf("TotalDeltaTuples = %d, want 0", db.TotalDeltaTuples())
	}
	db.DeleteToDelta(ContentKey("Grant", []Value{Int(2), Str("ERC")}))
	if db.TotalTuples() != 12 || db.TotalDeltaTuples() != 1 {
		t.Fatal("totals after delete are wrong")
	}
	stats := db.Stats()
	if stats[0].Name != "Grant" || stats[0].Live != 1 || stats[0].Deleted != 1 {
		t.Fatalf("Grant stat = %+v", stats[0])
	}
}

func TestDatabaseCloneIsolation(t *testing.T) {
	db := paperDatabase()
	c := db.Clone()
	key := ContentKey("Author", []Value{Int(4), Str("Marge")})
	c.DeleteToDelta(key)
	if !db.Relation("Author").Contains(key) {
		t.Fatal("delete in clone must not affect original")
	}
	if c.Relation("Author").Contains(key) {
		t.Fatal("delete in clone should be visible in clone")
	}
	// Insert into clone mints fresh IDs continuing the sequence.
	tp := c.MustInsert("Author", Int(9), Str("Lisa"))
	if tp.ID != "a4" {
		t.Fatalf("clone insert ID = %s, want a4", tp.ID)
	}
	if db.Relation("Author").Len() != 3 {
		t.Fatal("original should be unaffected by clone insert")
	}
}

func TestRelOfKey(t *testing.T) {
	if rel, ok := relOfKey(`Grant(i2,"ERC")`); !ok || rel != "Grant" {
		t.Fatalf("relOfKey = %q/%v", rel, ok)
	}
	if _, ok := relOfKey("nope"); ok {
		t.Fatal("malformed key should not parse")
	}
	if _, ok := relOfKey("(i1)"); ok {
		t.Fatal("empty relation name should not parse")
	}
}

func TestDatabaseString(t *testing.T) {
	db := paperDatabase()
	s := db.String()
	if !strings.Contains(s, "Grant: 2 live, 0 deleted") {
		t.Fatalf("String missing Grant line:\n%s", s)
	}
	if !strings.Contains(s, "g2: Grant(2, 'ERC')") {
		t.Fatalf("String missing small-relation dump:\n%s", s)
	}
}

func TestLookupUnknown(t *testing.T) {
	db := paperDatabase()
	if db.Lookup("Nope(i1)") != nil {
		t.Fatal("unknown relation lookup should be nil")
	}
	if db.Lookup("garbage") != nil {
		t.Fatal("malformed key lookup should be nil")
	}
	if db.Lookup(ContentKey("Grant", []Value{Int(99), Str("zz")})) != nil {
		t.Fatal("missing tuple lookup should be nil")
	}
}
