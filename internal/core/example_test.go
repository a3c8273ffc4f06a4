package core

// This file fixes the paper's running example (Figures 1, 2, 4, 5 and
// Examples 1.3, 3.4, 3.6, 3.8, 3.11, 5.1, 5.2) as test fixtures shared by
// the semantics tests.

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// academicSchema is the schema of Figure 1.
func academicSchema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("Grant", "g", "gid", "name")
	s.MustAddRelation("AuthGrant", "ag", "aid", "gid")
	s.MustAddRelation("Author", "a", "aid", "name")
	s.MustAddRelation("Writes", "w", "aid", "pid")
	s.MustAddRelation("Pub", "p", "pid", "title")
	s.MustAddRelation("Cite", "c", "citing", "cited")
	return s
}

// academicDB is the database instance D of Figure 1.
func academicDB() *engine.Database {
	db := engine.NewDatabase(academicSchema())
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

// academicProgram is the delta program of Figure 2.
func academicProgram(t testing.TB) *datalog.Program {
	t.Helper()
	p, err := datalog.ParseAndValidate(`
(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
(1) Delta_Author(a, n) :- Author(a, n), AuthGrant(a, g), Delta_Grant(g, gn).
(2) Delta_Pub(p, t) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).
(3) Delta_Writes(a, p) :- Pub(p, t), Writes(a, p), Delta_Author(a, n).
(4) Delta_Cite(c, p) :- Cite(c, p), Delta_Pub(p, t), Writes(a1, c), Writes(a2, p).
`, academicSchema())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ids extracts tuple IDs from a result for compact assertions.
func ids(r *Result) map[string]bool {
	out := make(map[string]bool, r.Size())
	for _, t := range r.Deleted {
		out[t.ID] = true
	}
	return out
}

func wantIDs(t *testing.T, r *Result, want ...string) {
	t.Helper()
	got := ids(r)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples %v, want %d %v", r.Semantics, len(got), r.Keys(), len(want), want)
	}
	for _, id := range want {
		if !got[id] {
			t.Fatalf("%s: missing %s in %v", r.Semantics, id, r.Keys())
		}
	}
}

// mustStable asserts that applying the result to the database stabilizes it.
func mustStable(t *testing.T, db *engine.Database, p *datalog.Program, r *Result) {
	t.Helper()
	if _, err := applyVerified(db, p, r); err != nil {
		t.Fatalf("%s result is not stabilizing: %v", r.Semantics, err)
	}
}
