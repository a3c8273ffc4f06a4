package durability

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// testdata/ckpt-v1 is a session directory written by the manifest encoder
// durability owned before the layout codec moved into engine: meta.json, a
// WAL of two records, ckpt-6.manifest and the segment files it names. It
// is never regenerated; it pins that data directories written since
// checkpoints were introduced keep opening.
const fixtureName = "fixture"

// buildFixture runs the fixture session's history through m and returns
// its head at version 8: a mixed-kind column with a -0.0 cell, a delta
// side, a warm index, base and recent tombstones, a checkpoint at version
// 6 and two WAL records past it.
func buildFixture(t *testing.T, m *Manager) *engine.Snapshot {
	t.Helper()
	_, db := testDB(t)
	for i := int64(0); i < 40; i++ {
		b := engine.Str(string(rune('a' + i%7)))
		if i%5 == 0 {
			b = engine.Float(float64(i) / 4)
		}
		db.MustInsert("R", engine.Int64(100+i), b)
	}
	db.MustInsert("R", engine.Int64(99), engine.Float(math.Copysign(0, -1)))
	db.MustInsert("S", engine.Float(2.5))
	db.Relation("R").EnsureIndex(1)
	for _, tp := range db.Relation("R").Tuples()[3:6] {
		db.DeleteTupleToDelta(tp)
	}
	st, err := m.Create(Meta{Name: fixtureName, Schema: "R(a,b)\nS(x)", Program: "p"}, db)
	if err != nil {
		t.Fatal(err)
	}
	head := appendN(t, st, db.Freeze(), 1, 5)
	rec := &Record{Version: 6, Deletes: []engine.Row{row("R", engine.Int64(1), engine.Int64(10)), row("R", engine.Int64(111), engine.Str("e"))}}
	next, _, err := head.Apply(rec.Inserts, rec.Deletes)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(next, 6); err != nil {
		t.Fatal(err)
	}
	head = appendN(t, st, next, 6, 8)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return head
}

// TestCheckpointFixtureOpens opens a copy of the committed fixture
// directory and checks the recovered head against the same history run in
// this build.
func TestCheckpointFixtureOpens(t *testing.T) {
	src := filepath.Join("testdata", "ckpt-v1")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sessDir := filepath.Join(dir, encodeName(fixtureName))
	if err := os.Mkdir(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sessDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := mgr(t, dir, -1).Open(fixtureName)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	want := buildFixture(t, mgr(t, t.TempDir(), -1))
	if rec.Version != 8 || rec.SnapshotVersion != 6 || rec.Replayed != 2 {
		t.Fatalf("recovered version %d from checkpoint %d replaying %d, want 8/6/2", rec.Version, rec.SnapshotVersion, rec.Replayed)
	}
	if got, want := dumpSnap(t, rec.Snapshot), dumpSnap(t, want); got != want {
		t.Fatalf("recovered head:\n%s\nwant:\n%s", got, want)
	}
	if got, want := layoutShape(rec.Snapshot), layoutShape(want); got != want {
		t.Fatalf("recovered layout:\n%s\nwant:\n%s", got, want)
	}
	if got := rec.Snapshot.Layout().Relations[0].Base.Warm; len(got) != 1 || got[0] != 1 {
		t.Fatalf("recovered R warm columns %v, want [1]", got)
	}
}
