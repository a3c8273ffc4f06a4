package durability

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// testDB builds a small two-relation database.
func testDB(t *testing.T) (*engine.Schema, *engine.Database) {
	t.Helper()
	schema := engine.NewSchema()
	if _, err := schema.AddRelation("R", "r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := schema.AddRelation("S", "s", "x"); err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	for i := int64(0); i < 5; i++ {
		if _, err := db.Insert("R", engine.Int64(i), engine.Int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("S", engine.Str("hello")); err != nil {
		t.Fatal(err)
	}
	return schema, db
}

func mgr(t *testing.T, dir string, every int) *Manager {
	t.Helper()
	m, err := NewManager(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func row(rel string, vals ...engine.Value) engine.Row { return engine.Row{Rel: rel, Vals: vals} }

// dumpSnap renders a snapshot's full content, base and delta,
// deterministically for byte-identity assertions.
func dumpSnap(t *testing.T, s *engine.Snapshot) string {
	t.Helper()
	var out string
	fork := s.Fork()
	for _, rs := range fork.Schema.Relations {
		for _, rel := range []*engine.Relation{fork.Relation(rs.Name), fork.Delta(rs.Name)} {
			rel.Scan(func(tu *engine.Tuple) bool {
				out += tu.ID + "|" + tu.Rel + "|" + tu.Key() + "\n"
				return true
			})
			out += "--\n"
		}
	}
	return out
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, 0)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "sess", Schema: "R(a,b)\nS(x)", Program: "p"}, db)
	if err != nil {
		t.Fatal(err)
	}

	want := db.Freeze()
	// Two update batches.
	for v := uint64(2); v <= 3; v++ {
		var rec Record
		rec.Version = v
		rec.Inserts = []engine.Row{row("R", engine.Int64(int64(100*v)), engine.Int64(1))}
		if v == 3 {
			rec.Deletes = []engine.Row{row("S", engine.Str("hello"))}
		}
		next, _, err := want.Apply(rec.Inserts, rec.Deletes)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(&rec); err != nil {
			t.Fatal(err)
		}
		want = next
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := m.Open("sess")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if rec.Version != 3 || rec.Replayed != 2 || rec.SnapshotVersion != 1 {
		t.Fatalf("recovered version=%d replayed=%d snapVer=%d, want 3/2/1",
			rec.Version, rec.Replayed, rec.SnapshotVersion)
	}
	if !rec.WalStats.Clean() {
		t.Fatalf("clean WAL reported damage: %+v", rec.WalStats)
	}
	if rec.Meta.Program != "p" || rec.Meta.Name != "sess" {
		t.Fatalf("meta round trip: %+v", rec.Meta)
	}
	if got, want := dumpSnap(t, rec.Snapshot), dumpSnap(t, want); got != want {
		t.Fatalf("recovered state differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestDuplicateCreate(t *testing.T) {
	m := mgr(t, t.TempDir(), 0)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "dup"}, db)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	_, db2 := testDB(t)
	if _, err := m.Create(Meta{Name: "dup"}, db2); !os.IsExist(err) {
		t.Fatalf("duplicate create: got %v, want ErrExist", err)
	}
}

func TestExistsListDelete(t *testing.T) {
	m := mgr(t, t.TempDir(), 0)
	for _, name := range []string{"zz", "aa", "weird/../name with spaces"} {
		_, db := testDB(t)
		st, err := m.Create(Meta{Name: name}, db)
		if err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
		st.Close()
		if !m.Exists(name) {
			t.Fatalf("Exists(%q) = false after create", name)
		}
	}
	names, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "aa" || names[2] != "zz" {
		t.Fatalf("List = %v", names)
	}
	if err := m.Delete("aa"); err != nil {
		t.Fatal(err)
	}
	if m.Exists("aa") {
		t.Fatal("Exists after Delete")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, 0)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "torn"}, db)
	if err != nil {
		t.Fatal(err)
	}
	good := &Record{Version: 2, Inserts: []engine.Row{row("S", engine.Str("a"))}}
	if err := st.Append(good); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a crash mid-append: a second record with its payload cut
	// short.
	frame, err := EncodeRecord(&Record{Version: 3, Inserts: []engine.Row{row("S", engine.Str("b"))}})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, encodeName("torn"), "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, walPath)

	rec, err := m.Open("torn")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if rec.Version != 2 || rec.Replayed != 1 {
		t.Fatalf("recovered version=%d replayed=%d, want 2/1", rec.Version, rec.Replayed)
	}
	if !rec.WalStats.TornTail || rec.WalStats.CorruptRecords != 0 {
		t.Fatalf("stats = %+v, want torn tail", rec.WalStats)
	}
	if got := fileSize(t, walPath); got >= sizeBefore || got != rec.WalStats.TruncatedAt {
		t.Fatalf("WAL not truncated: size %d (was %d), TruncatedAt %d",
			got, sizeBefore, rec.WalStats.TruncatedAt)
	}

	// The repaired log accepts new appends and recovers again cleanly.
	if err := rec.Store.Append(&Record{Version: 3, Inserts: []engine.Row{row("S", engine.Str("c"))}}); err != nil {
		t.Fatal(err)
	}
	rec.Store.Close()
	again, err := m.Open("torn")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Store.Close()
	if again.Version != 3 || !again.WalStats.Clean() {
		t.Fatalf("post-repair recovery: version=%d stats=%+v", again.Version, again.WalStats)
	}
}

func TestCorruptChecksumTruncated(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, 0)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "corrupt"}, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(&Record{Version: 2, Inserts: []engine.Row{row("S", engine.Str("a"))}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(&Record{Version: 3, Inserts: []engine.Row{row("S", engine.Str("b"))}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Flip one payload byte in the final record.
	walPath := filepath.Join(dir, encodeName("corrupt"), "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := m.Open("corrupt")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if rec.Version != 2 || rec.Replayed != 1 {
		t.Fatalf("recovered version=%d replayed=%d, want 2/1", rec.Version, rec.Replayed)
	}
	if rec.WalStats.CorruptRecords != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt record", rec.WalStats)
	}
	if got := fileSize(t, walPath); got != rec.WalStats.TruncatedAt {
		t.Fatalf("WAL size %d != TruncatedAt %d", got, rec.WalStats.TruncatedAt)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, 2)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "compact"}, db)
	if err != nil {
		t.Fatal(err)
	}
	head := db.Freeze()
	for v := uint64(2); v <= 5; v++ {
		ins := []engine.Row{row("S", engine.Int64(int64(v)))}
		next, _, err := head.Apply(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		head = next
		if err := st.Append(&Record{Version: v, Inserts: ins}); err != nil {
			t.Fatal(err)
		}
		if st.ShouldCompact() {
			if err := st.Compact(head, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 4 appends with cadence 2 → compactions at v=3 and v=5; WAL empty.
	if st.SnapshotVersion() != 5 {
		t.Fatalf("snapshot version = %d, want 5", st.SnapshotVersion())
	}
	sessDir := filepath.Join(dir, encodeName("compact"))
	if got := fileSize(t, filepath.Join(sessDir, "wal.log")); got != 0 {
		t.Fatalf("WAL size after compaction = %d, want 0", got)
	}
	entries, _ := os.ReadDir(sessDir)
	manifests := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".manifest" {
			manifests++
		}
	}
	if manifests != 1 {
		t.Fatalf("%d checkpoint manifests after compaction, want 1", manifests)
	}
	st.Close()

	rec, err := m.Open("compact")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if rec.Version != 5 || rec.Replayed != 0 || rec.SnapshotVersion != 5 {
		t.Fatalf("recovered version=%d replayed=%d snapVer=%d, want 5/0/5",
			rec.Version, rec.Replayed, rec.SnapshotVersion)
	}
	if got, want := dumpSnap(t, rec.Snapshot), dumpSnap(t, head); got != want {
		t.Fatalf("compacted recovery differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrashBetweenSnapshotAndTruncate covers the compaction crash window:
// the new checkpoint is in place but the WAL still holds records at or
// below its version. Recovery must skip them.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, -1)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "window"}, db)
	if err != nil {
		t.Fatal(err)
	}
	head := db.Freeze()
	for v := uint64(2); v <= 4; v++ {
		ins := []engine.Row{row("S", engine.Int64(int64(v)))}
		next, _, err := head.Apply(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		head = next
		if err := st.Append(&Record{Version: v, Inserts: ins}); err != nil {
			t.Fatal(err)
		}
	}
	// Write the checkpoint at version 3 directly, without truncating the
	// WAL — exactly the state a crash between rename and truncate leaves.
	cur := db.Freeze()
	for v := uint64(2); v <= 3; v++ {
		next, _, err := cur.Apply([]engine.Row{row("S", engine.Int64(int64(v)))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if err := st.writeCheckpoint(cur, 3, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rec, err := m.Open("window")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if rec.SnapshotVersion != 3 || rec.Version != 4 || rec.Replayed != 1 {
		t.Fatalf("recovered snapVer=%d version=%d replayed=%d, want 3/4/1",
			rec.SnapshotVersion, rec.Version, rec.Replayed)
	}
	if got, want := dumpSnap(t, rec.Snapshot), dumpSnap(t, head); got != want {
		t.Fatalf("crash-window recovery differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
