package engine

import (
	"fmt"
	"sync"
	"testing"
)

func updateTestSnapshot(t *testing.T) (*Snapshot, *Schema) {
	t.Helper()
	schema, err := ParseSchema("R(a, b)\nS(a)\nT(a)")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	for i := 0; i < 8; i++ {
		db.MustInsert("R", Int(i), Int(i*10))
	}
	db.MustInsert("S", Int(1))
	db.MustInsert("S", Int(2))
	db.MustInsert("T", Int(7))
	return db.Freeze(), schema
}

func relKeys(db *Database, rel string) string {
	return fmt.Sprintf("%v", db.Relation(rel).Keys())
}

func TestSnapshotApplyBasics(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	next, info, err := snap.Apply(
		[]Row{{Rel: "S", Vals: []Value{Int(3)}}, {Rel: "S", Vals: []Value{Int(1)}}},                  // Int(1) is a dup
		[]Row{{Rel: "R", Vals: []Value{Int(0), Int(0)}}, {Rel: "R", Vals: []Value{Int(99), Int(0)}}}, // Int(99) absent
	)
	if err != nil {
		t.Fatal(err)
	}
	if info.Inserted != 1 || info.Deleted != 1 {
		t.Fatalf("info counts: %+v, want 1 insert / 1 delete applied", info)
	}
	if got := fmt.Sprintf("%v", info.Changed); got != "[R S]" {
		t.Fatalf("changed relations %s, want [R S]", got)
	}

	// New version sees the changes; the old version is untouched.
	newDB, oldDB := next.Fork(), snap.Fork()
	if newDB.Relation("R").Len() != 7 || newDB.Relation("S").Len() != 3 {
		t.Fatalf("new version contents: R=%d S=%d", newDB.Relation("R").Len(), newDB.Relation("S").Len())
	}
	if oldDB.Relation("R").Len() != 8 || oldDB.Relation("S").Len() != 2 {
		t.Fatalf("old version mutated: R=%d S=%d", oldDB.Relation("R").Len(), oldDB.Relation("S").Len())
	}
	if newDB.Relation("R").Contains("R(i0,i0)") {
		t.Fatal("deleted row still live in new version")
	}
	if !newDB.Relation("S").Contains("S(i3)") {
		t.Fatal("inserted row missing from new version")
	}
	// Base-table deletes are upstream churn, not repairs: no delta record.
	if newDB.Delta("R").Len() != 0 {
		t.Fatalf("update recorded %d delta tuples", newDB.Delta("R").Len())
	}
}

func TestSnapshotApplySharesUntouchedCores(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	// Warm an index on the untouched relation so sharing is observable work
	// saved, not just pointer equality.
	snap.base["R"].segs[0].index(0)

	next, _, err := snap.Apply(nil, []Row{{Rel: "S", Vals: []Value{Int(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if next == snap {
		t.Fatal("effective update returned the same snapshot")
	}
	if next.base["R"] != snap.base["R"] || next.base["T"] != snap.base["T"] {
		t.Fatal("untouched relation cores not shared across versions")
	}
	if next.base["S"] == snap.base["S"] {
		t.Fatal("touched relation core unexpectedly shared")
	}
	if next.base["R"].segs[0].indexes.Load() != snap.base["R"].segs[0].indexes.Load() {
		t.Fatal("untouched relation's warm indexes not shared")
	}
	// Deltas were never touched: all shared.
	for name := range snap.delta {
		if next.delta[name] != snap.delta[name] {
			t.Fatalf("delta core %s not shared", name)
		}
	}
}

func TestSnapshotApplyNoOpReturnsReceiver(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	next, info, err := snap.Apply(
		[]Row{{Rel: "S", Vals: []Value{Int(1)}}},           // already present
		[]Row{{Rel: "R", Vals: []Value{Int(42), Int(42)}}}, // absent
	)
	if err != nil {
		t.Fatal(err)
	}
	if next != snap {
		t.Fatal("no-op batch minted a new snapshot")
	}
	if info.Inserted != 0 || info.Deleted != 0 || len(info.Changed) != 0 {
		t.Fatalf("no-op info: %+v", info)
	}
}

func TestSnapshotApplyValidatesAtomically(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	if _, _, err := snap.Apply([]Row{{Rel: "Nope", Vals: []Value{Int(1)}}}, nil); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, _, err := snap.Apply([]Row{{Rel: "S", Vals: []Value{Int(1), Int(2)}}}, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	// A bad row anywhere in the batch fails before any work: the receiver
	// must still be the frozen head with its full contents.
	if _, _, err := snap.Apply(
		[]Row{{Rel: "S", Vals: []Value{Int(77)}}, {Rel: "Nope", Vals: []Value{Int(1)}}},
		[]Row{{Rel: "S", Vals: []Value{Int(1)}}},
	); err == nil {
		t.Error("mixed good/bad batch accepted")
	}
	if db := snap.Fork(); db.Relation("S").Len() != 2 || db.Relation("S").Contains("S(i77)") {
		t.Error("failed batch partially applied")
	}
}

func TestSnapshotApplyDeleteThenReinsert(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	// Deleting and re-inserting the same content in one batch replaces the
	// tuple: same content key, fresh identity.
	next, info, err := snap.Apply(
		[]Row{{Rel: "S", Vals: []Value{Int(1)}}},
		[]Row{{Rel: "S", Vals: []Value{Int(1)}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if info.Inserted != 1 || info.Deleted != 1 {
		t.Fatalf("replace batch: %+v", info)
	}
	db := next.Fork()
	if db.Relation("S").Len() != 2 || !db.Relation("S").Contains("S(i1)") {
		t.Fatalf("replace lost content: %s", relKeys(db, "S"))
	}
	oldT := info.DeletedTuples["S"][0]
	newT := info.InsertedTuples["S"][0]
	if oldT.TID == newT.TID {
		t.Fatal("replacement reused the deleted tuple's identity")
	}
}

func TestSnapshotApplyChains(t *testing.T) {
	// A chain of updates must accumulate correctly and leave every
	// intermediate version readable.
	snap, _ := updateTestSnapshot(t)
	versions := []*Snapshot{snap}
	cur := snap
	for i := 0; i < 20; i++ {
		var err error
		cur, _, err = cur.Apply(
			[]Row{{Rel: "T", Vals: []Value{Int(100 + i)}}},
			[]Row{{Rel: "T", Vals: []Value{Int(100 + i - 1)}}},
		)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, cur)
	}
	for i, v := range versions {
		db := v.Fork()
		// Base T(7) plus the current chain element (element i-1 was deleted).
		want := 1
		if i > 0 {
			want = 2
		}
		if db.Relation("T").Len() != want {
			t.Fatalf("version %d: T has %d tuples, want %d (%s)", i, db.Relation("T").Len(), want, relKeys(db, "T"))
		}
		// Untouched relations share one core across the whole chain.
		if v.base["R"] != snap.base["R"] {
			t.Fatalf("version %d: R core not shared", i)
		}
	}
}

func TestSnapshotRingRetention(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	ring := NewSnapshotRingAt(snap, 1, 3)
	if _, v := ring.Head(); v != 1 {
		t.Fatalf("initial head %d, want 1", v)
	}
	if got, ok := ring.At(1); !ok || got != snap {
		t.Fatal("At(1) should resolve the base")
	}
	if _, ok := ring.At(2); ok {
		t.Fatal("future version resolved")
	}

	cur := snap
	for i := 0; i < 5; i++ {
		next, _, err := cur.Apply([]Row{{Rel: "S", Vals: []Value{Int(50 + i)}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v := ring.AdvanceApplied(next, nil); v != uint64(i+2) {
			t.Fatalf("advance %d returned version %d", i, v)
		}
		cur = next
	}
	if _, v := ring.Head(); v != 6 {
		t.Fatalf("head %d, want 6", v)
	}
	if ring.Oldest() != 4 || ring.Retained() != 3 {
		t.Fatalf("retention: oldest %d retained %d, want 4/3", ring.Oldest(), ring.Retained())
	}
	for v := uint64(1); v <= 3; v++ {
		if _, ok := ring.At(v); ok {
			t.Errorf("evicted version %d still resolves", v)
		}
	}
	for v := uint64(4); v <= 6; v++ {
		s, ok := ring.At(v)
		if !ok || s == nil {
			t.Errorf("retained version %d does not resolve", v)
			continue
		}
		// Version v contains the base 2 S-tuples plus v-1 inserts.
		if db := s.Fork(); db.Relation("S").Len() != 2+int(v-1) {
			t.Errorf("version %d: S has %d tuples, want %d", v, db.Relation("S").Len(), 2+int(v-1))
		}
	}
}

func TestSnapshotRingDefaultCapacity(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	ring := NewSnapshotRingAt(snap, 1, 0)
	for i := 0; i < DefaultRetainedVersions+2; i++ {
		ring.AdvanceApplied(snap, nil)
	}
	if ring.Retained() != DefaultRetainedVersions {
		t.Fatalf("retained %d, want default %d", ring.Retained(), DefaultRetainedVersions)
	}
}

// TestSnapshotRingConcurrentReaders advances the ring while readers fork
// whatever versions they can resolve; run under -race this checks the
// locking, and evicted-version forks staying readable checks that
// retention only affects the ring, not outstanding forks.
func TestSnapshotRingConcurrentReaders(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	ring := NewSnapshotRingAt(snap, 1, 2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pinned *Database // fork from an early version, read throughout
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, v := ring.Head()
				db := s.Fork()
				if db.Relation("R").Len() != 8 {
					errs <- fmt.Errorf("version %d: R drifted to %d tuples", v, db.Relation("R").Len())
					return
				}
				if pinned == nil {
					pinned = db
				}
				if pinned.Relation("S").Len() < 2 {
					errs <- fmt.Errorf("pinned fork lost tuples")
					return
				}
			}
		}()
	}
	cur := snap
	for i := 0; i < 50; i++ {
		next, _, err := cur.Apply([]Row{{Rel: "S", Vals: []Value{Int(1000 + i)}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ring.AdvanceApplied(next, nil)
		cur = next
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSnapshotRingAppliedMetadata: AdvanceApplied records per-version
// ApplyInfo retrievable while the version stays in the ring; an advance
// with nil info and the base version read as chain breaks; eviction drops the
// metadata with the slot.
func TestSnapshotRingAppliedMetadata(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	ring := NewSnapshotRingAt(snap, 1, 3)

	// The base version carries no metadata.
	if _, ok := ring.AppliedAt(1); ok {
		t.Fatal("base version reported metadata")
	}

	cur := snap
	var infos []*ApplyInfo
	for i := 0; i < 4; i++ {
		next, info, err := cur.Apply([]Row{{Rel: "S", Vals: []Value{Int(60 + i)}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v := ring.AdvanceApplied(next, info); v != uint64(i+2) {
			t.Fatalf("advance %d returned version %d", i, v)
		}
		infos = append(infos, info)
		cur = next
	}

	// Retained versions (3..5 with capacity 3) return exactly the info
	// recorded for them; evicted and future versions do not.
	for v := uint64(3); v <= 5; v++ {
		info, ok := ring.AppliedAt(v)
		if !ok || info != infos[v-2] {
			t.Fatalf("AppliedAt(%d): ok=%v info=%p, want %p", v, ok, info, infos[v-2])
		}
	}
	if _, ok := ring.AppliedAt(2); ok {
		t.Fatal("evicted version still reports metadata")
	}
	if _, ok := ring.AppliedAt(6); ok {
		t.Fatal("future version reports metadata")
	}

	// An advance with nil info overwrites the slot's stale metadata: the new
	// version must read as a chain break, not as the evicted version's
	// ApplyInfo.
	if v := ring.AdvanceApplied(cur, nil); v != 6 {
		t.Fatalf("plain advance returned version %d", v)
	}
	if _, ok := ring.AppliedAt(6); ok {
		t.Fatal("metadata-free advance reported stale metadata")
	}
	if info, ok := ring.AppliedAt(5); !ok || info != infos[3] {
		t.Fatal("retained metadata lost after plain advance")
	}
}

// TestSnapshotRingAt covers starting a version history at an arbitrary
// version (crash recovery resumes the counter where the durable history
// left off).
func TestSnapshotRingAt(t *testing.T) {
	snap, _ := updateTestSnapshot(t)
	r := NewSnapshotRingAt(snap, 7, 2)
	if got, ver := r.Head(); got != snap || ver != 7 {
		t.Fatalf("head = v%d, want v7 with the base snapshot", ver)
	}
	if r.Oldest() != 7 || r.Retained() != 1 {
		t.Fatalf("oldest=%d retained=%d, want 7/1", r.Oldest(), r.Retained())
	}
	next, _, err := snap.Apply([]Row{{Rel: "S", Vals: []Value{Int(9)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.AdvanceApplied(next, nil); v != 8 {
		t.Fatalf("advance = %d, want 8", v)
	}
	if _, ok := r.At(7); !ok {
		t.Fatal("version 7 evicted from a capacity-2 ring holding 2 versions")
	}
	if v := r.AdvanceApplied(next, nil); v != 9 {
		t.Fatalf("advance = %d, want 9", v)
	}
	if _, ok := r.At(7); ok {
		t.Fatal("version 7 still resolvable past the retention window")
	}
	// Version 0 normalizes to 1 (versions start at 1).
	r0 := NewSnapshotRingAt(snap, 0, 1)
	if _, ver := r0.Head(); ver != 1 {
		t.Fatalf("ring at version 0 starts at %d, want 1", ver)
	}
}
