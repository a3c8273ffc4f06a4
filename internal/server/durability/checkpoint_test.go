package durability

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// layoutShape renders each relation side's segment lengths and tombstone
// counts, and the ID and Seq counters.
func layoutShape(s *engine.Snapshot) string {
	var b strings.Builder
	l := s.Layout()
	fmt.Fprintf(&b, "seq %d\n", l.NextSeq)
	for _, rl := range l.Relations {
		fmt.Fprintf(&b, "%s next %d:", rl.Name, rl.NextID)
		for _, sl := range []engine.SideLayout{rl.Base, rl.Delta} {
			for i, seg := range sl.Segments {
				fmt.Fprintf(&b, " %d-%d", seg.Len(), engine.CountDeleted(sl.Tombs[i]))
			}
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkpointState reads a session directory: the file names, sorted, and
// the version of its only manifest. It fails the test on a *.tmp file,
// more than one manifest, or a segment file the manifest does not name.
func checkpointState(t *testing.T, sessDir string) (names []string, manifestVersion uint64) {
	t.Helper()
	entries, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	var manifests []uint64
	segs := 0
	for _, e := range entries {
		names = append(names, e.Name())
		if v, ok := parseName(e.Name(), "ckpt-", ".manifest"); ok {
			manifests = append(manifests, v)
		} else if _, ok := parseName(e.Name(), "seg-", ".seg"); ok {
			segs++
		} else if e.Name() != "meta.json" && e.Name() != "wal.log" {
			t.Fatalf("leftover %s in %v", e.Name(), names)
		}
	}
	if len(manifests) != 1 {
		t.Fatalf("%d manifests in %v, want 1", len(manifests), names)
	}
	data, err := os.ReadFile(filepath.Join(sessDir, manifestName(manifests[0])))
	if err != nil {
		t.Fatal(err)
	}
	_, files, err := loadCheckpoint(data, func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(sessDir, name))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != segs {
		t.Fatalf("%d segment files on disk, the manifest names %d: %v", segs, len(files), names)
	}
	return names, manifests[0]
}

// appendN applies and logs versions from+1 … to, each inserting one S row
// and, every other version, deleting the previous one's.
func appendN(t *testing.T, st *SessionStore, head *engine.Snapshot, from, to uint64) *engine.Snapshot {
	t.Helper()
	for v := from + 1; v <= to; v++ {
		rec := &Record{Version: v, Inserts: []engine.Row{row("S", engine.Int64(int64(v)))}}
		if v%2 == 0 {
			rec.Deletes = []engine.Row{row("S", engine.Int64(int64(v-1)))}
		}
		next, _, err := head.Apply(rec.Inserts, rec.Deletes)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		head = next
	}
	return head
}

var errCrash = errors.New("simulated crash")

// TestCheckpointCrashWindows stops a compaction at each of its crash
// points, as a crash there would, and recovers: the head is the last
// appended version, byte-identical, with the WAL replayed exactly as far
// as the checkpoint on disk needs, and nothing the crash left is kept.
func TestCheckpointCrashWindows(t *testing.T) {
	for _, c := range []struct {
		name     string
		stage    checkpointStage
		ckpt     uint64
		replayed int
	}{
		{"segments-before-rename", stageSegmentsWritten, 3, 4},
		{"rename-before-wal-reset", stageManifestLanded, 7, 0},
		{"reset-before-sweep", stageWALReset, 7, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m := mgr(t, dir, -1)
			_, db := testDB(t)
			st, err := m.Create(Meta{Name: "crash"}, db)
			if err != nil {
				t.Fatal(err)
			}
			head := appendN(t, st, db.Freeze(), 1, 3)
			if err := st.Compact(head, 3); err != nil {
				t.Fatal(err)
			}
			head = appendN(t, st, head, 3, 7)
			st.crashAt = func(s checkpointStage) error {
				if s == c.stage {
					return errCrash
				}
				return nil
			}
			if err := st.Compact(head, 7); !errors.Is(err, errCrash) {
				t.Fatalf("compaction ran past its crash point: %v", err)
			}
			st.Close()

			rec, err := m.Open("crash")
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Store.Close()
			if rec.Version != 7 || rec.SnapshotVersion != c.ckpt || rec.Replayed != c.replayed {
				t.Fatalf("recovered version %d from checkpoint %d replaying %d, want 7/%d/%d",
					rec.Version, rec.SnapshotVersion, rec.Replayed, c.ckpt, c.replayed)
			}
			if got, want := dumpSnap(t, rec.Snapshot), dumpSnap(t, head); got != want {
				t.Fatalf("recovered head differs:\n got:\n%s\nwant:\n%s", got, want)
			}
			sessDir := filepath.Join(dir, encodeName("crash"))
			if _, v := checkpointState(t, sessDir); v != c.ckpt {
				t.Fatalf("manifest at %d, want %d", v, c.ckpt)
			}
			// The recovered store goes on: the next checkpoint names no file
			// the crashed one left behind.
			head = appendN(t, rec.Store, rec.Snapshot, 7, 8)
			if err := rec.Store.Compact(head, 8); err != nil {
				t.Fatal(err)
			}
			checkpointState(t, sessDir)
			again, err := m.Open("crash")
			if err != nil {
				t.Fatal(err)
			}
			defer again.Store.Close()
			if got, want := dumpSnap(t, again.Snapshot), dumpSnap(t, head); got != want || again.Replayed != 0 {
				t.Fatalf("second recovery (replayed %d) differs:\n got:\n%s\nwant:\n%s", again.Replayed, got, want)
			}
		})
	}
}

// TestOpenSweepsLeftovers plants every kind of file a crash can leave — a
// whole-database snapshot tmp of the earlier format, a manifest tmp, an
// unreferenced segment file, a superseded manifest, a meta.json tmp — and
// checks Open removes each and recovers the head unchanged, and that the
// orphan's segment number is not reused.
func TestOpenSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, -1)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "sweep"}, db)
	if err != nil {
		t.Fatal(err)
	}
	head := appendN(t, st, db.Freeze(), 1, 3)
	if err := st.Compact(head, 3); err != nil {
		t.Fatal(err)
	}
	head = appendN(t, st, head, 3, 4)
	st.Close()
	sessDir := filepath.Join(dir, encodeName("sweep"))
	clean, _ := checkpointState(t, sessDir)

	var whole bytes.Buffer
	if err := head.Fork().Save(&whole); err != nil {
		t.Fatal(err)
	}
	manifestBytes, err := os.ReadFile(filepath.Join(sessDir, manifestName(3)))
	if err != nil {
		t.Fatal(err)
	}
	var segBytes []byte
	for _, name := range clean {
		if strings.HasSuffix(name, ".seg") {
			if segBytes, err = os.ReadFile(filepath.Join(sessDir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	planted := map[string][]byte{
		"snap-4.snap.tmp":        whole.Bytes(),
		"ckpt-9.manifest.tmp":    manifestBytes,
		"seg-40.seg":             segBytes,
		manifestName(2):          manifestBytes,
		"meta.json.tmp":          []byte("{}"),
		segmentName(41) + ".tmp": segBytes,
	}
	for name, data := range planted {
		if err := os.WriteFile(filepath.Join(sessDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec, err := m.Open("sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if got, want := dumpSnap(t, rec.Snapshot), dumpSnap(t, head); got != want || rec.Version != 4 || rec.Replayed != 1 {
		t.Fatalf("recovered version %d replaying %d, head:\n%s\nwant version 4 replaying 1:\n%s", rec.Version, rec.Replayed, got, want)
	}
	if names, _ := checkpointState(t, sessDir); !slices.Equal(names, clean) {
		t.Fatalf("after the sweep %v, want %v", names, clean)
	}
	head = appendN(t, rec.Store, rec.Snapshot, 4, 5)
	if err := rec.Store.Compact(head, 5); err != nil {
		t.Fatal(err)
	}
	names, _ := checkpointState(t, sessDir)
	if !slices.Contains(names, segmentName(41)) {
		t.Fatalf("the next segment file after the orphan seg-40 is not seg-41: %v", names)
	}
}

// TestLegacySnapshotRefused: a directory from before checkpoints — meta.json,
// a WAL and a whole-database snap-<V>.snap — does not open: the error names
// the snapshot file as a pre-checkpoint one, and the directory is left
// byte for byte as it was, nothing swept.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, -1)
	_, db := testDB(t)
	st, err := m.Create(Meta{Name: "legacy"}, db)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, db.Freeze(), 1, 6)
	st.Close()
	sessDir := filepath.Join(dir, encodeName("legacy"))
	names, _ := checkpointState(t, sessDir)
	for _, name := range names {
		if name != "meta.json" && name != "wal.log" {
			os.Remove(filepath.Join(sessDir, name))
		}
	}
	if err := os.WriteFile(filepath.Join(sessDir, "snap-3.snap"), []byte("whole-database snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, sessDir)

	if _, err := m.Open("legacy"); err == nil || !strings.Contains(err.Error(), "snap-3.snap is a pre-checkpoint snapshot") {
		t.Fatalf("opening a pre-checkpoint directory: %v", err)
	}
	if after := dirContents(t, sessDir); !maps.Equal(after, before) {
		t.Fatalf("Open changed the directory: %v files, want %v", slices.Sorted(maps.Keys(after)), slices.Sorted(maps.Keys(before)))
	}
}

// dirContents reads every file of a directory.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestCompactWritesOnlyNewSegments: a checkpoint writes the segments the
// last one lacks and names the rest by their existing files — a small
// update writes one small segment, never a base — and the recovered head
// has the live head's segment layout.
func TestCompactWritesOnlyNewSegments(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, -1)
	_, db := testDB(t)
	for i := int64(0); i < 400; i++ {
		db.MustInsert("S", engine.Int64(1000+i))
	}
	st, err := m.Create(Meta{Name: "steady"}, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.LastCheckpoint(); got.Written != 2 || got.Reused != 0 {
		t.Fatalf("registration checkpoint %+v, want the two base segments written", got)
	}
	head := db.Freeze()
	base := head.Layout().Relations[1].Base.Segments[0]
	for v := uint64(2); v <= 6; v++ {
		head = appendN(t, st, head, v-1, v)
		if err := st.Compact(head, v); err != nil {
			t.Fatal(err)
		}
		l := head.Layout()
		segs := len(l.Relations[0].Base.Segments) + len(l.Relations[1].Base.Segments)
		if got := st.LastCheckpoint(); got.Written != 1 || got.Reused != segs-1 {
			t.Fatalf("version %d: checkpoint %+v of %d segments, want one written", v, got, segs)
		}
		if l.Relations[1].Base.Segments[0] != base {
			t.Fatalf("version %d: S was folded; the walk should stay below a fold", v)
		}
	}
	st.Close()
	checkpointState(t, filepath.Join(dir, encodeName("steady")))
	rec, err := m.Open("steady")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Store.Close()
	if got, want := layoutShape(rec.Snapshot), layoutShape(head); got != want {
		t.Fatalf("recovered layout:\n%s\nwant the live head's:\n%s", got, want)
	}
}

// encodeCheckpoint renders a snapshot as FuzzCheckpoint's input: the
// manifest bytes and the segment files back to back, in the order the
// manifest names them.
func encodeCheckpoint(s *engine.Snapshot) (man, segs []byte) {
	n := uint64(0)
	man = engine.AppendLayout(nil, s.Layout(), func(seg *engine.Segment) string {
		n++
		segs = engine.AppendSegment(segs, seg)
		return segmentName(n)
	})
	return man, segs
}

// segmentReader hands out FuzzCheckpoint's concatenated segment files as
// the files the manifest names, one frame per call in naming order, and
// records them in files; reframe rewrites each frame's header to fit its
// bytes first.
func segmentReader(segs []byte, reframe bool, files map[string][]byte) func(string) ([]byte, error) {
	return func(name string) ([]byte, error) {
		if len(segs) < frameHeader {
			return nil, os.ErrNotExist
		}
		n := min(uint64(binary.LittleEndian.Uint32(segs))+frameHeader, uint64(len(segs)))
		frame := segs[:n:n]
		segs = segs[n:]
		if reframe {
			frame = slices.Clone(frame)
			setFrame(frame)
		}
		files[name] = frame
		return frame, nil
	}
}

// setFrame rewrites a frame's header to its payload's length and checksum.
func setFrame(frame []byte) {
	if len(frame) >= frameHeader {
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-frameHeader))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeader:], crcTable))
	}
}

// FuzzCheckpoint: loading arbitrary manifest and segment-file bytes never
// panics; a damaged frame is an error; and an accepted checkpoint
// round-trips — re-encoding it and loading that gives the same content and
// segment layout, and re-encoding is a fixpoint.
func FuzzCheckpoint(f *testing.F) {
	for _, seed := range []int64{1, 7, 11, 16, 23, 42} {
		us := gen.GenerateUpdateStream(seed, 48)
		snap := us.Scenario.DB.Freeze()
		for i, op := range us.Ops {
			next, _, err := snap.Apply(op.Inserts, op.Deletes)
			if err != nil {
				f.Fatal(err)
			}
			snap = next
			if i%16 == 0 {
				man, segs := encodeCheckpoint(snap)
				f.Add(man, segs, i%32 == 0)
			}
		}
	}
	f.Add([]byte("garbage"), []byte{}, false)
	f.Add([]byte{}, []byte("garbage"), true)
	f.Fuzz(func(t *testing.T, man, segs []byte, reframe bool) {
		// reframe rewrites every frame's length and checksum to fit its
		// bytes, so the fuzzer reaches the payload decoders too.
		if reframe {
			man = slices.Clone(man)
			setFrame(man)
		}
		files := map[string][]byte{}
		snap, loaded, err := loadCheckpoint(man, segmentReader(segs, reframe, files))
		if err != nil {
			return
		}
		if len(loaded) != len(files) {
			t.Fatalf("%d segments loaded from %d files", len(loaded), len(files))
		}
		// One flipped bit in any frame is caught.
		read := func(name string) ([]byte, error) { return files[name], nil }
		flipped := slices.Clone(man)
		flipped[len(flipped)-1] ^= 0x10
		if _, _, err := loadCheckpoint(flipped, read); err == nil {
			t.Fatal("a flipped manifest byte decoded")
		}
		for name, data := range files {
			flipped := slices.Clone(data)
			flipped[len(flipped)-1] ^= 0x10
			if _, err := engine.DecodeSegment(flipped, "R", 1); err == nil {
				t.Fatalf("a flipped byte of %s decoded", name)
			}
		}

		man2, segs2 := encodeCheckpoint(snap)
		snap2, _, err := loadCheckpoint(man2, segmentReader(segs2, false, map[string][]byte{}))
		if err != nil {
			t.Fatalf("re-encoded checkpoint: %v", err)
		}
		if got, want := dumpSnap(t, snap2), dumpSnap(t, snap); got != want {
			t.Fatalf("round trip changed content:\n%s\nwant:\n%s", got, want)
		}
		if got, want := layoutShape(snap2), layoutShape(snap); got != want {
			t.Fatalf("round trip changed the layout:\n%s\nwant:\n%s", got, want)
		}
		if man3, segs3 := encodeCheckpoint(snap2); !bytes.Equal(man3, man2) || !bytes.Equal(segs3, segs2) {
			t.Fatal("re-encoding is not a fixpoint")
		}
	})
}
