package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/programs"
	"repro/internal/server/durability"
)

// Server-level durability tests: crash recovery (including the mid-batch,
// torn-tail, and corrupt-record shapes), evict-then-reload, deregister
// deleting disk state, and the /metrics endpoint.

func openDurable(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	cfg.DataDir = dir
	cfg.NoFsync = true // tests exercise crash recovery, not power loss
	return openService(t, cfg)
}

// dumpHead renders a session's head state (every tuple's identity and
// content, in scan order) for byte-identity assertions.
func dumpHead(t *testing.T, svc *Service, name string) (string, uint64) {
	t.Helper()
	sess, err := svc.session(name)
	if err != nil {
		t.Fatalf("session %q: %v", name, err)
	}
	head, ver := sess.ring.Head()
	var b strings.Builder
	fork := head.Fork()
	for _, rs := range fork.Schema.Relations {
		fork.Relation(rs.Name).Scan(func(tu *engine.Tuple) bool {
			b.WriteString(tu.ID + "|" + tu.Key() + "\n")
			return true
		})
	}
	return b.String(), ver
}

func walPath(dir, name string) string {
	return filepath.Join(dir, "s-"+name, "wal.log")
}

// TestDurableCrashRecoveryAllSemantics is the headline guarantee: after a
// crash (no clean shutdown) spanning a compaction boundary, the recovered
// session is byte-identical — same tuples, same identities, same version —
// and every semantics produces the same repair it did before the crash.
func TestDurableCrashRecoveryAllSemantics(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{SnapshotEvery: 2})
	register(t, svc, "papers")
	ctx := context.Background()

	// Three batches (insert-only, mixed, delete-only) cross the
	// SnapshotEvery=2 compaction boundary: recovery must load the
	// compacted snapshot and replay the WAL tail.
	batches := []struct{ ins, del []engine.Row }{
		{ins: []engine.Row{row("Writes", engine.Int(2), engine.Int(6))}},
		{ins: []engine.Row{row("Cite", engine.Int(6), engine.Int(7))},
			del: []engine.Row{row("AuthGrant", engine.Int(4), engine.Int(2))}},
		{del: []engine.Row{row("Writes", engine.Int(2), engine.Int(6))}},
	}
	var version uint64
	for i, b := range batches {
		res, err := svc.Update(ctx, "papers", b.ins, b.del, RequestOptions{})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		version = res.Version
	}
	if version != 4 {
		t.Fatalf("head version %d, want 4", version)
	}
	before := make(map[core.Semantics]string)
	for _, sem := range core.AllSemantics {
		res, _, _, err := svc.RepairVersioned(ctx, "papers", sem, RequestOptions{})
		if err != nil {
			t.Fatalf("pre-crash %s: %v", sem, err)
		}
		before[sem] = keysOf(res)
	}
	wantDump, _ := dumpHead(t, svc, "papers")
	// Crash: abandon svc without Close.

	svc2 := openDurable(t, dir, Config{SnapshotEvery: 2})
	gotDump, gotVer := dumpHead(t, svc2, "papers")
	if gotVer != version {
		t.Fatalf("recovered version %d, want %d", gotVer, version)
	}
	if gotDump != wantDump {
		t.Fatalf("recovered state not byte-identical:\n got:\n%s\nwant:\n%s", gotDump, wantDump)
	}
	for _, sem := range core.AllSemantics {
		res, _, _, err := svc2.RepairVersioned(ctx, "papers", sem, RequestOptions{})
		if err != nil {
			t.Fatalf("post-recovery %s: %v", sem, err)
		}
		if keysOf(res) != before[sem] {
			t.Fatalf("%s repair diverged:\n before: %s\n after:  %s", sem, before[sem], keysOf(res))
		}
	}
	// The recovered session keeps accepting updates with continuous
	// version numbers.
	res, err := svc2.Update(ctx, "papers", []engine.Row{row("Grant", engine.Int(3), engine.Str("DFG"))}, nil, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != version+1 {
		t.Fatalf("post-recovery update version %d, want %d", res.Version, version+1)
	}

	// A pinned end read at a version reached by an insert-only batch whose
	// row binds a rule assignment (Writes(2,6) joins Cite(6,7)), so no
	// stored result replays, answers the same before Close, with an end
	// result stored at the version before it, and after reopening the data
	// dir, with nothing stored: same deletions, same rounds.
	if _, _, _, err := svc2.RepairVersioned(ctx, "papers", core.SemEnd, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err = svc2.Update(ctx, "papers", []engine.Row{row("Writes", engine.Int(2), engine.Int(6))}, nil, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pinned := RequestOptions{Version: res.Version}
	want, _, _, err := svc2.RepairVersioned(ctx, "papers", core.SemEnd, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	svc3 := openDurable(t, dir, Config{SnapshotEvery: 2})
	defer svc3.Close()
	got, _, _, err := svc3.RepairVersioned(ctx, "papers", core.SemEnd, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if keysOf(got) != keysOf(want) || got.Rounds != want.Rounds {
		t.Fatalf("pinned end at v%d: %s in %d rounds before Close, %s in %d after reopening",
			res.Version, keysOf(want), want.Rounds, keysOf(got), got.Rounds)
	}
}

// pinnedRepairBodies returns the POST /repair response bodies of all four
// semantics pinned at the given version, with the one field that is a
// wall-clock measurement (elapsed_us) zeroed.
func pinnedRepairBodies(t *testing.T, svc *Service, name string, version uint64) map[core.Semantics]string {
	t.Helper()
	out := make(map[core.Semantics]string)
	for _, sem := range core.AllSemantics {
		body := fmt.Sprintf(`{"semantics": %q, "version": %d}`, sem, version)
		rr := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sessions/"+name+"/repair", strings.NewReader(body)))
		if rr.Code != 200 {
			t.Fatalf("%s repair at version %d: %d %s", sem, version, rr.Code, rr.Body)
		}
		out[sem] = zeroElapsed(t, rr.Body.Bytes())
	}
	return out
}

// zeroElapsed re-encodes a JSON response body with its elapsed_us field
// set to 0, whatever the body's formatting. Every other field, numbers
// included, survives verbatim (UseNumber), so comparing the results still
// compares the whole body.
func zeroElapsed(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if _, ok := m["elapsed_us"]; !ok {
		t.Fatalf("no elapsed_us in %s", body)
	}
	m["elapsed_us"] = 0
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// metricValue reads one un-labelled sample from GET /metrics.
func metricValue(t *testing.T, svc *Service, name string) int {
	t.Helper()
	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(rr.Body.String())
	if m == nil {
		t.Fatalf("metric %s not rendered", name)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestDurableCrashRecoveryAcrossCompactionTiers: a history long enough that
// both the live session and the recovery's WAL replay cross both segment
// compaction tiers. 64 batches grow Cite to ~520 rows and end on a snapshot
// compaction; the 56-record tail then inserts three Cite rows and deletes
// one old one per batch (every fifth batch also churns Writes, so the
// repairs move), which on a one-segment base of that size spills the
// recent segment after about a dozen records and folds the base a few
// records later, more than once. The recovered head must equal the last
// acknowledged version and the pinned /repair bodies must be byte-identical
// before the kill and after recovery, although the two services hold the
// same rows in differently shaped segments.
func TestDurableCrashRecoveryAcrossCompactionTiers(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{SnapshotEvery: 64})
	register(t, svc, "papers")
	ctx := context.Background()
	cite := func(i int) engine.Row { return row("Cite", engine.Int(1000+i), engine.Int(2000+i)) }
	var version uint64
	for b := 0; b < 120; b++ {
		var ins, del []engine.Row
		if b < 64 {
			for i := 0; i < 8; i++ {
				ins = append(ins, cite(8*b+i))
			}
		} else {
			for i := 0; i < 3; i++ {
				ins = append(ins, cite(512+3*(b-64)+i))
			}
			del = append(del, cite(b-64))
			switch b % 10 {
			case 0:
				ins = append(ins, row("Writes", engine.Int(2), engine.Int(6)))
			case 5:
				del = append(del, row("Writes", engine.Int(2), engine.Int(6)))
			}
		}
		res, err := svc.Update(ctx, "papers", ins, del, RequestOptions{})
		if err != nil {
			t.Fatalf("update %d: %v", b, err)
		}
		version = res.Version
	}
	if n := metricValue(t, svc, "deltarepaird_segment_compactions_total"); n < 4 {
		t.Fatalf("live history ran %d segment compactions, want both tiers crossed repeatedly", n)
	}
	if sealed, changed := metricValue(t, svc, "deltarepaird_update_rows_sealed_total"), metricValue(t, svc, "deltarepaird_update_rows_changed_total"); sealed < changed/2 || sealed > 20*changed {
		t.Fatalf("%d rows sealed for %d rows changed", sealed, changed)
	}
	if info := svc.Sessions()[0]; info.Segments < 1 || info.Segments > 3 {
		t.Fatalf("head spread over %d segments", info.Segments)
	}
	before := pinnedRepairBodies(t, svc, "papers", version)
	wantDump, _ := dumpHead(t, svc, "papers")
	// Crash: abandon svc without Close.

	svc2 := openDurable(t, dir, Config{SnapshotEvery: 64})
	defer svc2.Close()
	gotDump, gotVer := dumpHead(t, svc2, "papers")
	if gotVer != version {
		t.Fatalf("recovered version %d, want the last acknowledged %d", gotVer, version)
	}
	if gotDump != wantDump {
		t.Fatalf("recovered state not byte-identical:\n got:\n%s\nwant:\n%s", gotDump, wantDump)
	}
	if n := metricValue(t, svc2, "deltarepaird_recovery_replayed_records_total"); n != 120-64 {
		t.Fatalf("recovery replayed %d records, want %d", n, 120-64)
	}
	if n := metricValue(t, svc2, "deltarepaird_segment_compactions_total"); n < 2 {
		t.Fatalf("replay ran %d segment compactions, want a spill and a fold at least", n)
	}
	for sem, want := range before {
		if got := pinnedRepairBodies(t, svc2, "papers", version)[sem]; got != want {
			t.Fatalf("%s repair body changed across recovery:\n before: %s\n after:  %s", sem, want, got)
		}
	}

	// Eight more batches reach the next compaction; a crash right after it
	// leaves no WAL tail, and the recovery loads every segment file back as
	// its own segment: the live head's segment lengths and tombstones.
	for b := 120; b < 128; b++ {
		res, err := svc2.Update(ctx, "papers", []engine.Row{cite(900 + b)}, []engine.Row{cite(b - 64)}, RequestOptions{})
		if err != nil {
			t.Fatalf("update %d: %v", b, err)
		}
		version = res.Version
	}
	live := headLayout(t, svc2, "papers")
	wantDump, _ = dumpHead(t, svc2, "papers")
	// Crash again, now on a checkpoint with nothing to replay.

	svc3 := openDurable(t, dir, Config{SnapshotEvery: 2})
	defer svc3.Close()
	gotDump, gotVer = dumpHead(t, svc3, "papers")
	if gotVer != version || gotDump != wantDump {
		t.Fatalf("recovery at %d without a tail not byte-identical (want %d):\n got:\n%s\nwant:\n%s", gotVer, version, gotDump, wantDump)
	}
	if n := metricValue(t, svc3, "deltarepaird_recovery_replayed_records_total"); n != 0 {
		t.Fatalf("recovery right after a compaction replayed %d records", n)
	}
	recovered := headLayout(t, svc3, "papers")
	if got, want := segmentShape(recovered), segmentShape(live); got != want {
		t.Fatalf("recovered segment layout:\n%s\nwant the live head's:\n%s", got, want)
	}

	// A steady-state checkpoint (two small batches, no fold) writes exactly
	// the segments the recovered checkpoint lacks, and no base segment.
	for i := 0; i < 2; i++ {
		if _, err := svc3.Update(ctx, "papers", []engine.Row{row("Grant", engine.Int(10+i), engine.Str("ERC"))}, nil, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	had := map[*engine.Segment]bool{}
	for _, rl := range recovered.Relations {
		for _, seg := range append(rl.Base.Segments, rl.Delta.Segments...) {
			had[seg] = true
		}
	}
	fresh := 0
	for _, rl := range headLayout(t, svc3, "papers").Relations {
		for _, sl := range []engine.SideLayout{rl.Base, rl.Delta} {
			for i, seg := range sl.Segments {
				if had[seg] {
					continue
				}
				fresh++
				if i == 0 {
					t.Fatalf("the steady-state checkpoint wrote a new base segment of %s", rl.Name)
				}
			}
		}
	}
	written := metricValue(t, svc3, regexp.QuoteMeta(`deltarepaird_checkpoint_segments_total{outcome="written"}`))
	if metricValue(t, svc3, "deltarepaird_snapshot_compactions_total") != 1 || fresh == 0 || written != fresh {
		t.Fatalf("the steady-state checkpoint wrote %d segment files for %d new segments", written, fresh)
	}
}

// headLayout returns the segment layout of a session's head.
func headLayout(t *testing.T, svc *Service, name string) *engine.Layout {
	t.Helper()
	sess, err := svc.session(name)
	if err != nil {
		t.Fatal(err)
	}
	head, _ := sess.ring.Head()
	return head.Layout()
}

// segmentShape renders each relation side's segment lengths and tombstone
// counts.
func segmentShape(l *engine.Layout) string {
	var b strings.Builder
	for _, rl := range l.Relations {
		b.WriteString(rl.Name + ":")
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

// TestDurableMidBatchCrash simulates a crash after the WAL append but
// before the update became visible (or acknowledged): recovery replays the
// record, restoring the at-least-once contract.
func TestDurableMidBatchCrash(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{})
	register(t, svc, "papers")
	ctx := context.Background()
	if _, err := svc.Update(ctx, "papers", []engine.Row{row("Grant", engine.Int(3), engine.Str("DFG"))}, nil, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Append version 3's record directly to the WAL, exactly as
	// Service.Update would have, and "crash" before advancing memory.
	log, err := durability.OpenLog(walPath(dir, "papers"), durability.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	rec := &durability.Record{Version: 3, Inserts: []engine.Row{row("Grant", engine.Int(4), engine.Str("ANR"))}}
	if err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	log.Close()

	svc2 := openDurable(t, dir, Config{})
	defer svc2.Close()
	dump, ver := dumpHead(t, svc2, "papers")
	if ver != 3 {
		t.Fatalf("recovered version %d, want 3 (mid-batch record replayed)", ver)
	}
	if !strings.Contains(dump, `Grant(i4,"ANR")`) {
		t.Fatalf("mid-batch insert lost in recovery:\n%s", dump)
	}
}

// TestDurableTornTail covers a crash mid-append at the server level: the
// torn final record is truncated away and the session recovers to the
// last intact version.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{})
	register(t, svc, "papers")
	ctx := context.Background()
	if _, err := svc.Update(ctx, "papers", []engine.Row{row("Grant", engine.Int(3), engine.Str("DFG"))}, nil, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	frame, err := durability.EncodeRecord(&durability.Record{Version: 3,
		Inserts: []engine.Row{row("Grant", engine.Int(4), engine.Str("ANR"))}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath(dir, "papers"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2 := openDurable(t, dir, Config{})
	defer svc2.Close()
	dump, ver := dumpHead(t, svc2, "papers")
	if ver != 2 {
		t.Fatalf("recovered version %d, want 2 (torn record dropped)", ver)
	}
	if strings.Contains(dump, "ANR") {
		t.Fatalf("torn record partially applied:\n%s", dump)
	}
	// The torn-tail repair is surfaced in the metrics.
	rr := httptest.NewRecorder()
	svc2.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "deltarepaird_recovery_torn_tails_total 1") {
		t.Errorf("torn tail not surfaced in metrics:\n%s", rr.Body.String())
	}
}

// TestDurableCorruptRecord covers a flipped byte in a WAL record: the
// corrupt record (and anything after it) is dropped and counted.
func TestDurableCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{})
	register(t, svc, "papers")
	ctx := context.Background()
	for i, rel := range []string{"DFG", "ANR"} {
		ins := []engine.Row{row("Grant", engine.Int(3+i), engine.Str(rel))}
		if _, err := svc.Update(ctx, "papers", ins, nil, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wal := walPath(dir, "papers")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := openDurable(t, dir, Config{})
	defer svc2.Close()
	dump, ver := dumpHead(t, svc2, "papers")
	if ver != 2 {
		t.Fatalf("recovered version %d, want 2 (corrupt record dropped)", ver)
	}
	if strings.Contains(dump, "ANR") {
		t.Fatalf("corrupt record applied:\n%s", dump)
	}
	rr := httptest.NewRecorder()
	svc2.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "deltarepaird_recovery_corrupt_records_total 1") {
		t.Errorf("corrupt record not surfaced in metrics:\n%s", rr.Body.String())
	}
}

// TestDurableEvictThenReload: cache eviction is not deletion — the
// evicted session's disk state stays, and the next access recovers it
// with its update history intact.
func TestDurableEvictThenReload(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{MaxSessions: 1})
	defer svc.Close()
	register(t, svc, "first")
	ctx := context.Background()
	if _, err := svc.Update(ctx, "first", []engine.Row{row("Grant", engine.Int(3), engine.Str("DFG"))}, nil, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	register(t, svc, "second") // evicts "first" (closes its WAL, keeps disk)
	if svc.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", svc.Evictions())
	}
	// Accessing "first" reloads it from disk at version 2; "second" is
	// evicted in turn.
	res, err := svc.Update(ctx, "first", []engine.Row{row("Grant", engine.Int(4), engine.Str("ANR"))}, nil, RequestOptions{})
	if err != nil {
		t.Fatalf("update after evict+reload: %v", err)
	}
	if res.Version != 3 {
		t.Fatalf("version after reload %d, want 3", res.Version)
	}
}

// TestDurableDeregisterDeletesDisk: deregistration removes the durable
// state, so the name is gone after a restart and re-registerable now.
func TestDurableDeregisterDeletesDisk(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{})
	register(t, svc, "papers")
	if !svc.Deregister("papers") {
		t.Fatal("deregister reported not found")
	}
	if _, err := svc.session("papers"); err == nil {
		t.Fatal("session resolvable after deregister")
	}
	register(t, svc, "papers") // name free again
	svc.Close()

	svc2 := openDurable(t, dir, Config{})
	defer svc2.Close()
	names, err := svc2.Persisted()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "papers" {
		t.Fatalf("persisted after restart: %v", names)
	}
}

// TestDurableDuplicateAcrossEviction: an evicted-but-persisted session
// still counts as registered.
func TestDurableDuplicateAcrossEviction(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{MaxSessions: 1})
	defer svc.Close()
	register(t, svc, "first")
	register(t, svc, "second") // evicts "first"
	db, prog := fixture(t)
	if err := svc.Register("first", db.Schema, db, prog); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("re-register of evicted durable session: %v, want duplicate", err)
	}
}

// TestMetricsEndpoint exercises the inventory end to end over HTTP.
// TestDurableRegisterRejectsUnpreparedProgram checks that Register
// prepares before it persists: a program Prepare rejects (here one never
// validated against the schema) fails at Register and leaves no session
// directory behind, so the name stays free.
func TestDurableRegisterRejectsUnpreparedProgram(t *testing.T) {
	dir := t.TempDir()
	svc := openDurable(t, dir, Config{})
	db, _ := fixture(t)
	prog, err := datalog.Parse(programs.RunningExampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("raw", db.Schema, db, prog); err == nil {
		t.Fatal("an unvalidated program registered")
	}
	if svc.dur.Exists("raw") {
		t.Error("the rejected registration was persisted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("the rejected registration left %s in the data directory", e.Name())
	}
	if got, err := svc.Persisted(); err != nil || len(got) != 0 {
		t.Errorf("persisted sessions %v (err %v), want none", got, err)
	}
	// The name is free: the validated program registers under it.
	register(t, svc, "raw")
}

func TestMetricsEndpoint(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	ctx := context.Background()
	if _, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemEnd, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemEnd, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Update(ctx, "papers", []engine.Row{row("Grant", engine.Int(3), engine.Str("DFG"))}, nil, RequestOptions{}); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`deltarepaird_requests_total{kind="register",status="ok"} 1`,
		`deltarepaird_requests_total{kind="repair",status="ok"} 2`,
		`deltarepaird_requests_total{kind="update",status="ok"} 1`,
		`deltarepaird_session_starts_total{type="cold"} 1`,
		"deltarepaird_sessions 1",
		"deltarepaird_session_versions 2",
		"deltarepaird_request_seconds_count 4",
		"deltarepaird_update_rows_changed_total 1",
		"deltarepaird_update_rows_sealed_total 1",
		"deltarepaird_segment_compactions_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "# TYPE deltarepaird_request_seconds histogram") {
		t.Error("histogram type line missing")
	}
	// One registration is one cold start, however many requests follow;
	// requests are counted by deltarepaird_requests_total alone.
	if strings.Contains(body, `deltarepaird_session_starts_total{type="warm"}`) {
		t.Error("per-request warm starts still counted")
	}
}
