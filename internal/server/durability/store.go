package durability

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
)

// On-disk layout, one directory per session under Options.Dir:
//
//	<dir>/<encoded-name>/meta.json       registration metadata (name, sources)
//	<dir>/<encoded-name>/snap-<V>.snap   newest engine snapshot, at version V
//	<dir>/<encoded-name>/wal.log         update batches applied since version V
//
// Snapshots are written to a .tmp file, fsynced, and renamed into place, so
// every crash window leaves either the old snapshot or the new one — never
// a half-written file. The WAL is truncated only after the covering
// snapshot is durably in place; recovery skips WAL records at or below the
// snapshot version, so a crash between the rename and the truncate is
// harmless (the stale tail is simply ignored and dropped by the next
// compaction).

// DefaultSnapshotEvery is the compaction cadence (WAL records between
// snapshots) when Options.SnapshotEvery is 0.
const DefaultSnapshotEvery = 64

// Options configures a Manager.
type Options struct {
	// Dir is the root data directory; one subdirectory per session.
	Dir string
	// Fsync is the WAL flush policy.
	Fsync FsyncPolicy
	// SnapshotEvery is the number of WAL records that triggers snapshot
	// compaction. 0 means DefaultSnapshotEvery; negative disables
	// automatic compaction.
	SnapshotEvery int
}

// Meta is a session's registration metadata, stored as meta.json. Schema
// and Program are source text: Program is re-parsed during recovery (the
// engine snapshot carries only data, not rules); Schema is informational —
// the authoritative schema is reconstructed by engine.LoadSnapshot.
type Meta struct {
	Name    string `json:"name"`
	Schema  string `json:"schema"`
	Program string `json:"program"`
}

// Manager owns the root data directory and its session stores.
type Manager struct {
	opts Options
}

// NewManager creates the root directory if needed and returns a Manager.
func NewManager(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("durability: data directory must be non-empty")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durability: creating data dir: %w", err)
	}
	return &Manager{opts: opts}, nil
}

// encodeName maps an arbitrary session name to a safe directory name.
// Names confined to [A-Za-z0-9_.-] (with no leading dot) keep themselves
// readable under an "s-" prefix; anything else is hex-encoded under "x-".
// The prefixes cannot collide, and meta.json carries the real name.
func encodeName(name string) string {
	safe := name != "" && name[0] != '.'
	for i := 0; safe && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			safe = false
		}
	}
	if safe {
		return "s-" + name
	}
	return "x-" + hex.EncodeToString([]byte(name))
}

func (m *Manager) sessionDir(name string) string {
	return filepath.Join(m.opts.Dir, encodeName(name))
}

// Exists reports whether a durable session directory exists for name.
func (m *Manager) Exists(name string) bool {
	_, err := os.Stat(filepath.Join(m.sessionDir(name), "meta.json"))
	return err == nil
}

// List returns the names of every persisted session, sorted. Directories
// without a readable meta.json are skipped (a crash during Create can
// leave one; Create is only acknowledged after meta.json is in place).
func (m *Manager) List() ([]string, error) {
	entries, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var meta Meta
		if readJSON(filepath.Join(m.opts.Dir, e.Name(), "meta.json"), &meta) == nil && meta.Name != "" {
			names = append(names, meta.Name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes a session's durable state entirely (deregistration —
// distinct from cache eviction, which only closes the store).
func (m *Manager) Delete(name string) error {
	return os.RemoveAll(m.sessionDir(name))
}

// Create persists a new session: its metadata, an initial snapshot at
// version 1, and an empty WAL. A session directory that already exists
// fails with os.ErrExist — concurrent Creates race on the atomic Mkdir,
// so the filesystem is the duplicate-registration arbiter.
func (m *Manager) Create(meta Meta, db *engine.Database) (*SessionStore, error) {
	dir := m.sessionDir(meta.Name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err // ErrExist = duplicate
	}
	if err := writeSnapshotFile(filepath.Join(dir, snapName(1)), db); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// meta.json lands last: its presence marks the directory complete
	// (List and Exists key off it).
	if err := writeJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	log, err := OpenLog(filepath.Join(dir, "wal.log"), m.opts.Fsync)
	if err != nil {
		return nil, err
	}
	return &SessionStore{dir: dir, log: log, snapshotEvery: m.opts.SnapshotEvery, snapVersion: 1}, nil
}

// Recovered is a session restored from disk: its metadata, the replayed
// head state, and the reopened store for further appends.
type Recovered struct {
	Meta Meta
	// Snapshot is the recovered head — the newest durable snapshot with
	// the WAL tail replayed onto it via Snapshot.Apply (deterministic, so
	// the head is byte-identical to the pre-crash state).
	Snapshot *engine.Snapshot
	// Version is the head's version number.
	Version uint64
	// SnapshotVersion is the version of the on-disk snapshot the replay
	// started from.
	SnapshotVersion uint64
	// Replayed is the number of WAL records applied on top of it, and
	// Compactions the segment tier merges those applies ran (each record
	// is sealed onto the loaded snapshot like a live update, not
	// re-frozen).
	Replayed    int
	Compactions int
	// WalStats reports what the WAL read found (torn tail, corrupt
	// records); the damaged tail has already been truncated.
	WalStats *ReadStats
	// Store accepts the session's future appends.
	Store *SessionStore
}

// Open recovers the named session: load the newest snapshot, replay the
// WAL tail (repairing a torn or corrupt tail by truncation), and reopen
// the log for appending.
func (m *Manager) Open(name string) (*Recovered, error) {
	dir := m.sessionDir(name)
	var meta Meta
	if err := readJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	snapPath, snapVer, err := newestSnapshot(dir)
	if err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	db, err := engine.LoadSnapshotFile(snapPath)
	if err != nil {
		return nil, fmt.Errorf("durability: session %q snapshot: %w", name, err)
	}
	walPath := filepath.Join(dir, "wal.log")
	recs, stats, err := ReadLog(walPath, true)
	if err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	snap := db.Freeze()
	version := snapVer
	replayed, compactions := 0, 0
	for _, rec := range recs {
		if rec.Version <= version {
			continue // pre-snapshot tail left by a crash mid-compaction
		}
		if rec.Version != version+1 {
			// A gap can only mean a record sequence this build never writes;
			// stop at the last version that is provably continuous.
			break
		}
		next, info, err := snap.Apply(rec.Inserts, rec.Deletes)
		if err != nil {
			return nil, fmt.Errorf("durability: session %q replaying version %d: %w", name, rec.Version, err)
		}
		snap = next
		version = rec.Version
		replayed++
		compactions += info.Compactions
	}
	log, err := OpenLog(walPath, m.opts.Fsync)
	if err != nil {
		return nil, err
	}
	// Seed the compaction cadence with the replayed tail so a session that
	// crashed just short of a compaction does not need another full window
	// of appends to get one.
	log.count = replayed
	return &Recovered{
		Meta:            meta,
		Snapshot:        snap,
		Version:         version,
		SnapshotVersion: snapVer,
		Replayed:        replayed,
		Compactions:     compactions,
		WalStats:        stats,
		Store:           &SessionStore{dir: dir, log: log, snapshotEvery: m.opts.SnapshotEvery, snapVersion: snapVer},
	}, nil
}

// SessionStore is one session's open durable state: the append handle on
// its WAL plus the compaction cadence. Callers serialize Append and
// Compact per session (the server's per-session writer lock).
type SessionStore struct {
	dir           string
	log           *Log
	snapshotEvery int
	snapVersion   uint64
}

// Append makes one update batch durable (per the fsync policy) before the
// caller makes it visible in memory.
func (st *SessionStore) Append(rec *Record) error {
	return st.log.Append(rec)
}

// ShouldCompact reports whether the WAL has accumulated enough records
// since the last snapshot to warrant compaction.
func (st *SessionStore) ShouldCompact() bool {
	return st.snapshotEvery > 0 && st.log.AppendCount() >= st.snapshotEvery
}

// Compact writes a snapshot of head at the given version and truncates
// the WAL. The snapshot lands via tmp+fsync+rename, the WAL is truncated
// only afterwards, and older snapshot files are removed last — every
// crash window recovers to the same head.
func (st *SessionStore) Compact(head *engine.Snapshot, version uint64) error {
	path := filepath.Join(st.dir, snapName(version))
	// Fork is O(relations) and shares all frozen storage; Save reads
	// base/delta/nextID/seq from the fork, which Freeze/Fork round-trip.
	if err := writeSnapshotFile(path, head.Fork()); err != nil {
		return err
	}
	if err := st.log.Reset(); err != nil {
		return err
	}
	prev := st.snapVersion
	st.snapVersion = version
	// Best-effort removal of superseded snapshots; recovery always picks
	// the newest, so leftovers cost only disk.
	if prev != version {
		os.Remove(filepath.Join(st.dir, snapName(prev)))
	}
	return nil
}

// SnapshotVersion returns the version of the newest durable snapshot.
func (st *SessionStore) SnapshotVersion() uint64 { return st.snapVersion }

// Sync flushes the WAL regardless of policy (clean shutdown).
func (st *SessionStore) Sync() error { return st.log.Sync() }

// Close flushes and closes the WAL handle. The durable state stays on
// disk — Close is cache eviction, not deletion.
func (st *SessionStore) Close() error { return st.log.Close() }

func snapName(version uint64) string { return fmt.Sprintf("snap-%d.snap", version) }

// newestSnapshot finds the highest-versioned snap-<V>.snap in dir.
func newestSnapshot(dir string) (string, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	best := uint64(0)
	found := false
	for _, e := range entries {
		var v uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d.snap", &v); n == 1 && strings.HasSuffix(e.Name(), ".snap") {
			if !found || v > best {
				best, found = v, true
			}
		}
	}
	if !found {
		return "", 0, errors.New("no snapshot file")
	}
	return filepath.Join(dir, snapName(best)), best, nil
}

// writeSnapshotFile saves db to path atomically: tmp, fsync, rename.
func writeSnapshotFile(path string, db *engine.Database) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
