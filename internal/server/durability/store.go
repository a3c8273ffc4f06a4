package durability

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/engine"
)

// On-disk layout, one directory per session under Options.Dir:
//
//	<dir>/<encoded-name>/meta.json           registration metadata (name, sources)
//	<dir>/<encoded-name>/ckpt-<V>.manifest   newest checkpoint, at version V
//	<dir>/<encoded-name>/seg-<N>.seg         the segment files it names
//	<dir>/<encoded-name>/wal.log             update batches applied since version V
//
// A checkpoint (checkpoint.go) writes only the segment files the previous
// one does not reference, then lands its manifest tmp + fsync + rename, so
// every crash window leaves either the old checkpoint or the new one —
// never a half-written manifest. The WAL is truncated only after the new
// manifest is durably in place, and the superseded manifest and segment
// files are removed last; recovery skips WAL records at or below the
// checkpoint version and sweeps whatever a crash left behind (*.tmp files,
// unreferenced segment files, superseded manifests).

// DefaultSnapshotEvery is the compaction cadence (WAL records between
// checkpoints) when Options.SnapshotEvery is 0.
const DefaultSnapshotEvery = 64

// Options configures a Manager.
type Options struct {
	// Dir is the root data directory; one subdirectory per session.
	Dir string
	// Fsync is the WAL flush policy.
	Fsync FsyncPolicy
	// SnapshotEvery is the number of WAL records that triggers a
	// checkpoint. 0 means DefaultSnapshotEvery; negative disables
	// automatic compaction.
	SnapshotEvery int
}

// Meta is a session's registration metadata, stored as meta.json. Schema
// and Program are source text: Program is re-parsed during recovery (a
// checkpoint carries only data, not rules); Schema is informational — the
// authoritative schema is the one the checkpoint's manifest records.
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

// Create persists a new session: the version-1 checkpoint of db, an empty
// WAL, and its metadata. db is frozen (it stays usable, as a pristine fork
// of its snapshot). A session directory that already exists fails with
// os.ErrExist — concurrent Creates race on the atomic Mkdir, so the
// filesystem is the duplicate-registration arbiter. An acknowledged Create
// survives power loss: meta.json and the directory entries leading to it
// are fsynced.
func (m *Manager) Create(meta Meta, db *engine.Database) (*SessionStore, error) {
	dir := m.sessionDir(meta.Name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err // ErrExist = duplicate
	}
	st := &SessionStore{dir: dir, snapshotEvery: m.opts.SnapshotEvery, nextSegment: 1}
	if err := st.writeCheckpoint(db.Freeze(), 1, nil); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	log, err := OpenLog(filepath.Join(dir, "wal.log"), m.opts.Fsync)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// meta.json lands last: its presence marks the directory complete
	// (List and Exists key off it). Its fsync covers the session
	// directory's entries; the data directory's holds the session's.
	if err := writeJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		log.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	syncDir(m.opts.Dir)
	st.log = log
	return st, nil
}

// Recovered is a session restored from disk: its metadata, the replayed
// head state, and the reopened store for further appends.
type Recovered struct {
	Meta Meta
	// Snapshot is the recovered head — the newest durable checkpoint with
	// the WAL tail replayed onto it via Snapshot.Apply (deterministic, so
	// the head is byte-identical to the pre-crash state).
	Snapshot *engine.Snapshot
	// Version is the head's version number.
	Version uint64
	// SnapshotVersion is the version of the on-disk checkpoint the replay
	// started from.
	SnapshotVersion uint64
	// Replayed is the number of WAL records applied on top of it, and
	// Compactions the segment tier merges those applies ran (each record
	// is sealed onto the loaded checkpoint like a live update, not
	// re-frozen).
	Replayed    int
	Compactions int
	// WalStats reports what the WAL read found (torn tail, corrupt
	// records); the damaged tail has already been truncated.
	WalStats *ReadStats
	// Store accepts the session's future appends.
	Store *SessionStore
}

// Open recovers the named session: load the newest checkpoint, sweep what
// no recovery reads, replay the WAL tail (repairing a torn or corrupt tail
// by truncation), and reopen the log for appending.
func (m *Manager) Open(name string) (*Recovered, error) {
	dir := m.sessionDir(name)
	var meta Meta
	if err := readJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	st, snap, err := m.loadStore(dir)
	if err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	if err := sweep(dir, st.snapVersion, st.files); err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	walPath := filepath.Join(dir, "wal.log")
	recs, stats, err := ReadLog(walPath, true)
	if err != nil {
		return nil, fmt.Errorf("durability: session %q: %w", name, err)
	}
	version := st.snapVersion
	replayed, compactions := 0, 0
	for _, rec := range recs {
		if rec.Version <= version {
			continue // pre-checkpoint tail left by a crash mid-compaction
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
	st.log = log
	return &Recovered{
		Meta:            meta,
		Snapshot:        snap,
		Version:         version,
		SnapshotVersion: st.snapVersion,
		Replayed:        replayed,
		Compactions:     compactions,
		WalStats:        stats,
		Store:           st,
	}, nil
}

// loadStore loads a session directory's newest checkpoint and returns the
// store that continues from it (without its log). A directory whose only
// snapshot is a whole-database snap-<V>.snap from before checkpoints is an
// error naming that file, and is left as it is.
func (m *Manager) loadStore(dir string) (*SessionStore, *engine.Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	st := &SessionStore{dir: dir, snapshotEvery: m.opts.SnapshotEvery, nextSegment: 1}
	var ckpt uint64
	var haveCkpt bool
	var legacy string
	for _, e := range entries {
		if v, ok := parseName(e.Name(), "ckpt-", ".manifest"); ok && (!haveCkpt || v > ckpt) {
			ckpt, haveCkpt = v, true
		} else if n, ok := parseName(e.Name(), "seg-", ".seg"); ok {
			// Never reuse a segment file name, not even an orphan's.
			st.nextSegment = max(st.nextSegment, n+1)
		} else if _, ok := parseName(e.Name(), "snap-", ".snap"); ok {
			legacy = e.Name()
		}
	}
	if !haveCkpt {
		if legacy != "" {
			return nil, nil, fmt.Errorf("%s is a pre-checkpoint snapshot, which this build does not read", legacy)
		}
		return nil, nil, errors.New("no checkpoint")
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName(ckpt)))
	if err != nil {
		return nil, nil, err
	}
	snap, files, err := loadCheckpoint(data, func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, name))
	})
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint at version %d: %w", ckpt, err)
	}
	st.files, st.snapVersion = files, ckpt
	return st, snap, nil
}

// SessionStore is one session's open durable state: the append handle on
// its WAL, the compaction cadence, and the segment files the current
// checkpoint references. Callers serialize Append and Compact per session
// (the server's per-session writer lock).
type SessionStore struct {
	dir           string
	log           *Log
	snapshotEvery int
	snapVersion   uint64

	// files maps each segment the current manifest references to its file.
	// A checkpoint replaces it wholesale, so it never pins a segment the
	// head has dropped.
	files map[*engine.Segment]string
	// nextSegment numbers the next segment file written.
	nextSegment uint64
	last        CheckpointStats
	// crashAt, when set (by tests), is called at each stage of a
	// checkpoint; a non-nil error stops the checkpoint there, leaving the
	// files as a crash at that point would.
	crashAt func(checkpointStage) error
}

// Append makes one update batch durable (per the fsync policy) before the
// caller makes it visible in memory.
func (st *SessionStore) Append(rec *Record) error {
	return st.log.Append(rec)
}

// ShouldCompact reports whether the WAL has accumulated enough records
// since the last checkpoint to warrant compaction.
func (st *SessionStore) ShouldCompact() bool {
	return st.snapshotEvery > 0 && st.log.AppendCount() >= st.snapshotEvery
}

// Compact writes a checkpoint of head at the given version — only the
// segments the last checkpoint lacks, then the manifest — and truncates
// the WAL. The WAL is truncated only after the manifest is in place and
// superseded files are removed last: every crash window recovers to the
// same head.
func (st *SessionStore) Compact(head *engine.Snapshot, version uint64) error {
	return st.writeCheckpoint(head, version, st.log.Reset)
}

// LastCheckpoint reports what the newest checkpoint this store wrote
// (Create's or a Compact's) wrote.
func (st *SessionStore) LastCheckpoint() CheckpointStats { return st.last }

// SnapshotVersion returns the version of the newest durable checkpoint.
func (st *SessionStore) SnapshotVersion() uint64 { return st.snapVersion }

// Sync flushes the WAL regardless of policy (clean shutdown).
func (st *SessionStore) Sync() error { return st.log.Sync() }

// Close flushes and closes the WAL handle. The durable state stays on
// disk — Close is cache eviction, not deletion.
func (st *SessionStore) Close() error { return st.log.Close() }

// syncDir fsyncs a directory so a just-renamed entry survives power loss;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeJSON writes v to path durably: tmp, fsync, rename, directory fsync.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
