// Package server turns the repair library into a concurrent repair
// service: named (schema, program, database) sessions are compiled and
// frozen once, at registration (datalog.Prepare + Database.Freeze), and
// requests read forks of the shared snapshot — zero deep copies and zero
// re-planning on the hot path. The package exposes both an embeddable Go
// API (Service) and a net/http JSON API (Service.Handler); cmd/deltarepaird
// wraps the latter in a binary.
//
// Concurrency model:
//
//   - Admission control: a bounded token pool (Config.MaxInFlight) caps
//     the number of repairs executing at once; excess requests queue in
//     acquire() and honor their context while waiting.
//   - Session cache: an LRU keyed by session name holds each session's
//     Prepared plan and frozen snapshot versions. A session is ready to
//     serve from the moment it is visible; a persisted session missing
//     from the cache is recovered single-flight on its first access.
//   - Isolation: requests that compute read a Snapshot.Fork that no one
//     writes: the session's derivation of a version (one core.Derivation,
//     shared by every miss at that version) never mutates its fork, and a
//     repaired instance is a further fork of its own. Forks share the
//     frozen storage and warm indexes read-only, so requests never observe
//     each other's deletions.
//   - Artefacts: what a request computed from a snapshot version is kept
//     in the session's version-keyed artefact store (artefacts.go), so a
//     repeat read of that version is answered without computing.
//   - Cancellation: per-request deadlines (Config.DefaultTimeout or the
//     request's own timeout) flow through core.Options.Ctx into the
//     executors' derivation rounds and the SAT search.
package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/sat"
	"repro/internal/server/durability"
	"repro/internal/sideeffect"
)

// Service errors distinguished by the HTTP layer.
var (
	// ErrNotFound reports a request against an unknown (or evicted)
	// session name.
	ErrNotFound = errors.New("server: session not found")
	// ErrDuplicate reports a Register against a name already registered.
	ErrDuplicate = errors.New("server: session already registered")
	// ErrBadRequest wraps client-side input errors (e.g. a malformed view
	// source) so the HTTP layer maps them to 400 rather than 500.
	ErrBadRequest = errors.New("server: bad request")
	// ErrSchemaMismatch reports an update batch that does not fit the
	// session's schema (unknown relation or wrong arity): the client's
	// view of the session conflicts with its actual shape (409).
	ErrSchemaMismatch = errors.New("server: update does not match session schema")
	// ErrVersionGone reports a request pinned to a version that has been
	// evicted from the session's retained-version ring (409): the client
	// must retry against a newer version.
	ErrVersionGone = errors.New("server: pinned version no longer retained")
)

// Default configuration values.
const (
	// DefaultMaxSessions is the session-cache capacity when
	// Config.MaxSessions is 0.
	DefaultMaxSessions = 64
	// DefaultMaxBodyBytes is the request-body limit when
	// Config.MaxBodyBytes is 0.
	DefaultMaxBodyBytes = 64 << 20
)

// Config tunes a Service.
type Config struct {
	// MaxSessions caps the session cache; registering beyond it evicts
	// the least-recently-used session. 0 means DefaultMaxSessions.
	MaxSessions int
	// MaxInFlight bounds the number of concurrently executing repairs
	// (admission control); excess requests queue, honoring their context
	// while waiting. 0 means 2×GOMAXPROCS.
	MaxInFlight int
	// DefaultTimeout bounds each request when the request itself does not
	// choose a timeout. 0 means no default deadline.
	DefaultTimeout time.Duration
	// SolverMaxNodes is the Min-Ones-SAT budget for independent semantics
	// and view-tuple deletion, and the ceiling on a request's own budget.
	// 0 means the solver default.
	SolverMaxNodes int64
	// MaxVersions is the per-session retained-version window: how many
	// snapshot versions (head included) stay resolvable for pinned reads
	// after base-table updates. 0 means engine.DefaultRetainedVersions.
	// In-flight requests on older versions always complete — eviction only
	// limits *new* pinned reads.
	MaxVersions int
	// MaxBodyBytes bounds every POST body the HTTP API reads; a longer
	// body is refused with 413. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// DataDir enables durability: every registered session is persisted
	// (snapshot + write-ahead log of update batches) under this directory,
	// updates are logged before they become visible, and sessions are
	// recovered lazily after a restart. Empty means pure in-memory
	// sessions (the pre-durability behavior).
	DataDir string
	// NoFsync relaxes the WAL flush policy from fsync-per-append (the
	// default: acknowledged updates survive power loss) to OS-buffered
	// writes (acknowledged updates survive a process crash only).
	NoFsync bool
	// SnapshotEvery is the compaction cadence: after this many WAL
	// records a fresh checkpoint is written and the WAL truncated. 0 means
	// durability.DefaultSnapshotEvery; negative disables automatic
	// compaction.
	SnapshotEvery int
}

// Service is a concurrent repair service over a cache of named sessions.
// All methods are safe for concurrent use.
type Service struct {
	cfg    Config
	tokens chan struct{}

	mu      sync.Mutex
	byName  map[string]*list.Element
	lru     *list.List // of *Session; front = most recently used
	loading map[string]*loadFlight

	// dur is non-nil when durability is enabled (Config.DataDir set).
	dur *durability.Manager

	metrics   *svcMetrics
	evictions atomic.Int64
}

// loadFlight deduplicates concurrent lazy recoveries of one session:
// followers wait for the leader's disk load instead of racing it.
type loadFlight struct {
	done chan struct{}
	err  error
}

// Open builds a Service; zero-value Config fields take the documented
// defaults. With Config.DataDir set it prepares the data directory, which
// can fail, and arms lazy crash recovery — every session persisted by an
// earlier process is restored (newest checkpoint + WAL tail replay) on its
// first access.
func Open(cfg Config) (*Service, error) {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Service{
		cfg:     cfg,
		tokens:  make(chan struct{}, cfg.MaxInFlight),
		byName:  make(map[string]*list.Element),
		lru:     list.New(),
		loading: make(map[string]*loadFlight),
	}
	s.metrics = newSvcMetrics(s)
	if cfg.DataDir != "" {
		fsync := durability.FsyncAlways
		if cfg.NoFsync {
			fsync = durability.FsyncNever
		}
		m, err := durability.NewManager(durability.Options{
			Dir: cfg.DataDir, Fsync: fsync, SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
		s.dur = m
	}
	return s, nil
}

// Durable reports whether sessions persist across restarts.
func (s *Service) Durable() bool { return s.dur != nil }

// Persisted lists the names of sessions with durable state on disk
// (resident in the cache or awaiting lazy recovery). Nil when durability
// is disabled.
func (s *Service) Persisted() ([]string, error) {
	if s.dur == nil {
		return nil, nil
	}
	return s.dur.List()
}

// Close flushes and closes every resident session's WAL. Durable state
// stays on disk for the next process; the Service must not be used after
// Close.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for el := s.lru.Front(); el != nil; el = el.Next() {
		sess := el.Value.(*Session)
		if sess.store == nil {
			continue
		}
		sess.verMu.Lock()
		err := sess.store.Close()
		sess.verMu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Session is one registered (schema, program, database) triple, prepared
// and frozen. Sessions are owned by the Service; callers interact through
// Service methods.
type Session struct {
	name     string
	nameJSON []byte // name as a JSON string, spliced into /repair bodies
	// prep is the compiled program; prep.Schema and prep.Program are the
	// session's schema and program.
	prep *datalog.Prepared

	// store is the session's open durable state (WAL handle + compaction
	// cadence); nil when durability is disabled. Guarded by verMu for
	// appends and compaction, by the Service eviction path for Close.
	store *durability.SessionStore

	// Mutable-session state. The ring holds the retained snapshot
	// versions together with the per-version ApplyInfo that warm-start
	// hints are assembled from (readers go through the ring's own lock);
	// verMu serializes writers so the version history stays linear.
	// artefacts holds what requests computed from those versions (results,
	// verdicts, spaces, encoded bodies), pruned with the ring.
	verMu     sync.Mutex
	ring      *engine.SnapshotRing
	artefacts *artefactStore

	// deriv is the derivation slot: the core.Derivation of the newest
	// version any store miss asked for, which every miss at that version
	// shares (derivation). Guarded by derivMu; nil once the session is
	// deregistered or evicted.
	derivMu sync.Mutex
	deriv   *core.Derivation
	derivAt uint64

	requests atomic.Int64
	updates  atomic.Int64
}

// newSession builds a session that serves from the moment it exists: the
// prepared plan, and the frozen snapshot installed as the head of a fresh
// version ring at the given version. Register and recovery both build
// their sessions here.
func (s *Service) newSession(name string, prep *datalog.Prepared, snap *engine.Snapshot, version uint64, store *durability.SessionStore) *Session {
	ring := engine.NewSnapshotRingAt(snap, version, s.cfg.MaxVersions)
	return &Session{
		name: name, nameJSON: jsonString(name), prep: prep, store: store,
		ring: ring, artefacts: newArtefactStore(ring),
	}
}

// resolve maps a pinned version (0 = head) to its retained snapshot.
func (sess *Session) resolve(version uint64) (*engine.Snapshot, uint64, error) {
	if version == 0 {
		snap, head := sess.ring.Head()
		return snap, head, nil
	}
	if snap, ok := sess.ring.At(version); ok {
		return snap, version, nil
	}
	head := sess.ring.HeadVersion()
	if version > head {
		return nil, 0, fmt.Errorf("%w: session %q version %d not yet minted (head is %d)",
			ErrBadRequest, sess.name, version, head)
	}
	return nil, 0, fmt.Errorf("%w: session %q version %d (retained %d..%d)",
		ErrVersionGone, sess.name, version, sess.ring.Oldest(), head)
}

// derivation returns the derivation of snap, the session's snapshot at
// version, that a store miss at version runs on: the slot's when it holds
// that version, else a new one, installed in the slot when version is at
// least the slot's. An older pinned version gets a derivation of its own,
// not stored. One lookup is counted per call, so per request that needs a
// derivation.
func (s *Service) derivation(sess *Session, snap *engine.Snapshot, version uint64) (*core.Derivation, error) {
	sess.derivMu.Lock()
	defer sess.derivMu.Unlock()
	hit := sess.deriv != nil && sess.derivAt == version
	s.metrics.derivationLookups.count(hit)
	if hit {
		return sess.deriv, nil
	}
	d, err := core.NewDerivation(snap.Fork(), sess.prep)
	if err != nil {
		return nil, err
	}
	if version >= sess.derivAt {
		sess.deriv, sess.derivAt = d, version
	}
	return d, nil
}

// dropDerivation frees the session's derivation slot.
func (sess *Session) dropDerivation() {
	sess.derivMu.Lock()
	sess.deriv = nil
	sess.derivMu.Unlock()
}

// repairHints assembles incremental-execution hints for a repair: the
// newest result stored under key's semantics and budget at key's version
// or an earlier retained one, plus the union of the base changes between
// that version and key's. Returns nil when no exact hints exist — the
// request then runs from scratch.
func (sess *Session) repairHints(key artefactKey) *core.WarmStart {
	a, from, ok := sess.artefacts.latest(key)
	if !ok {
		return nil
	}
	w, ok := sess.changesSince(from, key.version)
	if !ok {
		return nil
	}
	w.PrevResult = a.res
	return w
}

// changesSince folds the ring's per-version update metadata in (from, to]
// into a WarmStart's change fields. ok is false when any version in the
// range has been evicted from the ring, in which case no exact hints
// exist. Reading needs no writer lock: a version's metadata never changes
// once recorded, and an eviction racing the walk simply reports the chain
// broken (no hints) — the same answer a consistent read after the
// eviction would give.
func (sess *Session) changesSince(from, to uint64) (*core.WarmStart, bool) {
	w := &core.WarmStart{}
	for v := from + 1; v <= to; v++ {
		info, ok := sess.ring.AppliedAt(v)
		if !ok {
			return nil, false
		}
		for rel, tuples := range info.InsertedTuples {
			if w.Inserted == nil {
				w.Inserted = make(map[string][]*engine.Tuple)
			}
			w.Inserted[rel] = append(w.Inserted[rel], tuples...)
		}
		for rel, tuples := range info.DeletedTuples {
			if w.Deleted == nil {
				w.Deleted = make(map[string][]*engine.Tuple)
			}
			w.Deleted[rel] = append(w.Deleted[rel], tuples...)
		}
	}
	return w, true
}

// Register adds a named session. It prepares the program and freezes db
// into the session's version-1 snapshot before the session becomes
// visible, so the first request finds it ready; db stays usable as a
// pristine fork of that snapshot, and later changes to it do not reach the
// session. The program must already be validated against the schema: a
// program Prepare rejects fails here. Registering an existing name returns
// ErrDuplicate; when the cache is full the least-recently-used session is
// evicted (in-flight requests on an evicted session complete normally on
// their forks; with durability enabled its state stays on disk and the
// session is recovered lazily on next access).
//
// With durability enabled the registration is persisted — metadata, the
// version-1 checkpoint, and an empty WAL — before the session
// becomes visible, and the atomic session-directory create arbitrates
// duplicate names (an evicted-but-persisted session still counts as
// registered). A program that fails to prepare leaves no directory behind.
func (s *Service) Register(name string, schema *engine.Schema, db *engine.Database, prog *datalog.Program) (err error) {
	defer s.track("register", time.Now(), &err)
	if name == "" {
		return fmt.Errorf("server: session name must be non-empty")
	}
	if schema == nil || db == nil || prog == nil {
		return fmt.Errorf("server: session %q needs a schema, database, and program", name)
	}
	if db.Schema != schema {
		return fmt.Errorf("server: session %q database built over a different schema", name)
	}
	prep, err := datalog.Prepare(prog, schema)
	if err != nil {
		return fmt.Errorf("server: preparing session %q: %w", name, err)
	}
	snap := db.Freeze()
	var store *durability.SessionStore
	if s.dur != nil {
		// db is now a pristine fork of snap, so Create's own Freeze hands
		// back snap itself: the checkpoint is the state the session serves.
		meta := durability.Meta{Name: name, Schema: schema.String(), Program: prog.String()}
		store, err = s.dur.Create(meta, db)
		if os.IsExist(err) {
			return fmt.Errorf("%w: %q", ErrDuplicate, name)
		}
		if err != nil {
			return fmt.Errorf("server: persisting session %q: %w", name, err)
		}
		s.metrics.countCheckpoint(store.LastCheckpoint())
	}
	sess := s.newSession(name, prep, snap, 1, store)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[name]; ok {
		// Unreachable with durability on (Create would have hit ErrExist);
		// the in-memory check carries the non-durable configuration.
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	s.byName[name] = s.lru.PushFront(sess)
	s.evictOverflowLocked()
	s.metrics.starts.With("cold").Inc()
	return nil
}

// evictOverflowLocked trims the LRU to capacity; caller holds s.mu.
// Eviction is not deletion: a durable victim's WAL handle is closed but
// its on-disk state survives for lazy recovery.
func (s *Service) evictOverflowLocked() {
	for s.lru.Len() > s.cfg.MaxSessions {
		oldest := s.lru.Back()
		victim := oldest.Value.(*Session)
		s.lru.Remove(oldest)
		delete(s.byName, victim.name)
		s.evictions.Add(1)
		victim.dropDerivation()
		if victim.store != nil {
			// verMu keeps the close ordered after any in-flight append on
			// the victim (lock order s.mu→verMu is acyclic: request paths
			// never take s.mu while holding verMu).
			victim.verMu.Lock()
			victim.store.Close()
			victim.verMu.Unlock()
		}
	}
}

// Deregister removes a session by name, reporting whether it existed.
// With durability enabled this deletes the on-disk state too — the
// counterpart of cache eviction, which merely closes it.
func (s *Service) Deregister(name string) bool {
	var err error
	defer s.track("deregister", time.Now(), &err)
	s.mu.Lock()
	el, ok := s.byName[name]
	if ok {
		s.lru.Remove(el)
		delete(s.byName, name)
		sess := el.Value.(*Session)
		sess.dropDerivation()
		if sess.store != nil {
			sess.verMu.Lock()
			sess.store.Close()
			sess.verMu.Unlock()
		}
	}
	s.mu.Unlock()
	existed := ok
	if s.dur != nil && s.dur.Exists(name) {
		existed = true
		if derr := s.dur.Delete(name); derr != nil && err == nil {
			err = derr
		}
	}
	if !existed {
		err = ErrNotFound
	}
	return existed
}

// session returns the named session, promoting it to most-recently-used.
// With durability enabled, a cache miss for a persisted session triggers
// lazy crash recovery (single-flight per name): the newest checkpoint is
// loaded, the WAL tail replayed, and the session re-enters the cache at
// its pre-crash head version.
func (s *Service) session(name string) (*Session, error) {
	for {
		s.mu.Lock()
		if el, ok := s.byName[name]; ok {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			return el.Value.(*Session), nil
		}
		if s.dur == nil || !s.dur.Exists(name) {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if fl, ok := s.loading[name]; ok {
			s.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			continue // leader inserted it; resolve through the cache
		}
		fl := &loadFlight{done: make(chan struct{})}
		s.loading[name] = fl
		s.mu.Unlock()

		sess, err := s.loadSession(name)
		s.mu.Lock()
		delete(s.loading, name)
		if err == nil {
			s.byName[name] = s.lru.PushFront(sess)
			s.evictOverflowLocked()
		}
		s.mu.Unlock()
		fl.err = err
		close(fl.done)
		if err != nil {
			return nil, err
		}
		return sess, nil
	}
}

// loadSession recovers one session from the durability layer.
func (s *Service) loadSession(name string) (*Session, error) {
	start := time.Now()
	rec, err := s.dur.Open(name)
	if err != nil {
		return nil, fmt.Errorf("server: recovering session %q: %w", name, err)
	}
	schema := rec.Snapshot.Schema()
	prog, err := datalog.ParseAndValidate(rec.Meta.Program, schema)
	var prep *datalog.Prepared
	if err == nil {
		prep, err = datalog.Prepare(prog, schema)
	}
	if err != nil {
		rec.Store.Close()
		return nil, fmt.Errorf("server: recovering session %q program: %w", name, err)
	}
	s.metrics.recoverySeconds.ObserveSeconds(time.Since(start))
	s.metrics.replayedRecords.Add(uint64(rec.Replayed))
	s.metrics.segmentCompactions.Add(uint64(rec.Compactions))
	if rec.WalStats.TornTail {
		s.metrics.tornTails.Inc()
	}
	s.metrics.corruptRecords.Add(uint64(rec.WalStats.CorruptRecords))
	s.metrics.starts.With("recovered").Inc()
	return s.newSession(name, prep, rec.Snapshot, rec.Version, rec.Store), nil
}

// SessionInfo is a point-in-time snapshot of one cached session's state.
type SessionInfo struct {
	Name      string `json:"name"`
	Relations int    `json:"relations"`
	Rules     int    `json:"rules"`
	Tuples    int    `json:"tuples"`
	Recursive bool   `json:"recursive"`
	// Requests counts the session's calls admitted: repair, repair-all,
	// repair-space, query, is-stable, update and view-deletion requests.
	Requests int64 `json:"requests"`
	// Forks counts working copies minted from the session's snapshot
	// versions — the engine's concurrent fork accounting: one per
	// derivation (one per version the requests computed at, not one per
	// request) plus those the executors and materialised repairs make.
	Forks int64 `json:"forks"`
	// Version is the head (newest) snapshot version; versions start at 1
	// (the registration state) and advance by one per update.
	Version uint64 `json:"version,omitempty"`
	// OldestVersion is the oldest version still resolvable for pinned
	// reads; older pinned requests get 409.
	OldestVersion uint64 `json:"oldest_version,omitempty"`
	// RetainedVersions is the number of live versions in the ring
	// (Version - OldestVersion + 1).
	RetainedVersions int `json:"retained_versions,omitempty"`
	// Updates counts base-table update batches applied.
	Updates int64 `json:"updates,omitempty"`
	// Segments is the largest number of sealed storage segments any
	// relation of the head version is spread over (1 after registration
	// or recovery, at most 3 after updates): the fan-out a probe of the
	// most-updated relation pays.
	Segments int `json:"segments,omitempty"`
	// ArtefactBytes is the encoded response bytes the session's artefact
	// store holds for pinned reads (at most 8 MiB).
	ArtefactBytes int `json:"artefact_bytes,omitempty"`
}

// Sessions lists cached sessions, most recently used first.
func (s *Service) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		sess := el.Value.(*Session)
		head, version := sess.ring.Head()
		info := SessionInfo{
			Name:             sess.name,
			Relations:        len(sess.prep.Schema.Relations),
			Rules:            len(sess.prep.Program.Rules),
			Tuples:           head.TotalTuples(),
			Recursive:        sess.prep.Program.Recursive,
			Requests:         sess.requests.Load(),
			Version:          version,
			OldestVersion:    sess.ring.Oldest(),
			RetainedVersions: sess.ring.Retained(),
			Updates:          sess.updates.Load(),
			Segments:         head.Segments(),
			ArtefactBytes:    sess.artefacts.held(),
		}
		// Fork accounting spans every retained version, so the stat
		// keeps counting requests that read pinned older versions.
		for v := info.OldestVersion; v <= version; v++ {
			if s, ok := sess.ring.At(v); ok {
				info.Forks += s.Forks()
			}
		}
		out = append(out, info)
	}
	return out
}

// Evictions returns the number of sessions evicted by LRU pressure.
func (s *Service) Evictions() int64 { return s.evictions.Load() }

// MaxInFlight returns the effective admission bound (the resolved value,
// after defaulting).
func (s *Service) MaxInFlight() int { return cap(s.tokens) }

// Len returns the number of cached sessions.
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// RequestOptions tunes one request.
type RequestOptions struct {
	// Timeout overrides Config.DefaultTimeout for this request: > 0 sets
	// a deadline, < 0 disables the default, 0 keeps the default.
	Timeout time.Duration
	// SolverMaxNodes, when > 0, lowers the request's Min-Ones-SAT budget
	// below the daemon's; it never raises it (see solverBudget).
	SolverMaxNodes int64
	// Version pins the request to a specific snapshot version
	// (read-your-writes: pin the version an earlier Update returned).
	// 0 reads the head. Pinning a version evicted from the retention ring
	// fails with ErrVersionGone; pinning ahead of the head with
	// ErrBadRequest.
	Version uint64
}

// acquire takes an admission token, honoring ctx while queued.
func (s *Service) acquire(ctx context.Context) error {
	select {
	case s.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) release() { <-s.tokens }

func normalize(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// requestCtx applies the effective timeout. Requests install it once
// admitted and only when they compute: a read answered from the artefact
// store arms no timer.
func (s *Service) requestCtx(ctx context.Context, opts RequestOptions) (context.Context, context.CancelFunc) {
	ctx = normalize(ctx)
	d := s.cfg.DefaultTimeout
	switch {
	case opts.Timeout > 0:
		d = opts.Timeout
	case opts.Timeout < 0:
		d = 0
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// solverBudget is the Min-Ones-SAT node budget a request runs under. The
// daemon's budget — Config.SolverMaxNodes, or sat.DefaultMaxNodes when that
// is 0 — is a ceiling: a client may ask for less, never for more, so one
// request cannot buy an unbounded search.
func (s *Service) solverBudget(opts RequestOptions) int64 {
	ceiling := s.cfg.SolverMaxNodes
	if ceiling <= 0 {
		ceiling = sat.DefaultMaxNodes
	}
	if opts.SolverMaxNodes > 0 && opts.SolverMaxNodes < ceiling {
		return opts.SolverMaxNodes
	}
	return ceiling
}

func (s *Service) coreOptions(sess *Session, ctx context.Context, opts RequestOptions) core.Options {
	return core.Options{
		Prepared:    sess.prep,
		Ctx:         ctx,
		Independent: core.IndependentOptions{MaxNodes: s.solverBudget(opts)},
	}
}

// begin is the shared request prologue: admission, session lookup and
// accounting. The caller must call done when the request finishes.
func (s *Service) begin(ctx context.Context, name string) (_ *Session, done func(), _ error) {
	if err := s.acquire(normalize(ctx)); err != nil {
		return nil, nil, err
	}
	sess, err := s.session(name)
	if err != nil {
		s.release()
		return nil, nil, err
	}
	sess.requests.Add(1)
	return sess, s.release, nil
}

// RepairVersioned computes the stabilizing set for the named session under
// the chosen semantics. It returns the result, the repaired instance (a
// fork of the session's snapshot materialised for this call; safe to read)
// and the snapshot version the repair executed against — the head at
// admission time, or the pinned opts.Version. Results are stored per
// (version, semantics, budget): a repeat at a version answers from the
// store. A miss runs the policy on the session's derivation of that
// version (Service.derivation), so the closure and the end fixpoint are
// built at most once per version whichever requests ask for them. A result
// warm-starts later versions by probe replay — an update whose changed
// tuples bind no rule assignment replays it with no derivation at all;
// otherwise the policy runs cold, so the answer at a version, Rounds
// included, does not depend on what was asked before.
func (s *Service) RepairVersioned(ctx context.Context, name string, sem core.Semantics, opts RequestOptions) (*core.Result, *engine.Database, uint64, error) {
	a, err := s.repair(ctx, name, sem, opts, false)
	if err != nil {
		return nil, nil, 0, err
	}
	repaired, err := core.Materialize(a.snap.Fork(), a.res)
	if err != nil {
		return nil, nil, 0, err
	}
	return a.res, repaired, a.version, nil
}

// repairAnswer is one semantics' repair at one version, as repair returns
// it.
type repairAnswer struct {
	res *core.Result
	// fields is the encoded /repair fields (repairFields); nil unless asked
	// for.
	fields []byte
	// nameJSON is the session name as a JSON string.
	nameJSON []byte
	snap     *engine.Snapshot
	version  uint64
	// elapsed is the core time this call spent: 0 when the store answered.
	elapsed time.Duration
}

// repair is RepairVersioned without the repaired instance, answered from
// the session's artefact store where it can be: a stored result for
// (version, semantics, budget) — and, with withFields, its stored encoded
// fields — costs no fork, no derivation and no encoding. A miss runs the
// policy on the session's derivation of the version, sharing whatever
// earlier misses there built, warm-started from the newest stored result
// at or before the version; it encodes the fields once when asked to, and
// stores what it built.
func (s *Service) repair(ctx context.Context, name string, sem core.Semantics, opts RequestOptions, withFields bool) (_ repairAnswer, err error) {
	defer s.track("repair", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return repairAnswer{}, err
	}
	defer done()
	snap, version, err := sess.resolve(opts.Version)
	if err != nil {
		return repairAnswer{}, err
	}
	key := repairKey(version, sem, s.solverBudget(opts))
	stored, _ := sess.artefacts.get(key)
	a := repairAnswer{res: stored.res, fields: stored.body, nameJSON: sess.nameJSON, snap: snap, version: version}
	if withFields {
		s.metrics.repairLookups.count(a.fields != nil)
	}
	if a.res == nil {
		d, err := s.derivation(sess, snap, version)
		if err != nil {
			return repairAnswer{}, err
		}
		reqCtx, cancel := s.requestCtx(ctx, opts)
		defer cancel()
		copts := s.coreOptions(sess, reqCtx, opts)
		copts.Warm = sess.repairHints(key)
		if a.res, err = d.Run(sem, copts); err != nil {
			return repairAnswer{}, err
		}
		a.elapsed = a.res.Timing.Total()
	}
	if withFields && a.fields == nil {
		a.fields = repairFields(a.res)
	}
	if a.res != stored.res || a.fields != nil && stored.body == nil {
		sess.artefacts.put(key, artefact{res: a.res, body: a.fields})
	}
	return a, nil
}

// RepairAllVersioned runs all four semantics for the named session under
// one admission token and one deadline, on the session's derivation of the
// version, returning results keyed by semantics and the snapshot version
// the repairs executed against.
func (s *Service) RepairAllVersioned(ctx context.Context, name string, opts RequestOptions) (_ map[core.Semantics]*core.Result, _ uint64, err error) {
	defer s.track("repair_all", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	snap, version, err := sess.resolve(opts.Version)
	if err != nil {
		return nil, 0, err
	}
	reqCtx, cancel := s.requestCtx(ctx, opts)
	defer cancel()
	// One derivation: the four policies share the provenance and the end
	// fixpoint with each other and with every other miss at this version;
	// each brings its own stored result as hints.
	d, err := s.derivation(sess, snap, version)
	if err != nil {
		return nil, 0, err
	}
	copts := s.coreOptions(sess, reqCtx, opts)
	out := make(map[core.Semantics]*core.Result, len(core.AllSemantics))
	for _, sem := range core.AllSemantics {
		key := repairKey(version, sem, copts.Independent.MaxNodes)
		copts.Warm = sess.repairHints(key)
		res, err := d.Run(sem, copts)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sem, err)
		}
		sess.artefacts.put(key, artefact{res: res})
		out[sem] = res
	}
	return out, version, nil
}

// IsStableVersioned reports whether the session's database is already
// stable (Def. 3.12) using the cached prepared plans, and the snapshot
// version probed. The request deadline is honored between rule probes.
// Verdicts are stored per version: a repeat probe of a version answers
// from the store; a first probe of a version probes every rule over that
// version alone, whatever earlier versions were found.
func (s *Service) IsStableVersioned(ctx context.Context, name string, opts RequestOptions) (_ bool, _ uint64, err error) {
	defer s.track("is_stable", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return false, 0, err
	}
	defer done()
	snap, version, err := sess.resolve(opts.Version)
	if err != nil {
		return false, 0, err
	}
	key := artefactKey{version: version, kind: stableArtefact}
	if a, ok := sess.artefacts.get(key); ok {
		return a.stable, version, nil
	}
	reqCtx, cancel := s.requestCtx(ctx, opts)
	defer cancel()
	stable, err := core.CheckStable(snap.Fork(), sess.prep.Program, core.Options{Prepared: sess.prep, Ctx: reqCtx})
	if err != nil {
		return false, 0, err
	}
	sess.artefacts.put(key, artefact{stable: stable})
	return stable, version, nil
}

// UpdateResult reports an applied base-table update batch.
type UpdateResult struct {
	// Version is the new head version; pin it in later requests for
	// read-your-writes.
	Version uint64 `json:"version"`
	// OldestVersion is the oldest version still retained for pinned reads.
	OldestVersion uint64 `json:"oldest_version"`
	// Inserted and Deleted count the rows that took effect (set
	// semantics: duplicate inserts and absent deletes are no-ops).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Changed lists the relations the batch modified, sorted.
	Changed []string `json:"changed_relations,omitempty"`
}

// Update applies a base-table update batch (deletes first, then inserts)
// to the named session, producing a new snapshot version and returning
// its number. The session's data changes for subsequent requests;
// requests already in flight keep reading the version they resolved, and
// pinned reads on retained older versions keep working (the retention
// window is Config.MaxVersions).
//
// Untouched relations share their frozen storage and warm indexes with
// the previous version and a touched relation seals only the rows the
// batch changed (engine.Snapshot.Apply: the batch plus a small recent
// segment at the median, never the relation) — and nothing of the
// session's prepared plans is recomputed. A batch that does not fit the
// session schema (unknown relation, wrong arity) fails atomically with
// ErrSchemaMismatch. Concurrent updates to one session serialize;
// versions advance one batch at a time.
//
// With durability enabled the batch is appended to the session's
// write-ahead log — flushed per the fsync policy — *before* the new
// version becomes visible: an acknowledged update survives a crash. A
// crash after the WAL append but before acknowledgement replays the batch
// on recovery (at-least-once; replay is deterministic, so the recovered
// state is exactly what the acknowledged history would have produced).
// Every Config.SnapshotEvery batches the WAL is compacted into a fresh
// snapshot.
func (s *Service) Update(ctx context.Context, name string, inserts, deletes []engine.Row, opts RequestOptions) (_ *UpdateResult, err error) {
	defer s.track("update", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return nil, err
	}
	defer done()
	sess.verMu.Lock()
	defer sess.verMu.Unlock()
	head, headVer := sess.ring.Head()
	next, info, err := head.Apply(inserts, deletes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchemaMismatch, err)
	}
	if sess.store != nil {
		// The record carries the raw batch, not the effective rows: Apply
		// is deterministic (no-ops stay no-ops), so replay reproduces the
		// same state, tuple identities included.
		rec := &durability.Record{Version: headVer + 1, Inserts: inserts, Deletes: deletes}
		t0 := time.Now()
		aerr := sess.store.Append(rec)
		s.metrics.walAppendSeconds.ObserveSeconds(time.Since(t0))
		if aerr != nil {
			return nil, fmt.Errorf("server: persisting update for session %q: %w", name, aerr)
		}
	}
	version := sess.ring.AdvanceApplied(next, info)
	sess.artefacts.prune()
	s.metrics.rowsChanged.Add(uint64(info.Inserted + info.Deleted))
	s.metrics.rowsSealed.Add(uint64(info.RowsSealed))
	s.metrics.segmentCompactions.Add(uint64(info.Compactions))
	if sess.store != nil && sess.store.ShouldCompact() {
		// A failed compaction is not a failed update (the batch is already
		// durable in the WAL); the next batch simply retries.
		if cerr := sess.store.Compact(next, version); cerr == nil {
			s.metrics.compactions.Inc()
			s.metrics.countCheckpoint(sess.store.LastCheckpoint())
		}
	}
	oldest := sess.ring.Oldest()
	sess.updates.Add(1)
	return &UpdateResult{
		Version:       version,
		OldestVersion: oldest,
		Inserted:      info.Inserted,
		Deleted:       info.Deleted,
		Changed:       info.Changed,
	}, nil
}

// DeleteViewTuple solves the deletion-propagation problem for the named
// session: find a minimum base-deletion set removing the view row with the
// given values while keeping the database stable under the session's
// program (§7 of the paper). The view source is parsed per request against
// the session schema.
func (s *Service) DeleteViewTuple(ctx context.Context, name, viewSrc string, target []engine.Value, opts RequestOptions) (_ *sideeffect.Result, err error) {
	defer s.track("delete_view", time.Now(), &err)
	sess, done, err := s.begin(ctx, name)
	if err != nil {
		return nil, err
	}
	defer done()
	snap, _, err := sess.resolve(opts.Version)
	if err != nil {
		return nil, err
	}
	reqCtx, cancel := s.requestCtx(ctx, opts)
	defer cancel()
	v, err := sideeffect.ParseView(viewSrc, sess.prep.Schema)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	res, _, err := sideeffect.DeleteViewTuple(snap.Fork(), v, target, sess.prep,
		sideeffect.Options{MaxNodes: s.solverBudget(opts), Ctx: reqCtx})
	if errors.Is(err, sideeffect.ErrNoSuchRow) {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return res, err
}
