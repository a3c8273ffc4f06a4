package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Versioned base-table updates over copy-on-write snapshots.
//
// A Snapshot is immutable, but serving systems answer repairs over data
// that changes between requests. Apply produces the *next* immutable
// version from a batch of base-table inserts and deletes: it forks the
// snapshot, applies the batch to the fork's private overlay, and seals
// what the fork changed — so relations the batch never touches keep
// sharing their frozen core with every earlier version, and a touched
// relation keeps sharing every segment the seal did not rewrite (storage,
// warm indexes, intern map). The median update copies its own rows plus
// at most max(32, √(n/8)) rows of a touched relation of n rows, and an
// amortised O(√n) per row changed while that relation keeps growing; the
// figures and the tier constants behind them are on maxSegments in cow.go.
// A SnapshotRing strings versions together under a monotonically
// increasing version counter with a small retention window, so in-flight
// requests keep reading the version they started on while writers advance
// the head.

// Row addresses one base tuple by content: a relation name and its values
// in schema order. Rows are how update batches name insertions and
// deletions at API boundaries (the engine's internal identity remains the
// interned TupleID).
type Row struct {
	Rel  string
	Vals []Value
}

// ApplyInfo reports what an Apply batch actually did.
type ApplyInfo struct {
	// Inserted and Deleted count the rows that took effect. Inserting
	// content that is already live and deleting content that is not are
	// no-ops, excluded from the counts (set semantics).
	Inserted, Deleted int
	// Changed lists the relations the batch modified, sorted. Empty means
	// the whole batch was a no-op and Apply returned the receiver itself.
	Changed []string
	// InsertedTuples holds the interned tuples of the effective inserts,
	// per relation, in application order. Warm-start layers seed
	// incremental stability probes and derivations with exactly these.
	InsertedTuples map[string][]*Tuple
	// DeletedTuples holds the tuples of the effective deletes, per
	// relation.
	DeletedTuples map[string][]*Tuple
	// RowsSealed counts the rows written into newly built segments — the
	// batch's own inserts plus every row compaction copied — and
	// RowsCompacted the copied part. Compactions counts the tier merges
	// among those rewrites (a recent segment spilling into the middle one,
	// or a fold into a new base). RowsSealed over Inserted+Deleted is the
	// write amplification of the update path.
	RowsSealed, RowsCompacted, Compactions int
}

// Apply produces the snapshot of the database after deleting the given
// rows and then inserting the given rows (deletes first, so a batch can
// replace a row's content). The receiver is untouched — existing forks
// keep reading it — and the returned snapshot shares the frozen core of
// every relation the batch did not modify, including its lazily built warm
// indexes and intern map. A relation with effective changes seals exactly
// those (see Relation.freeze and the cost figures on maxSegments): the
// batch's rows plus a small recent segment at the median, the whole
// relation only at a fold, once per eighth of it changed.
//
// Deleted rows leave the database entirely: a base-table update is
// upstream data churn, not a repair, so nothing is recorded in the delta
// relations. Deleting absent content and inserting present content are
// no-ops (set semantics), reported via ApplyInfo. A batch with no
// effective change returns the receiver itself (pointer-equal) with a nil
// Changed list.
//
// Every row is validated against the schema before any work happens; an
// unknown relation or an arity mismatch fails the whole batch atomically.
// Apply is safe to call concurrently with Fork and with other Apply calls
// (each works on its own private fork), though callers that need a linear
// version history must serialize their writers — see SnapshotRing.
func (s *Snapshot) Apply(inserts, deletes []Row) (*Snapshot, *ApplyInfo, error) {
	for _, batch := range [2][]Row{deletes, inserts} {
		for _, row := range batch {
			rs := s.schema.Relation(row.Rel)
			if rs == nil {
				return nil, nil, fmt.Errorf("engine: update references unknown relation %q", row.Rel)
			}
			if len(row.Vals) != rs.Arity() {
				return nil, nil, fmt.Errorf("engine: update row for %s has %d values, schema arity is %d",
					row.Rel, len(row.Vals), rs.Arity())
			}
		}
	}

	work := s.Fork()
	info := &ApplyInfo{
		InsertedTuples: make(map[string][]*Tuple),
		DeletedTuples:  make(map[string][]*Tuple),
	}
	changed := make(map[string]bool)
	for _, row := range deletes {
		r := work.Relation(row.Rel)
		t := r.Get(ContentKey(row.Rel, row.Vals))
		if t == nil {
			continue // absent content: no-op
		}
		r.DeleteTuple(t)
		info.Deleted++
		info.DeletedTuples[row.Rel] = append(info.DeletedTuples[row.Rel], t)
		changed[row.Rel] = true
	}
	for _, row := range inserts {
		r := work.Relation(row.Rel)
		before := r.Len()
		t, err := work.Insert(row.Rel, row.Vals...)
		if err != nil {
			return nil, nil, err // unreachable after validation; defensive
		}
		if r.Len() == before {
			continue // content already live: no-op
		}
		info.Inserted++
		info.InsertedTuples[row.Rel] = append(info.InsertedTuples[row.Rel], t)
		changed[row.Rel] = true
	}
	if len(changed) == 0 {
		// Freeze on the pristine fork would hand back s anyway; short-circuit
		// so no-op batches are visibly free.
		return s, info, nil
	}
	info.Changed = make([]string, 0, len(changed))
	for rel := range changed {
		info.Changed = append(info.Changed, rel)
	}
	sort.Strings(info.Changed)
	next, st := work.freeze()
	info.RowsSealed, info.RowsCompacted, info.Compactions = st.sealed, st.compacted, st.compactions
	return next, info, nil
}

// SnapshotRing is a bounded history of snapshot versions: a monotonically
// increasing version counter with the most recent capacity versions
// retained. Writers advance the head (AdvanceApplied); readers resolve a
// pinned version with At (read-your-writes) or take the newest with Head.
// Versions that fall out of the ring are only dropped from the *ring* —
// forks already minted from them stay fully usable, because forks hold
// their own references to the frozen cores.
//
// A SnapshotRing is safe for concurrent use. Advances are serialized
// internally, but callers that derive the next snapshot from the current
// head (the Apply-then-advance pattern) must hold their own write lock
// around the whole read-modify-advance sequence to keep history linear.
type SnapshotRing struct {
	mu    sync.RWMutex
	slots []*Snapshot
	// metas[v%cap] describes the update batch that produced version v —
	// the ApplyInfo recorded by AdvanceApplied, nil for the base version
	// and for versions advanced without metadata. Serving layers chain
	// warm starts across consecutive versions from these without keeping
	// their own version bookkeeping; eviction is automatic with the slot.
	metas []*ApplyInfo
	head  uint64 // newest version; versions start at 1
	n     int    // number of retained versions, ≤ len(slots)
}

// DefaultRetainedVersions is the ring capacity used when NewSnapshotRingAt
// is given a non-positive one.
const DefaultRetainedVersions = 4

// NewSnapshotRingAt starts a version history with base installed at the
// given version: 1 for a new registration, and for crash recovery the
// version where the durable history left off, so version numbers handed
// to clients before a restart stay meaningful after it. A version of 0 is
// treated as 1 (versions start at 1). A capacity ≤ 0 means
// DefaultRetainedVersions; capacity 1 retains only the head (every update
// immediately unpins all older versions).
func NewSnapshotRingAt(base *Snapshot, version uint64, capacity int) *SnapshotRing {
	if capacity <= 0 {
		capacity = DefaultRetainedVersions
	}
	if version == 0 {
		version = 1
	}
	r := &SnapshotRing{slots: make([]*Snapshot, capacity), metas: make([]*ApplyInfo, capacity), head: version, n: 1}
	r.slots[version%uint64(capacity)] = base
	return r
}

// Head returns the newest snapshot and its version.
func (r *SnapshotRing) Head() (*Snapshot, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.slots[r.head%uint64(len(r.slots))], r.head
}

// HeadVersion returns the newest version number.
func (r *SnapshotRing) HeadVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.head
}

// Oldest returns the oldest retained version number.
func (r *SnapshotRing) Oldest() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.head - uint64(r.n) + 1
}

// Retained returns the number of retained versions.
func (r *SnapshotRing) Retained() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// At resolves a pinned version. ok is false when the version has been
// evicted from the ring (too old) or has not been minted yet (ahead of
// the head); the two cases are distinguishable by comparing against Head.
func (r *SnapshotRing) At(version uint64) (*Snapshot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if version > r.head || version+uint64(r.n) <= r.head {
		return nil, false
	}
	return r.slots[version%uint64(len(r.slots))], true
}

// AdvanceApplied installs next as the new head and returns its version
// number, recording the ApplyInfo of the update batch that produced it
// (nil: none), retrievable with AppliedAt while the version stays in the
// ring. The oldest retained version is evicted once the ring is full.
// Advancing with the current head snapshot (a no-op update) still mints a
// fresh version number, keeping "one update = one version" bookkeeping
// simple for callers; a no-op batch's (empty) info is worth recording
// too: it keeps the metadata chain unbroken so warm starts can fold
// across the version.
func (r *SnapshotRing) AdvanceApplied(next *Snapshot, info *ApplyInfo) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.head++
	idx := r.head % uint64(len(r.slots))
	r.slots[idx] = next
	r.metas[idx] = info
	if r.n < len(r.slots) {
		r.n++
	}
	return r.head
}

// AppliedAt returns the ApplyInfo recorded for a version by
// AdvanceApplied. ok is false when the version has left the ring (or was
// never minted) or carries no metadata — the base version, or a version
// advanced without info; warm-start folds treat either as a break in the
// chain.
func (r *SnapshotRing) AppliedAt(version uint64) (*ApplyInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if version > r.head || version+uint64(r.n) <= r.head {
		return nil, false
	}
	info := r.metas[version%uint64(len(r.slots))]
	return info, info != nil
}
