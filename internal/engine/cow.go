package engine

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Copy-on-write database snapshots.
//
// Every semantics executor starts from a private working copy of the input
// database, and the exhaustive step search needs one per explored state.
// Deep cloning makes that O(database) per copy; since repairs are
// deletion-only deltas over a stable base (the observation behind
// disjunctive repair representations), a working copy can instead be a
// structural-sharing fork: each relation overlays a frozen immutable core
// with a per-fork deletion bitmap and a private appended tail, and warm
// hash indexes are shared read-only by every fork until a relation
// diverges. Freeze converts a database into such a core in place (so the
// original keeps working, as a pristine fork); Fork mints working copies
// in O(relations), with later per-fork cost proportional to the changes,
// not the database.
//
// Concurrency: a Snapshot is safe for concurrent Fork and concurrent reads
// through any number of forks. The only mutable shared state — lazily
// built frozen indexes and the frozen content-intern map — is published
// via atomic pointers to immutable maps, with builders serialized on a
// mutex, so readers never lock and never observe a partially built
// structure. Each forked Database itself is single-goroutine, like any
// Database.

// frozenRel is the immutable core shared by all forks of one relation:
// the live tuples at freeze time, their ID->position map, and lazily
// built shared read structures — positional hash indexes, the columnar
// image of the tuples (see columnar.go), and the content intern map.
type frozenRel struct {
	name       string
	arity      int
	positional bool

	order []*Tuple          // live tuples at freeze time, insertion order
	byID  map[TupleID]int32 // TID -> position in order

	// indexes, cols, and keys hold immutable snapshots behind atomic
	// pointers: readers load without locking; builders serialize on mu and
	// publish a fresh value. Buckets reachable from here are never mutated.
	mu      sync.Mutex
	indexes atomic.Pointer[map[int]map[Value]*frozenBucket]
	cols    atomic.Pointer[frozenCols]
	keys    atomic.Pointer[map[string]TupleID]
}

// frozenBucket is one frozen hash-index bucket: the matching tuples in
// Seq-ascending order (Lookup's result order) with the parallel positions
// in the core. Resolving a candidate costs one slice load, no ID-map
// lookup, and the deletion bitmap filters by position. Buckets are
// immutable once published, so pristine forks can hand out tuples as a
// shared zero-copy Lookup result.
type frozenBucket struct {
	poss   []int32  // positions in the core, parallel to tuples
	tuples []*Tuple // Seq-ascending
}

// index returns the frozen hash index on col, building and publishing it
// on first use. The build happens at most once per (snapshot, column)
// across all forks — this is what lets concurrent requests on private
// forks probe one warm index instead of one rebuilt per fork.
func (fz *frozenRel) index(col int) map[Value]*frozenBucket {
	if m := fz.indexes.Load(); m != nil {
		if idx, ok := (*m)[col]; ok {
			return idx
		}
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	return fz.buildIndexLocked(col)
}

// buildIndexLocked builds and publishes the positional index on col; the
// caller must hold fz.mu. Returns the existing index if already built.
func (fz *frozenRel) buildIndexLocked(col int) map[Value]*frozenBucket {
	old := fz.indexes.Load()
	if old != nil {
		if idx, ok := (*old)[col]; ok {
			return idx
		}
	}
	idx := make(map[Value]*frozenBucket)
	sortNeeded := false
	for pos, t := range fz.order {
		v := t.Vals[col].mapKey()
		b := idx[v]
		if b == nil {
			b = &frozenBucket{}
			idx[v] = b
		}
		if n := len(b.tuples); n > 0 && b.tuples[n-1].Seq > t.Seq {
			sortNeeded = true
		}
		b.poss = append(b.poss, int32(pos))
		b.tuples = append(b.tuples, t)
	}
	if sortNeeded {
		// Frozen cores almost always hold tuples in Seq order (compaction
		// and flattening preserve insertion order); when one doesn't, sort
		// tuples and positions in tandem so every bucket is Seq-ascending.
		for _, b := range idx {
			if sort.SliceIsSorted(b.tuples, func(i, j int) bool { return b.tuples[i].Seq < b.tuples[j].Seq }) {
				continue
			}
			perm := make([]int, len(b.tuples))
			for i := range perm {
				perm[i] = i
			}
			sort.Slice(perm, func(i, j int) bool { return b.tuples[perm[i]].Seq < b.tuples[perm[j]].Seq })
			tuples := make([]*Tuple, len(b.tuples))
			poss := make([]int32, len(b.poss))
			for i, p := range perm {
				tuples[i], poss[i] = b.tuples[p], b.poss[p]
			}
			b.tuples, b.poss = tuples, poss
		}
	}
	next := make(map[int]map[Value]*frozenBucket, 4)
	if old != nil {
		for c, m := range *old {
			next[c] = m
		}
	}
	next[col] = idx
	fz.indexes.Store(&next)
	return idx
}

// columnar returns the core's columnar image, building and publishing it
// on first use (at most once per snapshot across all forks), or nil when
// columnar read paths are disabled or the core is empty.
func (fz *frozenRel) columnar() *frozenCols {
	if !columnarOn.Load() || len(fz.order) == 0 {
		return nil
	}
	if fc := fz.cols.Load(); fc != nil {
		return fc
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if fc := fz.cols.Load(); fc != nil {
		return fc
	}
	fc := buildFrozenCols(fz.order, fz.arity)
	fz.cols.Store(fc)
	return fc
}

// indexedColumns returns the frozen columns with built indexes.
func (fz *frozenRel) indexedColumns() []int {
	m := fz.indexes.Load()
	if m == nil {
		return nil
	}
	out := make([]int, 0, len(*m))
	for col := range *m {
		out = append(out, col)
	}
	return out
}

// keyMap returns the frozen content-intern map, building and publishing it
// on first use (at most once per snapshot across all forks).
func (fz *frozenRel) keyMap() map[string]TupleID {
	if m := fz.keys.Load(); m != nil {
		return *m
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if m := fz.keys.Load(); m != nil {
		return *m
	}
	keys := make(map[string]TupleID, len(fz.order))
	for _, t := range fz.order {
		keys[t.Key()] = t.TID
	}
	fz.keys.Store(&keys)
	return keys
}

// fork mints a pristine overlay relation over the frozen core: O(1).
func (fz *frozenRel) fork() *Relation {
	return &Relation{
		Name:       fz.name,
		Arity:      fz.arity,
		positional: fz.positional,
		frozen:     fz,
		byID:       make(map[TupleID]int32),
	}
}

// freeze returns an immutable core holding the relation's current live
// contents and converts the relation in place into a pristine overlay of
// that core. A relation that is already a pristine overlay shares its
// existing core (no copying); a diverged overlay flattens first. The
// relation's storage — order slice, ID map, intern map — is donated to
// the core, so freezing an undiverged relation is O(tuples per warm
// column) to rebuild positional indexes, plus any pending compaction.
// Columns that were warm before the freeze stay warm after it.
func (r *Relation) freeze() *frozenRel {
	if r.frozen != nil && r.fdead == 0 && len(r.order) == 0 {
		return r.frozen
	}
	warm := r.IndexedColumns()
	if r.frozen != nil {
		// Flatten without rebuilding the flat tail indexes: the core builds
		// its own positional indexes below, so a local rebuild here would be
		// immediately thrown away.
		r.flatten(nil)
	}
	if r.dead > 0 {
		r.compact()
	}
	fz := &frozenRel{
		name:       r.Name,
		arity:      r.Arity,
		positional: r.positional,
		order:      r.order,
		byID:       r.byID,
	}
	if r.byKey != nil {
		keys := r.byKey
		fz.keys.Store(&keys)
	}
	if len(warm) > 0 {
		fz.mu.Lock()
		for _, col := range warm {
			fz.buildIndexLocked(col)
		}
		fz.mu.Unlock()
	}
	r.frozen, r.fdel, r.fdead = fz, nil, 0
	r.byID = make(map[TupleID]int32)
	r.order, r.live, r.dead = nil, nil, 0
	r.byKey = nil
	r.indexes = nil
	return fz
}

// Snapshot is an immutable frozen database state: the shared base every
// fork overlays. The recommended serving pattern is Prepare once, Freeze
// once, Fork per request — each request then pays O(relations) to fork
// plus O(its own changes) to repair, never O(database).
type Snapshot struct {
	schema *Schema
	base   map[string]*frozenRel
	delta  map[string]*frozenRel
	nextID map[string]int
	seq    int

	// forks counts the working copies minted from this snapshot, updated
	// atomically because Fork is safe to call concurrently. Serving layers
	// use it for per-session accounting (forks served == requests that
	// shared this frozen base).
	forks atomic.Int64
}

// Forks returns the number of working copies minted from this snapshot so
// far. Safe to call concurrently with Fork.
func (s *Snapshot) Forks() int64 { return s.forks.Load() }

// Freeze converts the database into a copy-on-write snapshot handle. The
// database keeps working — it becomes a pristine fork of the snapshot, so
// reads see identical contents and later mutations land in its private
// overlay. Freezing an unmodified fork returns the cached snapshot without
// copying anything, so repeated Freeze/Fork chains (each executor forks
// its input) cost O(relations), and freezing after mutations flattens and
// refreezes only the relations that actually diverged.
//
// Freeze serializes internally, but mutating the database concurrently
// with Freeze (or with anything else) is not supported — same contract as
// every other Database method.
func (db *Database) Freeze() *Snapshot {
	db.freezeMu.Lock()
	defer db.freezeMu.Unlock()
	if db.snap != nil && db.pristineSince(db.snap) {
		return db.snap
	}
	snap := &Snapshot{
		schema: db.Schema,
		base:   make(map[string]*frozenRel, len(db.base)),
		delta:  make(map[string]*frozenRel, len(db.delta)),
		nextID: make(map[string]int, len(db.nextID)),
		seq:    db.seq,
	}
	for name, r := range db.base {
		snap.base[name] = r.freeze()
	}
	for name, d := range db.delta {
		snap.delta[name] = d.freeze()
	}
	for name, n := range db.nextID {
		snap.nextID[name] = n
	}
	db.snap = snap
	return snap
}

// pristineSince reports whether the database is still exactly the state
// captured by s: every relation is an untouched overlay of s's cores and
// no tuple has been minted since (seq unchanged). Checked under freezeMu.
func (db *Database) pristineSince(s *Snapshot) bool {
	if db.seq != s.seq {
		return false
	}
	for name, r := range db.base {
		if r.frozen != s.base[name] || r.fdead != 0 || len(r.order) != 0 {
			return false
		}
	}
	for name, d := range db.delta {
		if d.frozen != s.delta[name] || d.fdead != 0 || len(d.order) != 0 {
			return false
		}
	}
	return true
}

// Fork mints a working database over the frozen snapshot in O(relations):
// no tuples, maps, or indexes are copied. The fork is observationally
// identical to a deep clone of the frozen database — same contents, same
// iteration order, same lookup results — but its cost scales with the
// changes made to it, not with the database. Forks are independent:
// mutations to one are invisible to the snapshot, the original database,
// and every other fork. Safe to call concurrently.
func (s *Snapshot) Fork() *Database {
	s.forks.Add(1)
	db := &Database{
		Schema: s.schema,
		base:   make(map[string]*Relation, len(s.base)),
		delta:  make(map[string]*Relation, len(s.delta)),
		nextID: make(map[string]int, len(s.nextID)),
		seq:    s.seq,
		snap:   s,
	}
	for name, fz := range s.base {
		db.base[name] = fz.fork()
	}
	for name, fz := range s.delta {
		db.delta[name] = fz.fork()
	}
	for name, n := range s.nextID {
		db.nextID[name] = n
	}
	return db
}

// Schema returns the snapshot's schema.
func (s *Snapshot) Schema() *Schema { return s.schema }

// TotalTuples returns the number of live base tuples frozen in the
// snapshot.
func (s *Snapshot) TotalTuples() int {
	n := 0
	for _, fz := range s.base {
		n += len(fz.order)
	}
	return n
}

// Fork is shorthand for Freeze().Fork(): a copy-on-write working copy of
// the database. The first call freezes the current state (converting the
// database into a pristine fork of it); subsequent calls on an unmodified
// database reuse the cached snapshot, so a run of executor calls over one
// base shares a single frozen core and its warm indexes.
func (db *Database) Fork() *Database { return db.Freeze().Fork() }
