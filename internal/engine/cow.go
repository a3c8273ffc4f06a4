package engine

import (
	"math"
	"slices"
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
// not the database. Freezing a fork that has diverged seals only what it
// changed: a core is a short list of immutable segments plus tombstones,
// and the next version shares every segment it did not rewrite.
//
// Concurrency: a Snapshot is safe for concurrent Fork and concurrent reads
// through any number of forks. The only mutable shared state — a segment's
// lazily built indexes and content-intern map — is published via atomic
// pointers to immutable values, with builders serialized on the segment's
// mutex, so readers never lock and never observe a partially built
// structure. Each forked Database itself is single-goroutine, like any
// Database.

// Compaction tiers. A core holds at most maxSegments sealed segments, in
// the order they were sealed — by role: base, middle, recent. Sealing a
// fork's rows rewrites recent together with them (a seal never adds a
// fourth segment), recent spills into middle once it holds more than
// recentCap rows, and everything folds into a new base once the rows
// outside the base plus the tombstones exceed 1/foldFraction of it (and
// recentRows: a relation too small for that fraction to mean anything is
// not rewritten over a handful of rows).
//
// What an update costs, for a relation whose base holds n rows and a batch
// changing b of them: the median seal copies at most recentCap(n) =
// max(32, √(n/8)) rows (32 up to 8 K rows, 112 at 100 K, 354 at 1 M), and
// none when the batches delete what recent batches inserted. While the
// relation keeps growing or loses old rows, a changed row is copied about
// recentCap/2b times by seals, (n/8)/(2·recentCap) times by spills and 8
// times by folds — amortised O(√n), not O(1): a constant needs a level
// per power of the fan-out, and every probe pays a map lookup per level.
//
// Why these values: BenchmarkSnapshotApply's grow legs (three inserts per
// batch, three deletes of old base rows every fourth, 20 000 chained
// Applies; mean µs / p50 µs / p99 µs / rows sealed per row changed,
// medians of three alternating runs):
//
//	                      from 10 K rows           from 100 K rows
//	base + recent only    777 / 572 / 3 470 / 411  2 990 / 2 500 / 12 560 / 1 532
//	recent ≤ 32           118 /  23 / 1 640 /  49    331 /    27 /  5 405 /   151
//	recent ≤ recentCap     90 /  30 / 1 180 /  34    168 /    51 /  3 360 /    61
//
// With two segments every seal rewrites up to an eighth of the relation,
// so there are three. A fixed cap has the lowest median but rewrites middle
// every 32 rows however large it has grown; the cap is instead the square
// root of middle's own capacity, where rewriting recent at every seal and
// middle at every spill cost the same. foldFraction trades the O(n) fold's
// frequency (once per n/8 changed rows: the latency tail, never the
// median) against how many tombstoned positions and second-segment rows a
// scan wades through (at most an eighth). They are constants because no
// workload we serve needs another value; there is deliberately no way to
// set them.
const (
	maxSegments  = 3
	recentRows   = 32
	foldFraction = 8
)

// recentCap is the number of rows the recent segment of a relation with
// the given base size may hold before it spills into middle.
func recentCap(base int) int {
	return max(recentRows, int(math.Sqrt(float64(base/foldFraction))))
}

// Segment is an immutable run of tuples sealed by one freeze, shared by
// pointer between every core — every version — that contains it, so its
// pointer is its identity: a checkpoint writes each segment once (see
// checkpoint.go). It keeps its rows as tuples; columns exist only in its
// on-disk frame. The read structures built lazily over it (positional hash
// indexes, the content intern map) hang off the segment, not the core, so
// they are built once per segment however many versions and forks read it.
type Segment struct {
	arity int
	order []*Tuple          // sealed tuples, insertion order
	byID  map[TupleID]int32 // TID -> position in order

	// indexes and keys hold immutable snapshots behind atomic pointers:
	// readers load without locking; builders serialize on mu and publish a
	// fresh value. Buckets reachable from here are never mutated.
	mu      sync.Mutex
	indexes atomic.Pointer[map[int]map[Value]*frozenBucket]
	keys    atomic.Pointer[map[string]TupleID]
}

// frozenBucket is one sealed hash-index bucket: the matching tuples in
// Seq-ascending order (Lookup's result order) with the parallel positions
// in the segment. Resolving a candidate costs one slice load, no ID-map
// lookup, and the deletion bitmap filters by position. Buckets are
// immutable once published, so pristine forks can hand out tuples as a
// shared zero-copy Lookup result.
type frozenBucket struct {
	poss   []int32  // positions in the segment, parallel to tuples
	tuples []*Tuple // Seq-ascending
}

// newSegment seals rows into a segment with the hash indexes on the warm
// columns built. byID and keys, when the caller already has them for
// exactly these rows, are donated instead of rebuilt (either may be nil:
// byID is then built here, the intern map lazily).
func newSegment(arity int, order []*Tuple, byID map[TupleID]int32, keys map[string]TupleID, warm []int) *Segment {
	if byID == nil {
		byID = make(map[TupleID]int32, len(order))
		for pos, t := range order {
			byID[t.TID] = int32(pos)
		}
	}
	s := &Segment{arity: arity, order: order, byID: byID}
	if keys != nil {
		s.keys.Store(&keys)
	}
	if len(warm) > 0 {
		s.mu.Lock()
		for _, col := range warm {
			s.buildIndexLocked(col)
		}
		s.mu.Unlock()
	}
	return s
}

// index returns the segment's hash index on col, building and publishing
// it on first use. The build happens at most once per (segment, column)
// across all versions and forks — this is what lets concurrent requests on
// private forks probe one warm index instead of one rebuilt per fork.
func (s *Segment) index(col int) map[Value]*frozenBucket {
	if m := s.indexes.Load(); m != nil {
		if idx, ok := (*m)[col]; ok {
			return idx
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buildIndexLocked(col)
}

// buildIndexLocked builds and publishes the positional index on col; the
// caller must hold s.mu. Returns the existing index if already built.
func (s *Segment) buildIndexLocked(col int) map[Value]*frozenBucket {
	old := s.indexes.Load()
	if old != nil {
		if idx, ok := (*old)[col]; ok {
			return idx
		}
	}
	// A counting sort: number each value's bucket and count its rows, then
	// place the rows in one slab of positions and one of tuples, so a build
	// allocates per index, not per value.
	bucketOf := make(map[Value]int32)
	of := make([]int32, len(s.order))
	var at []int32 // per bucket: its row count, then where its next row goes
	sortNeeded := false
	for pos, t := range s.order {
		v := t.Vals[col].mapKey()
		b, ok := bucketOf[v]
		if !ok {
			b = int32(len(at))
			bucketOf[v] = b
			at = append(at, 0)
		}
		at[b]++
		of[pos] = b
		sortNeeded = sortNeeded || pos > 0 && s.order[pos-1].Seq > t.Seq
	}
	buckets := make([]frozenBucket, len(at))
	poss := make([]int32, len(s.order))
	tuples := make([]*Tuple, len(s.order))
	start := int32(0)
	for b, n := range at {
		end := start + n
		buckets[b] = frozenBucket{poss: poss[start:end:end], tuples: tuples[start:end:end]}
		at[b], start = start, end
	}
	for pos, t := range s.order {
		b := of[pos]
		poss[at[b]], tuples[at[b]] = int32(pos), t
		at[b]++
	}
	idx := make(map[Value]*frozenBucket, len(bucketOf))
	for v, b := range bucketOf {
		idx[v] = &buckets[b]
	}
	if sortNeeded {
		// Segments almost always hold tuples in Seq order (sealing and
		// compaction preserve insertion order); when one doesn't, sort
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
	s.indexes.Store(&next)
	return idx
}

// keyMap returns the segment's content-intern map, building and publishing
// it on first use (at most once per segment across all versions and forks).
func (s *Segment) keyMap() map[string]TupleID {
	if m := s.keys.Load(); m != nil {
		return *m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.keys.Load(); m != nil {
		return *m
	}
	keys := make(map[string]TupleID, len(s.order))
	for _, t := range s.order {
		keys[t.Key()] = t.TID
	}
	s.keys.Store(&keys)
	return keys
}

// tombstones marks deleted positions over a core's sealed segments:
// bits[i] has one bit per position of segment i (nil when the segment has
// none deleted) and n[i] counts the set ones, so a read takes the
// tombstone-free path on every segment that has none; dead is their sum.
type tombstones struct {
	bits [maxSegments][]uint64
	n    [maxSegments]int32
	dead int
}

// frozenRel is the immutable core shared by all forks of one relation at
// one version: the sealed segments, oldest first, and the tombstones over
// them. No segment is empty.
type frozenRel struct {
	name       string
	arity      int
	positional bool

	segs []*Segment
	n    int // total positions: the segments' lengths summed
	tomb tombstones
}

// indexedColumns returns the columns with a built index on any segment.
// Every probe warms all segments together, so in practice the segments
// agree; the union keeps a column warm across a seal that races one.
func (fz *frozenRel) indexedColumns() []int {
	var out []int
	for _, s := range fz.segs {
		m := s.indexes.Load()
		if m == nil {
			continue
		}
		for col := range *m {
			if !slices.Contains(out, col) {
				out = append(out, col)
			}
		}
	}
	return out
}

// fork mints a pristine overlay relation over the frozen core: O(1).
func (fz *frozenRel) fork() *Relation {
	r := &Relation{
		Name:       fz.name,
		Arity:      fz.arity,
		positional: fz.positional,
		byID:       make(map[TupleID]int32),
	}
	r.adopt(fz)
	return r
}

// adopt makes the relation's sealed side the given core with no deletions
// of its own: it reads the core's tombstones in place until its first
// delete. The tail is left as it is.
func (r *Relation) adopt(fz *frozenRel) {
	r.frozen, r.fdel, r.fdelOwned = fz, &fz.tomb, [maxSegments]bool{}
}

// pristine reports whether the relation is an overlay that reads exactly
// its core: no deletion of its own and no live tail row.
func (r *Relation) pristine() bool {
	return r.frozen != nil && r.fdel == &r.frozen.tomb && len(r.byID) == 0
}

// sealStats counts what a freeze wrote: sealed is every row placed in a
// newly built segment, compacted the part of those copied out of older
// segments, compactions the spills and folds among the rewrites.
type sealStats struct {
	sealed, compacted, compactions int
}

// freeze returns an immutable core holding the relation's current live
// contents and converts the relation in place into a pristine overlay of
// that core. A pristine overlay shares its existing core (no copying). A
// diverged one seals its own rows: the live tail becomes a new segment —
// its storage (order slice, ID map, intern map) donated — or, where the
// tier policy says so, is written out together with the newest older
// segments; every segment before those is shared by pointer with the
// previous core, indexes and all, and this fork's deletion bitmaps over
// them become the new core's tombstones. Columns that were warm before
// the freeze are indexed on every segment it builds.
func (r *Relation) freeze(st *sealStats) *frozenRel {
	if r.pristine() {
		return r.frozen
	}
	warm := r.IndexedColumns()
	if r.dead > 0 {
		r.compact()
	}
	core := r.reseal(r.mergeFrom(), true, warm, st)
	r.byID = make(map[TupleID]int32)
	r.order, r.live, r.dead = nil, nil, 0
	r.byKey = nil
	r.indexes = nil
	r.adopt(core)
	return core
}

// mergeFrom applies the tier policy (see maxSegments) to a freeze of this
// relation: it returns the index of the first sealed segment whose live
// rows are rewritten together with the tail, len(segs) when none is.
func (r *Relation) mergeFrom() int {
	fz := r.frozen
	if fz == nil || len(fz.segs) == 0 {
		return 0
	}
	tail := len(r.byID)
	from := len(fz.segs)
	if tail > 0 && from == maxSegments {
		from = maxSegments - 1 // recent takes the tail in
	}
	// outside[i]: live rows outside segments 0..i-1, tail included.
	outside := [maxSegments + 1]int{maxSegments: tail}
	for i := maxSegments - 1; i >= 0; i-- {
		outside[i] = outside[i+1]
		if i < len(fz.segs) {
			outside[i] += len(fz.segs[i].order) - int(r.fdel.n[i])
		}
	}
	if len(fz.segs) >= 2 && outside[2] > recentCap(len(fz.segs[0].order)) {
		from = 1 // recent spills into middle
	}
	if x := outside[1] + r.fdel.dead; x > recentRows && x*foldFraction > len(fz.segs[0].order) {
		from = 0 // fold into a new base
	}
	return from
}

// reseal builds the core that keeps sealed segments [0, from) as they are
// and writes the live rows of the later ones — followed, if withTail, by
// the tail, which must be compacted — as one new segment. The tail's
// storage (order slice, ID map, intern map) is donated to it when no older
// segment is rewritten. The relation itself is not changed.
func (r *Relation) reseal(from int, withTail bool, warm []int, st *sealStats) *frozenRel {
	core := &frozenRel{name: r.Name, arity: r.Arity, positional: r.positional}
	var tail []*Tuple
	var tailByID map[TupleID]int32
	var tailKeys map[string]TupleID
	if withTail {
		tail, tailByID, tailKeys = r.order, r.byID, r.byKey
	}
	var oldSegs []*Segment
	if r.frozen != nil {
		oldSegs = r.frozen.segs
	}
	core.segs = append(make([]*Segment, 0, from+1), oldSegs[:from]...)
	for i, s := range core.segs {
		core.n += len(s.order)
		if n := r.fdel.n[i]; n > 0 {
			core.tomb.bits[i], core.tomb.n[i] = r.fdel.bits[i], n
			core.tomb.dead += int(n)
		}
	}

	rows := tail
	if from < len(oldSegs) {
		n := len(tail)
		for i := from; i < len(oldSegs); i++ {
			n += len(oldSegs[i].order) - int(r.fdel.n[i])
		}
		rows = make([]*Tuple, 0, n)
		for i := from; i < len(oldSegs); i++ {
			for p, t := range oldSegs[i].order {
				if !r.fdelGet(i, int32(p)) {
					rows = append(rows, t)
				}
			}
		}
		st.compacted += len(rows)
		if from < maxSegments-1 {
			st.compactions++
		}
		rows = append(rows, tail...)
		tailByID, tailKeys = nil, nil
	}
	if len(rows) > 0 {
		core.n += len(rows)
		core.segs = append(core.segs, newSegment(r.Arity, rows, tailByID, tailKeys, warm))
		st.sealed += len(rows)
	}
	return core
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
// its input) cost O(relations), and freezing after mutations seals only
// the rows that changed in the relations that actually diverged (see
// Relation.freeze).
//
// Freeze serializes internally, but mutating the database concurrently
// with Freeze (or with anything else) is not supported — same contract as
// every other Database method.
func (db *Database) Freeze() *Snapshot {
	snap, _ := db.freeze()
	return snap
}

// freeze is Freeze that also reports what the seal wrote.
func (db *Database) freeze() (*Snapshot, sealStats) {
	db.freezeMu.Lock()
	defer db.freezeMu.Unlock()
	var st sealStats
	if db.snap != nil && db.pristineSince(db.snap) {
		return db.snap, st
	}
	snap := &Snapshot{
		schema: db.Schema,
		base:   make(map[string]*frozenRel, len(db.base)),
		delta:  make(map[string]*frozenRel, len(db.delta)),
		nextID: make(map[string]int, len(db.nextID)),
		seq:    db.seq,
	}
	for name, r := range db.base {
		snap.base[name] = r.freeze(&st)
	}
	for name, d := range db.delta {
		snap.delta[name] = d.freeze(&st)
	}
	for name, n := range db.nextID {
		snap.nextID[name] = n
	}
	db.snap = snap
	return snap, st
}

// pristineSince reports whether the database is still exactly the state
// captured by s: every relation is an untouched overlay of s's cores and
// no tuple has been minted since (seq unchanged). Checked under freezeMu.
func (db *Database) pristineSince(s *Snapshot) bool {
	if db.seq != s.seq {
		return false
	}
	for name, r := range db.base {
		if r.frozen != s.base[name] || !r.pristine() {
			return false
		}
	}
	for name, d := range db.delta {
		if d.frozen != s.delta[name] || !d.pristine() {
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
	return s.mint()
}

// mint builds a pristine database over the snapshot: Fork without the
// count, for the database a loader seals the snapshot from — its origin,
// not a working copy served from it.
func (s *Snapshot) mint() *Database {
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
		n += fz.n - fz.tomb.dead
	}
	return n
}

// Segments returns the largest number of sealed segments any base relation
// of the snapshot carries (at most 3; 1 for a freshly loaded database) —
// the read fan-out a probe of the most-updated relation pays.
func (s *Snapshot) Segments() int {
	n := 0
	for _, fz := range s.base {
		n = max(n, len(fz.segs))
	}
	return n
}

// Fork is shorthand for Freeze().Fork(): a copy-on-write working copy of
// the database. The first call freezes the current state (converting the
// database into a pristine fork of it); subsequent calls on an unmodified
// database reuse the cached snapshot, so a run of executor calls over one
// base shares a single frozen core and its warm indexes.
func (db *Database) Fork() *Database { return db.Freeze().Fork() }
