package engine

import (
	"fmt"
	"sort"
)

// Relation is a set of tuples with deterministic iteration order and lazily
// built hash indexes on single columns. Identity is the interned TupleID:
// membership, deletion, and index buckets are all integer-keyed, and
// iteration walks a compacted slice with a liveness bitmap — no content key
// is hashed or built on the scan/lookup path. A content-key intern map
// exists only for the key-based API (Contains/Get/Delete by string) and is
// built lazily the first time it is needed.
//
// Deletions are O(1) per index (buckets tombstone lazily); iteration skips
// dead slots and the backing slice is compacted when more than half of it
// is dead.
//
// A Relation is either flat (it owns all of its storage) or a
// copy-on-write overlay over a shared immutable frozenRel (see cow.go): a
// short list of sealed segments plus tombstones. An overlay records
// divergence from the core as per-fork deletion bitmaps (fdel) plus
// a private appended tail, for which the flat machinery below
// (byID/order/live/indexes/byKey) is reused unchanged. Every read is one
// loop — the sealed segments in order, minus deleted positions, then the
// open tail — which is insertion order, so an overlay is observationally
// identical to the deep clone it replaces while forking in O(1) and
// mutating in O(changes).
//
// A Relation is used both for base relations R_i and delta relations ∆_i
// (which share the base relation's schema per §3.1 of the paper).
type Relation struct {
	Name  string
	Arity int

	// frozen, when non-nil, is the shared immutable core this relation
	// overlays, and fdel the deleted positions over its segments: the
	// core's own tombstones, read in place, until this fork's first delete
	// takes a private copy of the counts — and of the bitmap of each
	// segment it then deletes from (fdelOwned). All remaining fields
	// describe only the private tail.
	frozen    *frozenRel
	fdel      *tombstones
	fdelOwned [maxSegments]bool

	byID  map[TupleID]int32 // live tuples: TID -> position in order
	order []*Tuple          // insertion order; dead slots remain until compact
	live  []bool            // liveness bitmap parallel to order
	dead  int               // number of dead slots in order

	// byKey is the content intern map (content key -> TID). It is built
	// lazily on the first insert or key-based operation and maintained
	// afterwards; relations that are only scanned, probed, and deleted
	// from (forked bases inside executors) never pay for it. For an
	// overlay it covers only the tail: sealed content resolves through
	// each segment's shared intern map, built once per segment.
	byKey map[string]TupleID

	// indexes[col][value] -> bucket of TIDs having that value at col.
	// Values are normalized with Value.mapKey, so probing hashes the Value
	// directly — no string building. For an overlay these buckets cover
	// only the tail; the sealed side of a lookup reads each segment's
	// shared warm index, built at most once per segment across all
	// versions and forks.
	indexes map[int]map[Value]*idxBucket

	// positional marks a scratch relation (NewScratchRelation): inserts of
	// interned tuples dedup by ID alone and skip intern-map maintenance.
	positional bool
}

// idxBucket is one hash-index bucket: tuple IDs in insertion order, of
// which n are still live (dead IDs are filtered out lazily on lookup).
type idxBucket struct {
	ids []TupleID
	n   int32 // live count

	// maxSeq and unsorted track whether ids is provably Seq-ascending, so
	// LookupEach can stream the bucket without materializing and sorting a
	// result slice. Appends below the running max mark the bucket unsorted;
	// compaction preserves relative order, so the flag only ever needs to
	// be set on insert (it stays conservatively set even if deletions
	// restore sortedness).
	maxSeq   int
	unsorted bool
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{
		Name:  name,
		Arity: arity,
		byID:  make(map[TupleID]int32),
	}
}

// NewScratchRelation creates a positional scratch relation for evaluation
// internals (seminaive frontiers, single-row event sources): inserting an
// already-interned tuple dedups by TupleID alone, with no content-key work
// at all. The caller must only insert tuples drawn from one database
// lineage (where equal content implies the same tuple object) — exactly
// the invariant evaluation scratch space satisfies. Key-based lookups
// still work (the intern map builds lazily) but are not expected here.
func NewScratchRelation(name string, arity int) *Relation {
	r := NewRelation(name, arity)
	r.positional = true
	return r
}

// fdelGet reports whether the tuple at the given position of the given
// sealed segment has been deleted — by this overlay or, already, in its
// core.
func (r *Relation) fdelGet(seg int, pos int32) bool {
	d := r.fdel.bits[seg]
	return d != nil && d[uint32(pos)>>6]&(1<<(uint32(pos)&63)) != 0
}

// fdelSet marks the live tuple at the given position of the given sealed
// segment deleted. A fork's first delete in a segment takes a private copy
// of the core's bitmap for it (one word per 64 tuples of the segment).
func (r *Relation) fdelSet(seg int, pos int32) {
	if r.fdel == &r.frozen.tomb {
		own := *r.fdel
		r.fdel = &own
	}
	if !r.fdelOwned[seg] {
		own := make([]uint64, (len(r.frozen.segs[seg].order)+63)/64)
		copy(own, r.fdel.bits[seg])
		r.fdel.bits[seg], r.fdelOwned[seg] = own, true
	}
	r.fdel.bits[seg][uint32(pos)>>6] |= 1 << (uint32(pos) & 63)
	r.fdel.n[seg]++
	r.fdel.dead++
}

// sealedPos locates the live sealed tuple with the given ID: the index of
// its segment and its position inside it. A tuple deleted and re-inserted
// in an earlier fork sits tombstoned in one segment and live in a later
// one, so a dead hit keeps looking.
func (r *Relation) sealedPos(id TupleID) (seg int, pos int32, ok bool) {
	if fz := r.frozen; fz != nil {
		for i, s := range fz.segs {
			if p, hit := s.byID[id]; hit && !r.fdelGet(i, p) {
				return i, p, true
			}
		}
	}
	return 0, 0, false
}

// Len returns the number of live tuples.
func (r *Relation) Len() int {
	n := len(r.byID)
	if r.frozen != nil {
		n += r.frozen.n - r.fdel.dead
	}
	return n
}

// ContainsID reports whether the tuple with the given interned ID is live.
func (r *Relation) ContainsID(id TupleID) bool {
	if _, ok := r.byID[id]; ok {
		return true
	}
	_, _, ok := r.sealedPos(id)
	return ok
}

// ContainsTuple reports whether the given tuple is live in the relation.
func (r *Relation) ContainsTuple(t *Tuple) bool { return r.ContainsID(t.TID) }

// GetID returns the live tuple with the given interned ID, or nil.
func (r *Relation) GetID(id TupleID) *Tuple {
	if pos, ok := r.byID[id]; ok {
		return r.order[pos]
	}
	if seg, pos, ok := r.sealedPos(id); ok {
		return r.frozen.segs[seg].order[pos]
	}
	return nil
}

// Contains reports whether a tuple with the given content key is live.
func (r *Relation) Contains(key string) bool {
	_, ok := r.lookupKey(key)
	return ok
}

// Get returns the live tuple with the given content key, or nil.
func (r *Relation) Get(key string) *Tuple {
	if id, ok := r.lookupKey(key); ok {
		return r.GetID(id)
	}
	return nil
}

// lookupKey resolves a content key to a live tuple's ID, consulting the
// tail intern map and, for overlays, each segment's shared intern map
// filtered through the deletion bitmap.
func (r *Relation) lookupKey(key string) (TupleID, bool) {
	if id, ok := r.internKeys()[key]; ok {
		return id, true
	}
	if fz := r.frozen; fz != nil {
		for i, s := range fz.segs {
			if id, ok := s.keyMap()[key]; ok && !r.fdelGet(i, s.byID[id]) {
				return id, true
			}
		}
	}
	return 0, false
}

// internKeys returns the tail content intern map, building it on first use.
// For a flat relation the tail is the whole relation.
func (r *Relation) internKeys() map[string]TupleID {
	if r.byKey == nil {
		r.byKey = make(map[string]TupleID, len(r.byID))
		for i, t := range r.order {
			if r.live[i] {
				r.byKey[t.Key()] = t.TID
			}
		}
	}
	return r.byKey
}

// Insert adds a tuple; it reports whether the tuple was new (set
// semantics: content that is already present, under any tuple object, is
// not inserted again). The tuple's arity must match the relation's. A tuple
// inserted for the first time anywhere is interned (assigned its TupleID).
//
// This is the insert/dedup boundary — the one place outside reporting where
// the content intern map is consulted. The common case (an interned tuple
// already present by ID) short-circuits before any content-key work. On an
// overlay, inserts always land in the private tail; the sealed segments
// are never modified.
func (r *Relation) Insert(t *Tuple) bool {
	if len(t.Vals) != r.Arity {
		panic(fmt.Sprintf("engine: arity mismatch inserting %s into %s/%d", t, r.Name, r.Arity))
	}
	if t.TID != 0 {
		if _, dup := r.byID[t.TID]; dup {
			return false
		}
		if _, _, dup := r.sealedPos(t.TID); dup {
			return false
		}
	}
	if !r.positional || t.TID == 0 {
		if _, dup := r.lookupKey(t.Key()); dup {
			return false
		}
	}
	assignTupleID(t)
	// Index maintenance runs before t joins byID: compacting a bucket with
	// stale entries here drops any tombstoned id t left behind from an
	// earlier delete, so re-insertion cannot duplicate it.
	for col, idx := range r.indexes {
		v := t.Vals[col].mapKey()
		b := idx[v]
		if b == nil {
			b = &idxBucket{}
			idx[v] = b
		}
		if int(b.n) != len(b.ids) {
			b.compact(r)
		}
		b.ids = append(b.ids, t.TID)
		b.n++
		if t.Seq < b.maxSeq {
			b.unsorted = true
		} else {
			b.maxSeq = t.Seq
		}
	}
	pos := int32(len(r.order))
	r.byID[t.TID] = pos
	r.order = append(r.order, t)
	r.live = append(r.live, true)
	if r.byKey != nil {
		r.byKey[t.Key()] = t.TID
	}
	return true
}

// DeleteID removes the tuple with the given interned ID; it reports whether
// the tuple was live. Deleting a sealed tuple from an overlay sets one bit
// in the fork's deletion bitmap — the shared segments and their warm
// indexes are untouched (lookups filter through the bitmap lazily).
func (r *Relation) DeleteID(id TupleID) bool {
	pos, ok := r.byID[id]
	if !ok {
		seg, spos, ok := r.sealedPos(id)
		if !ok {
			return false
		}
		fz := r.frozen
		r.fdelSet(seg, spos)
		// The tail intern map never holds sealed keys, and sealed index
		// buckets are filtered through the bitmap at lookup, so no map or
		// bucket maintenance is needed here. Mirror the flat-relation
		// compaction policy: once most sealed positions are dead the
		// overlay stops paying the bitmap filter on every scan and folds
		// the survivors into a private one-segment core — the same
		// compaction a freeze runs, tail untouched.
		if r.fdel.dead*2 > fz.n && fz.n > 16 {
			r.adopt(r.reseal(0, false, fz.indexedColumns(), new(sealStats)))
		}
		return true
	}
	t := r.order[pos]
	delete(r.byID, id)
	r.live[pos] = false
	if r.byKey != nil {
		delete(r.byKey, t.Key())
	}
	for col, idx := range r.indexes {
		if b := idx[t.Vals[col].mapKey()]; b != nil {
			b.n-- // the stale ID is filtered lazily on the next lookup
			if b.n == 0 {
				delete(idx, t.Vals[col].mapKey())
			}
		}
	}
	// Tombstone in the order slice; compact when mostly dead.
	r.dead++
	if r.dead*2 > len(r.order) && len(r.order) > 16 {
		r.compact()
	}
	return true
}

// DeleteTuple removes the given tuple; it reports whether it was live.
func (r *Relation) DeleteTuple(t *Tuple) bool { return r.DeleteID(t.TID) }

// Delete removes the tuple with the given content key; it reports whether
// the tuple was present.
func (r *Relation) Delete(key string) bool {
	id, ok := r.lookupKey(key)
	if !ok {
		return false
	}
	return r.DeleteID(id)
}

// compact drops dead slots from the tail's order slice.
func (r *Relation) compact() {
	n := 0
	for i, t := range r.order {
		if r.live[i] {
			r.order[n] = t
			r.byID[t.TID] = int32(n)
			n++
		}
	}
	for i := range n {
		r.live[i] = true
	}
	r.order = r.order[:n]
	r.live = r.live[:n]
	r.dead = 0
}

// Scan calls fn for each live tuple in insertion order; fn returning false
// stops the scan. Mutating the relation during a scan is not supported.
// For an overlay the sealed segments (minus deleted positions) precede the
// tail, which is exactly the insertion order a deep clone would observe.
func (r *Relation) Scan(fn func(*Tuple) bool) {
	if fz := r.frozen; fz != nil {
		for i, s := range fz.segs {
			if r.fdel.n[i] == 0 {
				for _, t := range s.order {
					if !fn(t) {
						return
					}
				}
				continue
			}
			for p, t := range s.order {
				if r.fdelGet(i, int32(p)) {
					continue
				}
				if !fn(t) {
					return
				}
			}
		}
	}
	for i, t := range r.order {
		if !r.live[i] {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// Tuples returns the live tuples in insertion order.
func (r *Relation) Tuples() []*Tuple {
	out := make([]*Tuple, 0, r.Len())
	r.Scan(func(t *Tuple) bool { out = append(out, t); return true })
	return out
}

// Keys returns the live tuples' content keys in insertion order (reporting
// convenience; not used on evaluation paths).
func (r *Relation) Keys() []string {
	out := make([]string, 0, r.Len())
	r.Scan(func(t *Tuple) bool { out = append(out, t.Key()); return true })
	return out
}

// EnsureIndex builds the hash index on col if missing. Prepared programs
// declare their (relation, column) index requirements up front and can
// build them here before evaluation starts, so no lazy index construction
// happens on the lookup hot path. On an overlay this warms each segment's
// shared index (built at most once across all versions and forks) plus the
// private tail index.
func (r *Relation) EnsureIndex(col int) {
	if col >= 0 && col < r.Arity {
		r.ensureIndex(col)
		if fz := r.frozen; fz != nil {
			for _, s := range fz.segs {
				s.index(col)
			}
		}
	}
}

// IndexedColumns returns the columns with built indexes, sorted ascending.
// Snapshots persist these so a restored database can pre-warm the same
// indexes instead of rebuilding them lazily on the first query. For an
// overlay the sealed segments' warm columns count: they are equally warm
// for this fork.
func (r *Relation) IndexedColumns() []int {
	set := make(map[int]bool, len(r.indexes))
	for col := range r.indexes {
		set[col] = true
	}
	if r.frozen != nil {
		for _, col := range r.frozen.indexedColumns() {
			set[col] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for col := range set {
		out = append(out, col)
	}
	sort.Ints(out)
	return out
}

// Reset empties the relation for reuse, keeping allocated capacity and
// registered index columns (their buckets are dropped; inserts repopulate
// them). Used to recycle seminaive scratch relations across rounds and
// runs instead of allocating fresh ones. Any frozen core is detached.
func (r *Relation) Reset() {
	r.frozen, r.fdel, r.fdelOwned = nil, nil, [maxSegments]bool{}
	clear(r.byID)
	r.order = r.order[:0]
	r.live = r.live[:0]
	r.dead = 0
	r.byKey = nil
	for col := range r.indexes {
		clear(r.indexes[col])
	}
}

// ensureIndex builds the tail hash index on col if missing. For a flat
// relation the tail is the whole relation.
func (r *Relation) ensureIndex(col int) map[Value]*idxBucket {
	if r.indexes == nil {
		r.indexes = make(map[int]map[Value]*idxBucket)
	}
	idx, ok := r.indexes[col]
	if ok {
		return idx
	}
	idx = make(map[Value]*idxBucket)
	for i, t := range r.order {
		if !r.live[i] {
			continue
		}
		v := t.Vals[col].mapKey()
		b := idx[v]
		if b == nil {
			b = &idxBucket{}
			idx[v] = b
		}
		b.ids = append(b.ids, t.TID)
		b.n++
		if t.Seq < b.maxSeq {
			b.unsorted = true
		} else {
			b.maxSeq = t.Seq
		}
	}
	r.indexes[col] = idx
	return idx
}

// tailBucket returns the tail index bucket for the normalized value mk on
// col (building the tail index if missing) with dead IDs dropped, or nil.
// A tail that never received a row — every pristine fork's — is not
// indexed at all: the probe pays for the sealed segments only, and the
// index is built from the tail's rows by the first probe that finds some.
func (r *Relation) tailBucket(col int, mk Value) *idxBucket {
	if len(r.order) == 0 {
		return nil
	}
	tb := r.ensureIndex(col)[mk]
	if tb != nil && int(tb.n) != len(tb.ids) {
		tb.compact(r)
	}
	return tb
}

// sealedBuckets returns, per sealed segment, the index bucket for the
// normalized value mk on col (nil where the segment has no match), and
// whether their concatenation is Seq-ascending together with the Seq of
// its last tuple. Segments are sealed chronologically, so it almost always
// is; the exception is a tuple object deleted and re-inserted inside one
// fork (it keeps its old Seq but lands in a later segment), and delta
// relations, which receive tuples in deletion order.
func (r *Relation) sealedBuckets(col int, mk Value) (fbs [maxSegments]*frozenBucket, ascending bool, last *Tuple) {
	ascending = true
	if fz := r.frozen; fz != nil {
		for i, s := range fz.segs {
			b := s.index(col)[mk]
			if b == nil {
				continue
			}
			fbs[i] = b
			if last != nil && b.tuples[0].Seq < last.Seq {
				ascending = false
			}
			last = b.tuples[len(b.tuples)-1]
		}
	}
	return fbs, ascending, last
}

// Lookup returns the live tuples whose value at col equals v (numeric
// values compare cross-kind, mirroring Value.Equal), ordered by insertion
// sequence (deterministic). The first call on a column builds its index in
// O(n). No content key is built: the probe hashes the Value itself. On an
// overlay the sealed side reads each segment's shared warm index filtered
// through the deletion bitmap, then the tail index is merged in. A probe
// answered entirely by one tombstone-free segment's bucket (no tail hits)
// shares the bucket's Seq-sorted slice zero-copy; results are read-only in
// either case (appending is safe — the shared slice's capacity is
// clipped).
func (r *Relation) Lookup(col int, v Value) []*Tuple {
	if col < 0 || col >= r.Arity {
		return nil
	}
	mk := v.mapKey()
	fbs, _, _ := r.sealedBuckets(col, mk)
	sealedN, hits, only := 0, 0, 0
	for i, b := range fbs {
		if b != nil {
			sealedN += len(b.tuples)
			hits++
			only = i
		}
	}
	tb := r.tailBucket(col, mk)
	tailN := 0
	if tb != nil {
		tailN = int(tb.n)
	}
	if sealedN+tailN == 0 {
		return nil
	}
	if tailN == 0 && hits == 1 && r.fdel.n[only] == 0 {
		// Zero-copy fast path: one sealed bucket is the whole answer and is
		// already in result order.
		b := fbs[only]
		return b.tuples[:sealedN:sealedN]
	}
	out := make([]*Tuple, 0, sealedN+tailN)
	sorted := true
	for i, b := range fbs {
		if b == nil {
			continue
		}
		start := len(out)
		if r.fdel.n[i] == 0 {
			out = append(out, b.tuples...)
		} else {
			for j, pos := range b.poss {
				if !r.fdelGet(i, pos) {
					out = append(out, b.tuples[j])
				}
			}
		}
		if start > 0 && len(out) > start && out[start-1].Seq > out[start].Seq {
			sorted = false
		}
	}
	if tb != nil {
		for _, id := range tb.ids {
			t := r.order[r.byID[id]]
			if len(out) > 0 && out[len(out)-1].Seq > t.Seq {
				sorted = false
			}
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	}
	return out
}

// LookupEach calls fn for each live tuple whose value at col equals v, in
// Lookup order (Seq-ascending), without materializing a result slice; fn
// returning false stops the iteration. When the merged order cannot be
// streamed directly (an unsorted tail bucket, or a bucket that interleaves
// with an earlier one), it falls back to Lookup — the yielded sequence is
// identical either way. Mutating the relation mid-iteration is not
// supported.
func (r *Relation) LookupEach(col int, v Value, fn func(*Tuple) bool) {
	if col < 0 || col >= r.Arity {
		return
	}
	mk := v.mapKey()
	fbs, stream, last := r.sealedBuckets(col, mk)
	tb := r.tailBucket(col, mk)
	if stream && tb != nil && tb.n > 0 {
		// The tail follows the sealed side in result order only if it is
		// itself sorted and its earliest tuple postdates the sealed side's
		// latest.
		stream = !tb.unsorted && (last == nil || r.order[r.byID[tb.ids[0]]].Seq >= last.Seq)
	}
	if !stream {
		for _, t := range r.Lookup(col, v) {
			if !fn(t) {
				return
			}
		}
		return
	}
	for i, b := range fbs {
		if b == nil {
			continue
		}
		for j, pos := range b.poss {
			if r.fdelGet(i, pos) {
				continue
			}
			if !fn(b.tuples[j]) {
				return
			}
		}
	}
	if tb != nil {
		for _, id := range tb.ids {
			if !fn(r.order[r.byID[id]]) {
				return
			}
		}
	}
}

// ScanRuns calls fn with maximal runs of consecutive live tuples in Scan
// order — a whole segment when it has no deleted position, else its
// stretches between deletions, then whole tail stretches between dead
// slots — so batch consumers iterate plain slices instead of paying a
// callback per tuple. fn returning false stops the scan. Runs alias
// internal storage: fn must not retain or mutate them past the call.
func (r *Relation) ScanRuns(fn func([]*Tuple) bool) {
	if fz := r.frozen; fz != nil {
		for i, s := range fz.segs {
			if r.fdel.n[i] == 0 {
				if !fn(s.order) {
					return
				}
				continue
			}
			start := 0
			for pos := range s.order {
				if r.fdelGet(i, int32(pos)) {
					if pos > start && !fn(s.order[start:pos]) {
						return
					}
					start = pos + 1
				}
			}
			if start < len(s.order) && !fn(s.order[start:]) {
				return
			}
		}
	}
	start := -1
	for i := range r.order {
		if r.live[i] {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && !fn(r.order[start:i]) {
			return
		}
		start = -1
	}
	if start >= 0 {
		fn(r.order[start:])
	}
}

// compact drops dead IDs from the bucket.
func (b *idxBucket) compact(r *Relation) {
	n := 0
	for _, id := range b.ids {
		if _, ok := r.byID[id]; ok {
			b.ids[n] = id
			n++
		}
	}
	b.ids = b.ids[:n]
}

// LookupCount returns the number of live tuples whose value at col equals v
// without materializing them.
func (r *Relation) LookupCount(col int, v Value) int {
	if col < 0 || col >= r.Arity {
		return 0
	}
	mk := v.mapKey()
	n := 0
	fbs, _, _ := r.sealedBuckets(col, mk)
	for i, b := range fbs {
		if b == nil {
			continue
		}
		if r.fdel.n[i] == 0 {
			n += len(b.tuples)
			continue
		}
		for _, pos := range b.poss {
			if !r.fdelGet(i, pos) {
				n++
			}
		}
	}
	if b := r.tailBucket(col, mk); b != nil {
		n += int(b.n)
	}
	return n
}

// Clone returns a deep copy of the relation structure. Tuples are shared by
// pointer (they are immutable); the ID map and order slices are copied, and
// indexes and the content intern map are dropped (they rebuild lazily on
// demand). Overlays flatten: the clone owns plain storage regardless of the
// receiver's representation. No content keys are touched. Its one
// non-test caller is Database.Clone, the reference the copy-on-write fork
// is checked and measured against.
func (r *Relation) Clone() *Relation {
	n := r.Len()
	c := &Relation{
		Name:       r.Name,
		Arity:      r.Arity,
		byID:       make(map[TupleID]int32, n),
		order:      make([]*Tuple, 0, n),
		live:       make([]bool, 0, n),
		positional: r.positional,
	}
	r.Scan(func(t *Tuple) bool {
		c.byID[t.TID] = int32(len(c.order))
		c.order = append(c.order, t)
		c.live = append(c.live, true)
		return true
	})
	return c
}

// String renders "Name[n]".
func (r *Relation) String() string {
	return fmt.Sprintf("%s[%d]", r.Name, r.Len())
}
