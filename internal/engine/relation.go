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
// copy-on-write overlay over a shared immutable frozenRel (see cow.go). An
// overlay records divergence from the frozen base as a per-fork deletion
// bitmap (fdel/fdead) plus a private appended tail, for which the flat
// machinery below (byID/order/live/indexes/byKey) is reused unchanged.
// Every read merges "frozen minus deleted" with the tail in insertion
// order, so an overlay is observationally identical to the deep clone it
// replaces while forking in O(1) and mutating in O(changes).
//
// A Relation is used both for base relations R_i and delta relations ∆_i
// (which share the base relation's schema per §3.1 of the paper).
type Relation struct {
	Name  string
	Arity int

	// frozen, when non-nil, is the shared immutable base this relation
	// overlays. fdel marks deleted frozen tuples by their position in
	// frozen.order (lazily allocated bitmap); fdead counts the set bits.
	// All remaining fields then describe only the private tail.
	frozen *frozenRel
	fdel   []uint64
	fdead  int

	byID  map[TupleID]int32 // live tuples: TID -> position in order
	order []*Tuple          // insertion order; dead slots remain until compact
	live  []bool            // liveness bitmap parallel to order
	dead  int               // number of dead slots in order

	// byKey is the content intern map (content key -> TID). It is built
	// lazily on the first insert or key-based operation and maintained
	// afterwards; relations that are only scanned, probed, and deleted
	// from (forked bases inside executors) never pay for it. For an
	// overlay it covers only the tail: frozen content resolves through the
	// frozenRel's shared intern map, built once per snapshot.
	byKey map[string]TupleID

	// indexes[col][value] -> bucket of TIDs having that value at col.
	// Values are normalized with Value.mapKey, so probing hashes the Value
	// directly — no string building. For an overlay these buckets cover
	// only the tail; the frozen side of a lookup reads the frozenRel's
	// shared warm index, built at most once per snapshot across all forks.
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

// fdelGet reports whether the frozen tuple at the given position has been
// deleted in this overlay.
func (r *Relation) fdelGet(pos int32) bool {
	if r.fdel == nil {
		return false
	}
	return r.fdel[uint32(pos)>>6]&(1<<(uint32(pos)&63)) != 0
}

// fdelSet marks the frozen tuple at the given position deleted, allocating
// the bitmap on first use (one word per 64 frozen tuples).
func (r *Relation) fdelSet(pos int32) {
	if r.fdel == nil {
		r.fdel = make([]uint64, (len(r.frozen.order)+63)/64)
	}
	r.fdel[uint32(pos)>>6] |= 1 << (uint32(pos) & 63)
}

// Len returns the number of live tuples.
func (r *Relation) Len() int {
	n := len(r.byID)
	if r.frozen != nil {
		n += len(r.frozen.order) - r.fdead
	}
	return n
}

// ContainsID reports whether the tuple with the given interned ID is live.
func (r *Relation) ContainsID(id TupleID) bool {
	if _, ok := r.byID[id]; ok {
		return true
	}
	if r.frozen != nil {
		if pos, ok := r.frozen.byID[id]; ok {
			return !r.fdelGet(pos)
		}
	}
	return false
}

// ContainsTuple reports whether the given tuple is live in the relation.
func (r *Relation) ContainsTuple(t *Tuple) bool { return r.ContainsID(t.TID) }

// GetID returns the live tuple with the given interned ID, or nil.
func (r *Relation) GetID(id TupleID) *Tuple {
	if pos, ok := r.byID[id]; ok {
		return r.order[pos]
	}
	if r.frozen != nil {
		if pos, ok := r.frozen.byID[id]; ok && !r.fdelGet(pos) {
			return r.frozen.order[pos]
		}
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
// tail intern map and, for overlays, the snapshot-shared frozen intern map
// filtered through the deletion bitmap.
func (r *Relation) lookupKey(key string) (TupleID, bool) {
	if id, ok := r.internKeys()[key]; ok {
		return id, true
	}
	if fz := r.frozen; fz != nil && len(fz.order) > 0 {
		if id, ok := fz.keyMap()[key]; ok && !r.fdelGet(fz.byID[id]) {
			return id, true
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
// overlay, inserts always land in the private tail; the frozen base is
// never modified.
func (r *Relation) Insert(t *Tuple) bool {
	if len(t.Vals) != r.Arity {
		panic(fmt.Sprintf("engine: arity mismatch inserting %s into %s/%d", t, r.Name, r.Arity))
	}
	if t.TID != 0 {
		if _, dup := r.byID[t.TID]; dup {
			return false
		}
		if fz := r.frozen; fz != nil {
			if pos, ok := fz.byID[t.TID]; ok && !r.fdelGet(pos) {
				return false
			}
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
// the tuple was live. Deleting a frozen tuple from an overlay sets one bit
// in the fork's deletion bitmap — the shared base and its warm indexes are
// untouched (lookups filter through the bitmap lazily).
func (r *Relation) DeleteID(id TupleID) bool {
	pos, ok := r.byID[id]
	if !ok {
		if fz := r.frozen; fz != nil {
			if fpos, ok := fz.byID[id]; ok && !r.fdelGet(fpos) {
				r.fdelSet(fpos)
				r.fdead++
				// The tail intern map never holds frozen keys, and frozen
				// index buckets are filtered through the bitmap at lookup,
				// so no map or bucket maintenance is needed here.
				// Mirror the flat-relation compaction policy: once most of
				// the frozen base is deleted the overlay stops paying the
				// bitmap filter on every scan and flattens into a private
				// flat relation.
				if r.fdead*2 > len(fz.order) && len(fz.order) > 16 {
					r.materialize()
				}
				return true
			}
		}
		return false
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

// materialize flattens an overlay into a private flat relation: the live
// frozen tuples and the live tail merge into owned storage, and indexed
// columns are rebuilt locally. Called when the overlay has diverged so far
// (or must be refrozen) that structural sharing no longer pays.
func (r *Relation) materialize() {
	r.flatten(r.IndexedColumns())
}

// flatten merges the live frozen tuples and the live tail into owned flat
// storage, then rebuilds local indexes for cols (nil skips the rebuild —
// freeze flattens this way because the new core builds its own positional
// indexes from the merged order).
func (r *Relation) flatten(cols []int) {
	fz := r.frozen
	if fz == nil {
		return
	}
	n := r.Len()
	order := make([]*Tuple, 0, n)
	byID := make(map[TupleID]int32, n)
	for i, t := range fz.order {
		if r.fdelGet(int32(i)) {
			continue
		}
		byID[t.TID] = int32(len(order))
		order = append(order, t)
	}
	for i, t := range r.order {
		if !r.live[i] {
			continue
		}
		byID[t.TID] = int32(len(order))
		order = append(order, t)
	}
	live := make([]bool, len(order))
	for i := range live {
		live[i] = true
	}
	r.frozen, r.fdel, r.fdead = nil, nil, 0
	r.byID, r.order, r.live, r.dead = byID, order, live, 0
	r.byKey = nil
	r.indexes = nil
	for _, col := range cols {
		r.ensureIndex(col)
	}
}

// Scan calls fn for each live tuple in insertion order; fn returning false
// stops the scan. Mutating the relation during a scan is not supported.
// For an overlay the frozen base (minus this fork's deletions) precedes the
// tail, which is exactly the insertion order a deep clone would observe.
func (r *Relation) Scan(fn func(*Tuple) bool) {
	if fz := r.frozen; fz != nil {
		if r.fdead == 0 {
			for _, t := range fz.order {
				if !fn(t) {
					return
				}
			}
		} else {
			for i, t := range fz.order {
				if r.fdelGet(int32(i)) {
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

// IDs returns the live tuples' interned IDs in insertion order.
func (r *Relation) IDs() []TupleID {
	out := make([]TupleID, 0, r.Len())
	r.Scan(func(t *Tuple) bool { out = append(out, t.TID); return true })
	return out
}

// EnsureIndex builds the hash index on col if missing. Prepared programs
// declare their (relation, column) index requirements up front and can
// build them here before evaluation starts, so no lazy index construction
// happens on the lookup hot path. On an overlay this warms the
// snapshot-shared frozen index (built at most once across all forks) plus
// the private tail index.
func (r *Relation) EnsureIndex(col int) {
	if col >= 0 && col < r.Arity {
		r.ensureIndex(col)
		if fz := r.frozen; fz != nil && len(fz.order) > 0 {
			fz.index(col)
		}
	}
}

// IndexedColumns returns the columns with built indexes, sorted ascending.
// Snapshots persist these so a restored database can pre-warm the same
// indexes instead of rebuilding them lazily on the first query. For an
// overlay the frozen base's warm columns count: they are equally warm for
// this fork.
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
// runs instead of allocating fresh ones. Any frozen base is detached.
func (r *Relation) Reset() {
	r.frozen, r.fdel, r.fdead = nil, nil, 0
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

// Lookup returns the live tuples whose value at col equals v (numeric
// values compare cross-kind, mirroring Value.Equal), ordered by insertion
// sequence (deterministic). The first call on a column builds its index in
// O(n). No content key is built: the probe hashes the Value itself. On an
// overlay the frozen side reads the snapshot-shared warm index filtered
// through the deletion bitmap, then the tail index is merged in. A probe
// answered entirely by a frozen bucket (no deletions, no tail hits) shares
// the bucket's Seq-sorted slice zero-copy; results are read-only in either
// case (appending is safe — the shared slice's capacity is clipped).
func (r *Relation) Lookup(col int, v Value) []*Tuple {
	if col < 0 || col >= r.Arity {
		return nil
	}
	mk := v.mapKey()
	var fb *frozenBucket
	fz := r.frozen
	if fz != nil && len(fz.order) > 0 {
		fb = fz.index(col)[mk]
	}
	tb := r.ensureIndex(col)[mk]
	if tb != nil && int(tb.n) != len(tb.ids) {
		tb.compact(r)
	}
	frozenN, tailN := 0, 0
	if fb != nil {
		frozenN = len(fb.tuples)
	}
	if tb != nil {
		tailN = int(tb.n)
	}
	if frozenN+tailN == 0 {
		return nil
	}
	if tailN == 0 && r.fdead == 0 && columnarOn.Load() {
		// Zero-copy fast path: the frozen bucket is the whole answer and is
		// already in result order.
		return fb.tuples[:frozenN:frozenN]
	}
	out := make([]*Tuple, 0, frozenN+tailN)
	sorted := true
	if fb != nil {
		if r.fdead == 0 {
			out = append(out, fb.tuples...)
		} else {
			for i, pos := range fb.poss {
				if !r.fdelGet(pos) {
					out = append(out, fb.tuples[i])
				}
			}
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

// LookupEach calls fn for each live tuple whose value at col equals v and
// that satisfies every check, in Lookup order (Seq-ascending), without
// materializing a result slice; fn returning false stops the iteration.
// Checks are evaluated on the frozen core's column vectors when the
// columnar image is available, culling failing candidates before their
// tuples are touched. When the merged order cannot be streamed directly
// (an unsorted tail bucket, or a tail that interleaves with the frozen
// side), it falls back to Lookup and filters — the yielded sequence is
// identical either way. Mutating the relation mid-iteration is not
// supported.
func (r *Relation) LookupEach(col int, v Value, checks []ColCheck, fn func(*Tuple) bool) {
	if col < 0 || col >= r.Arity {
		return
	}
	if !columnarOn.Load() {
		for _, t := range r.Lookup(col, v) {
			if checksMatchTuple(t, checks) && !fn(t) {
				return
			}
		}
		return
	}
	mk := v.mapKey()
	var fb *frozenBucket
	fz := r.frozen
	if fz != nil && len(fz.order) > 0 {
		fb = fz.index(col)[mk]
	}
	tb := r.ensureIndex(col)[mk]
	if tb != nil && int(tb.n) != len(tb.ids) {
		tb.compact(r)
	}
	if tb != nil && tb.n > 0 {
		stream := !tb.unsorted
		if stream && fb != nil && len(fb.tuples) > 0 {
			// The tail follows the frozen side in result order only if its
			// earliest tuple postdates the frozen bucket's latest.
			first := r.order[r.byID[tb.ids[0]]]
			stream = first.Seq >= fb.tuples[len(fb.tuples)-1].Seq
		}
		if !stream {
			for _, t := range r.Lookup(col, v) {
				if checksMatchTuple(t, checks) && !fn(t) {
					return
				}
			}
			return
		}
	}
	if fb != nil {
		var fc *frozenCols
		if len(checks) > 0 {
			fc = fz.columnar()
		}
		for i, pos := range fb.poss {
			if r.fdead > 0 && r.fdelGet(pos) {
				continue
			}
			if fc != nil {
				if !fc.match(int(pos), checks) {
					continue
				}
			} else if !checksMatchTuple(fb.tuples[i], checks) {
				continue
			}
			if !fn(fb.tuples[i]) {
				return
			}
		}
	}
	if tb != nil {
		for _, id := range tb.ids {
			t := r.order[r.byID[id]]
			if checksMatchTuple(t, checks) && !fn(t) {
				return
			}
		}
	}
}

// ScanChecked calls fn for each live tuple satisfying every check, in Scan
// order; fn returning false stops the scan. Checks are evaluated on the
// frozen core's column vectors when the columnar image is available, so a
// failing frozen row is rejected on flat vectors without touching its
// tuple.
func (r *Relation) ScanChecked(checks []ColCheck, fn func(*Tuple) bool) {
	if len(checks) == 0 {
		r.Scan(fn)
		return
	}
	var fc *frozenCols
	fz := r.frozen
	if fz != nil {
		fc = fz.columnar() // nil when disabled or the core is empty
	}
	if fc != nil {
		for pos := range fz.order {
			if r.fdead > 0 && r.fdelGet(int32(pos)) {
				continue
			}
			if !fc.match(pos, checks) {
				continue
			}
			if !fn(fz.order[pos]) {
				return
			}
		}
		for i, t := range r.order {
			if !r.live[i] || !checksMatchTuple(t, checks) {
				continue
			}
			if !fn(t) {
				return
			}
		}
		return
	}
	r.Scan(func(t *Tuple) bool {
		if !checksMatchTuple(t, checks) {
			return true
		}
		return fn(t)
	})
}

// ScanRuns calls fn with maximal runs of consecutive live tuples in Scan
// order — whole frozen-core stretches between deletions, then whole tail
// stretches between dead slots — so batch consumers iterate plain slices
// instead of paying a callback per tuple. fn returning false stops the
// scan. Runs alias internal storage: fn must not retain or mutate them
// past the call.
func (r *Relation) ScanRuns(fn func([]*Tuple) bool) {
	if fz := r.frozen; fz != nil && len(fz.order) > 0 {
		if r.fdead == 0 {
			if !fn(fz.order) {
				return
			}
		} else {
			start := 0
			for pos := range fz.order {
				if r.fdelGet(int32(pos)) {
					if pos > start && !fn(fz.order[start:pos]) {
						return
					}
					start = pos + 1
				}
			}
			if start < len(fz.order) && !fn(fz.order[start:]) {
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
	if fz := r.frozen; fz != nil && len(fz.order) > 0 {
		if b := fz.index(col)[mk]; b != nil {
			if r.fdead == 0 {
				n += len(b.tuples)
			} else {
				for _, pos := range b.poss {
					if !r.fdelGet(pos) {
						n++
					}
				}
			}
		}
	}
	if b := r.ensureIndex(col)[mk]; b != nil {
		n += int(b.n)
	}
	return n
}

// Clone returns a deep copy of the relation structure. Tuples are shared by
// pointer (they are immutable); the ID map and order slices are copied, and
// indexes and the content intern map are dropped (they rebuild lazily on
// demand). Overlays flatten: the clone owns plain storage regardless of the
// receiver's representation. No content keys are touched.
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
