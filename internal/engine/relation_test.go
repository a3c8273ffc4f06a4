package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func mkTuple(rel string, seq int, vals ...Value) *Tuple {
	t := &Tuple{Rel: rel, Vals: vals}
	t.Seq = seq
	return t
}

func TestRelationInsertDeleteContains(t *testing.T) {
	r := NewRelation("R", 2)
	a := mkTuple("R", 1, Int(1), Str("x"))
	b := mkTuple("R", 2, Int(2), Str("y"))

	if !r.Insert(a) {
		t.Fatal("first insert should be new")
	}
	if r.Insert(mkTuple("R", 3, Int(1), Str("x"))) {
		t.Fatal("duplicate content insert should report false")
	}
	r.Insert(b)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(a.Key()) || !r.Contains(b.Key()) {
		t.Fatal("Contains should report inserted tuples")
	}
	if !r.Delete(a.Key()) {
		t.Fatal("delete of live tuple should succeed")
	}
	if r.Delete(a.Key()) {
		t.Fatal("double delete should report false")
	}
	if r.Len() != 1 || r.Contains(a.Key()) {
		t.Fatal("tuple should be gone after delete")
	}
}

func TestRelationArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inserting a wrong-arity tuple should panic")
		}
	}()
	r := NewRelation("R", 2)
	r.Insert(mkTuple("R", 1, Int(1)))
}

func TestRelationScanOrderIsInsertionOrder(t *testing.T) {
	r := NewRelation("R", 1)
	var want []string
	for i := 0; i < 50; i++ {
		tp := mkTuple("R", i+1, Int(i))
		r.Insert(tp)
		want = append(want, tp.Key())
	}
	// Delete every third tuple to introduce tombstones.
	for i := 0; i < 50; i += 3 {
		r.Delete(ContentKey("R", []Value{Int(i)}))
	}
	var liveWant []string
	for i, k := range want {
		if i%3 != 0 {
			liveWant = append(liveWant, k)
		}
	}
	got := r.Keys()
	if len(got) != len(liveWant) {
		t.Fatalf("got %d keys, want %d", len(got), len(liveWant))
	}
	for i := range got {
		if got[i] != liveWant[i] {
			t.Fatalf("order mismatch at %d: got %s want %s", i, got[i], liveWant[i])
		}
	}
}

func TestRelationScanEarlyStop(t *testing.T) {
	r := NewRelation("R", 1)
	for i := 0; i < 10; i++ {
		r.Insert(mkTuple("R", i+1, Int(i)))
	}
	n := 0
	r.Scan(func(*Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("scan visited %d tuples, want 3", n)
	}
}

func TestRelationCompactionPreservesContent(t *testing.T) {
	r := NewRelation("R", 1)
	for i := 0; i < 200; i++ {
		r.Insert(mkTuple("R", i+1, Int(i)))
	}
	for i := 0; i < 150; i++ {
		r.Delete(ContentKey("R", []Value{Int(i)}))
	}
	if r.Len() != 50 {
		t.Fatalf("Len = %d, want 50", r.Len())
	}
	keys := r.Keys()
	if len(keys) != 50 {
		t.Fatalf("Keys len = %d, want 50", len(keys))
	}
	for i, k := range keys {
		want := ContentKey("R", []Value{Int(150 + i)})
		if k != want {
			t.Fatalf("after compaction key[%d] = %s, want %s", i, k, want)
		}
	}
}

func TestRelationLookup(t *testing.T) {
	r := NewRelation("W", 2)
	// Writes(aid, pid): author 4 writes papers 6 and 8; author 5 writes 7.
	w1 := mkTuple("W", 1, Int(4), Int(6))
	w2 := mkTuple("W", 2, Int(5), Int(7))
	w3 := mkTuple("W", 3, Int(4), Int(8))
	r.Insert(w1)
	r.Insert(w2)
	r.Insert(w3)

	got := r.Lookup(0, Int(4))
	if len(got) != 2 || got[0] != w1 || got[1] != w3 {
		t.Fatalf("Lookup(0, 4) = %v, want [w1 w3] in Seq order", got)
	}
	if n := r.LookupCount(0, Int(4)); n != 2 {
		t.Fatalf("LookupCount = %d, want 2", n)
	}
	if got := r.Lookup(1, Int(7)); len(got) != 1 || got[0] != w2 {
		t.Fatalf("Lookup(1, 7) = %v, want [w2]", got)
	}
	if got := r.Lookup(0, Int(99)); got != nil {
		t.Fatalf("Lookup miss should be nil, got %v", got)
	}
	if got := r.Lookup(5, Int(1)); got != nil {
		t.Fatalf("Lookup out-of-range column should be nil, got %v", got)
	}
}

func TestRelationLookupStaysCorrectUnderMutation(t *testing.T) {
	r := NewRelation("R", 2)
	for i := 0; i < 20; i++ {
		r.Insert(mkTuple("R", i+1, Int(i%4), Int(i)))
	}
	// Build the index.
	if n := len(r.Lookup(0, Int(1))); n != 5 {
		t.Fatalf("pre-delete Lookup = %d, want 5", n)
	}
	// Delete two tuples with value 1 at col 0 (i = 1, 5).
	r.Delete(ContentKey("R", []Value{Int(1), Int(1)}))
	r.Delete(ContentKey("R", []Value{Int(1), Int(5)}))
	if n := len(r.Lookup(0, Int(1))); n != 3 {
		t.Fatalf("post-delete Lookup = %d, want 3", n)
	}
	// Insert after index exists: index must pick it up.
	r.Insert(mkTuple("R", 100, Int(1), Int(999)))
	if n := len(r.Lookup(0, Int(1))); n != 4 {
		t.Fatalf("post-insert Lookup = %d, want 4", n)
	}
}

func TestRelationCloneIsIndependent(t *testing.T) {
	r := NewRelation("R", 1)
	for i := 0; i < 10; i++ {
		r.Insert(mkTuple("R", i+1, Int(i)))
	}
	c := r.Clone()
	r.Delete(ContentKey("R", []Value{Int(0)}))
	c.Insert(mkTuple("R", 11, Int(100)))
	if r.Len() != 9 {
		t.Fatalf("original Len = %d, want 9", r.Len())
	}
	if c.Len() != 11 {
		t.Fatalf("clone Len = %d, want 11", c.Len())
	}
	if !c.Contains(ContentKey("R", []Value{Int(0)})) {
		t.Fatal("clone should still contain the tuple deleted from the original")
	}
}

func TestTupleKeyAndString(t *testing.T) {
	tp := mkTuple("Grant", 1, Int(2), Str("ERC"))
	tp.ID = "g2"
	if tp.Key() != `Grant(i2,"ERC")` {
		t.Fatalf("Key = %q", tp.Key())
	}
	if tp.String() != "g2: Grant(2, 'ERC')" {
		t.Fatalf("String = %q", tp.String())
	}
	if tp.Arity() != 2 {
		t.Fatalf("Arity = %d", tp.Arity())
	}
}

// TestTupleEqualContent: tuples with the same relation and values share a
// content key, whatever their Seq; a different value or relation does not.
func TestTupleEqualContent(t *testing.T) {
	a := mkTuple("R", 1, Int(1), Str("x"))
	b := mkTuple("R", 9, Int(1), Str("x"))
	c := mkTuple("R", 2, Int(2), Str("x"))
	d := mkTuple("S", 3, Int(1), Str("x"))
	if a.Key() != b.Key() {
		t.Error("same content should be equal regardless of Seq")
	}
	if a.Key() == c.Key() || a.Key() == d.Key() {
		t.Error("different values or relation should not be equal")
	}
}

func TestRelationStringer(t *testing.T) {
	r := NewRelation("R", 1)
	r.Insert(mkTuple("R", 1, Int(1)))
	if s := fmt.Sprint(r); s != "R[1]" {
		t.Fatalf("String = %q, want R[1]", s)
	}
}

// --- Model-based identity-invariant test ------------------------------------

// refModel is a naive reference implementation of a Relation: a slice of
// live tuples in insertion order with content-key dedup. The real Relation
// (ID maps, liveness bitmap, lazy intern map, index buckets, compaction)
// must agree with it after any operation sequence.
type refModel struct {
	live []*Tuple
}

// insert mirrors Relation.Insert's set semantics: content already present
// under any tuple object is not inserted again.
func (m *refModel) insert(t *Tuple) bool {
	for _, u := range m.live {
		if u.Key() == t.Key() {
			return false
		}
	}
	m.live = append(m.live, t)
	return true
}

func (m *refModel) delete_(key string) bool {
	for i, u := range m.live {
		if u.Key() == key {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return true
		}
	}
	return false
}

// deleteTuple removes by object identity (the semantics of DeleteTuple and
// DeleteID): a detached duplicate-content tuple that was never stored does
// not match the stored tuple of equal content.
func (m *refModel) deleteTuple(tp *Tuple) bool {
	for i, u := range m.live {
		if u == tp {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return true
		}
	}
	return false
}

func (m *refModel) lookup(col int, v Value) []*Tuple {
	var out []*Tuple
	for _, u := range m.live {
		if u.Vals[col].Equal(v) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// checkAgainstModel compares Len, iteration order, Contains/ContainsID, and
// per-column Lookup/LookupCount between the relation and the model.
func checkAgainstModel(t *testing.T, tag string, r *Relation, m *refModel, domain []Value) {
	t.Helper()
	if r.Len() != len(m.live) {
		t.Fatalf("%s: Len = %d, model %d", tag, r.Len(), len(m.live))
	}
	got := r.Tuples()
	if len(got) != len(m.live) {
		t.Fatalf("%s: iteration length %d, model %d", tag, len(got), len(m.live))
	}
	for i := range got {
		if got[i] != m.live[i] {
			t.Fatalf("%s: iteration order diverges at %d: %s vs %s", tag, i, got[i], m.live[i])
		}
	}
	for _, u := range m.live {
		if !r.Contains(u.Key()) || !r.ContainsID(u.TID) || r.Get(u.Key()) != u || r.GetID(u.TID) != u {
			t.Fatalf("%s: %s should be visible by key and by ID", tag, u)
		}
	}
	for col := 0; col < r.Arity; col++ {
		for _, v := range domain {
			want := m.lookup(col, v)
			have := r.Lookup(col, v)
			if len(have) != len(want) {
				t.Fatalf("%s: Lookup(%d, %s) = %d tuples, model %d", tag, col, v, len(have), len(want))
			}
			for i := range have {
				if have[i] != want[i] {
					t.Fatalf("%s: Lookup(%d, %s)[%d] = %s, model %s", tag, col, v, i, have[i], want[i])
				}
			}
			if n := r.LookupCount(col, v); n != len(want) {
				t.Fatalf("%s: LookupCount(%d, %s) = %d, model %d", tag, col, v, n, len(want))
			}
		}
	}
}

// TestRelationAgainstReferenceModel drives interleaved Insert/Delete (by
// key, by ID, and by tuple), index builds, compaction, and Clone against
// the naive model, checking the identity invariants after every step.
func TestRelationAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	domain := []Value{Int(0), Int(1), Int(2), Int(3), Str("a"), Str("b")}
	randVal := func() Value { return domain[rng.Intn(len(domain))] }

	r := NewRelation("M", 2)
	m := &refModel{}
	seq := 0
	var everInserted []*Tuple

	// Force the index and the intern map alive early so every later
	// mutation exercises their maintenance paths.
	r.Lookup(0, Int(0))
	r.Contains("M(i0,i0)")

	for step := 0; step < 600; step++ {
		tag := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); {
		case op < 5: // insert a fresh tuple (possibly duplicate content)
			seq++
			tp := mkTuple("M", seq, randVal(), randVal())
			if r.Insert(tp) != m.insert(tp) {
				t.Fatalf("%s: insert disagreement for %s", tag, tp)
			}
			everInserted = append(everInserted, tp)
		case op < 6 && len(everInserted) > 0: // re-insert an old tuple object
			tp := everInserted[rng.Intn(len(everInserted))]
			if r.Insert(tp) != m.insert(tp) {
				t.Fatalf("%s: re-insert disagreement for %s", tag, tp)
			}
		case op < 8 && len(everInserted) > 0: // delete by key or by tuple/ID
			tp := everInserted[rng.Intn(len(everInserted))]
			var got, want bool
			switch rng.Intn(3) {
			case 0: // content identity
				got, want = r.Delete(tp.Key()), m.delete_(tp.Key())
			case 1: // object identity
				got, want = r.DeleteTuple(tp), m.deleteTuple(tp)
			default:
				got, want = r.DeleteID(tp.TID), m.deleteTuple(tp)
			}
			if got != want {
				t.Fatalf("%s: delete disagreement for %s", tag, tp)
			}
		default: // delete a random live tuple to drive compaction
			if len(m.live) == 0 {
				continue
			}
			tp := m.live[rng.Intn(len(m.live))]
			if !r.DeleteTuple(tp) || !m.deleteTuple(tp) {
				t.Fatalf("%s: live delete failed for %s", tag, tp)
			}
		}
		checkAgainstModel(t, tag, r, m, domain)
	}

	// Clone must agree with the same model, stay correct after further
	// mutation, and leave the original untouched.
	c := r.Clone()
	checkAgainstModel(t, "clone", c, m, domain)
	mc := &refModel{live: append([]*Tuple(nil), m.live...)}
	for step := 0; step < 200; step++ {
		tag := fmt.Sprintf("clone step %d", step)
		if rng.Intn(2) == 0 {
			seq++
			tp := mkTuple("M", seq, randVal(), randVal())
			if c.Insert(tp) != mc.insert(tp) {
				t.Fatalf("%s: insert disagreement", tag)
			}
		} else if len(mc.live) > 0 {
			tp := mc.live[rng.Intn(len(mc.live))]
			if !c.DeleteTuple(tp) || !mc.deleteTuple(tp) {
				t.Fatalf("%s: delete disagreement", tag)
			}
		}
		checkAgainstModel(t, tag, c, mc, domain)
	}
	checkAgainstModel(t, "original after clone mutation", r, m, domain)
}

// TestRelationIndexSurvivesDeleteReinsert is a regression test: deleting an
// indexed tuple and re-inserting the same tuple object, with no lookup in
// between, must not leave a duplicate entry in the index bucket.
func TestRelationIndexSurvivesDeleteReinsert(t *testing.T) {
	r := NewRelation("R", 2)
	t1 := mkTuple("R", 1, Int(7), Int(1))
	t2 := mkTuple("R", 2, Int(7), Int(2))
	r.Insert(t1)
	r.Insert(t2)
	if n := len(r.Lookup(0, Int(7))); n != 2 { // build the index
		t.Fatalf("initial Lookup = %d, want 2", n)
	}
	r.DeleteTuple(t1)
	r.Insert(t1) // re-insert while the bucket still holds the stale entry
	got := r.Lookup(0, Int(7))
	if len(got) != 2 {
		t.Fatalf("Lookup after delete+reinsert = %v (%d tuples), want 2", got, len(got))
	}
	if r.LookupCount(0, Int(7)) != 2 {
		t.Fatalf("LookupCount = %d, want 2", r.LookupCount(0, Int(7)))
	}
	seen := map[TupleID]bool{}
	for _, tp := range got {
		if seen[tp.TID] {
			t.Fatalf("duplicate tuple %s in lookup result", tp)
		}
		seen[tp.TID] = true
	}
}

// TestRelationReset: Reset empties the relation but keeps registered index
// columns, and reuse after Reset behaves like a fresh relation.
func TestRelationReset(t *testing.T) {
	r := NewScratchRelation("S", 1)
	r.EnsureIndex(0)
	a, b := &Tuple{Rel: "S", Vals: []Value{Int(1)}}, &Tuple{Rel: "S", Vals: []Value{Int(2)}}
	r.Insert(a)
	r.Insert(b)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", r.Len())
	}
	if cols := r.IndexedColumns(); len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("Reset dropped index registration: %v", cols)
	}
	if got := r.Lookup(0, Int(1)); len(got) != 0 {
		t.Fatalf("Lookup after Reset returned %v", got)
	}
	r.Insert(b)
	if got := r.Lookup(0, Int(2)); len(got) != 1 || got[0] != b {
		t.Fatalf("Lookup after reuse = %v, want [b]", got)
	}
	if r.Contains(a.Key()) {
		t.Fatal("Reset kept stale content key")
	}
}
