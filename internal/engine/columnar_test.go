package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Tests for the two places a sealed segment's values are read: its rows in
// memory, through the batch read APIs, and its columns on disk, through the
// segment frame. The batch APIs must agree, tuple for tuple and in order,
// with a row-oriented reference (Scan, Value.Equal and a Seq sort over
// plain tuples) across random overlay states — one to three sealed
// segments, tombstones, private tails, deletions on both sides — and
// adversarial values (NaN, -0.0, cross-kind numerics, interned strings).
// The frame must give every cell back to the bit.

// colTestVals is the adversarial value pool: cross-kind equal pairs
// (int 2 vs float 2.0), negative zero, NaN, floats, and strings.
func colTestVals() []Value {
	return []Value{
		{Kind: KindInt, Int: 0},
		{Kind: KindInt, Int: 2},
		{Kind: KindInt, Int: -7},
		{Kind: KindFloat, Flt: 2},
		{Kind: KindFloat, Flt: 0},
		{Kind: KindFloat, Flt: math.Copysign(0, -1)},
		{Kind: KindFloat, Flt: 2.5},
		{Kind: KindFloat, Flt: math.NaN()},
		{Kind: KindString, Str: "a"},
		{Kind: KindString, Str: "b"},
		{Kind: KindString, Str: ""},
		{Kind: KindString, Str: "2"},
	}
}

// sameBits reports whether two values are the same cell to the bit: same
// kind and same payload, floats compared by their IEEE-754 bits (so NaN
// matches NaN and -0.0 does not match 0.0).
func sameBits(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return math.Float64bits(a.Flt) == math.Float64bits(b.Flt)
	default:
		return a.Str == b.Str
	}
}

// TestColVecMatchRowMirrorsEqual: every cell survives the segment frame's
// column layout bit for bit — a round trip through AppendSegment and
// DecodeSegment — on a mixed-kind column (per-row kinds) and on uniform
// single-kind columns, with the IDs and Seqs of its rows.
func TestColVecMatchRowMirrorsEqual(t *testing.T) {
	two53 := float64(1 << 53)
	vals := append(colTestVals(),
		Value{Kind: KindInt, Int: math.MaxInt64},
		Value{Kind: KindInt, Int: math.MinInt64},
		Value{Kind: KindInt, Int: 1<<53 + 1},
		Value{Kind: KindFloat, Flt: math.Inf(1)},
		Value{Kind: KindFloat, Flt: math.Inf(-1)},
		Value{Kind: KindFloat, Flt: two53},
		Value{Kind: KindFloat, Flt: -two53},
		Value{Kind: KindFloat, Flt: math.Float64frombits(0x7ff8000000000001)}, // a NaN with a payload
		Value{Kind: KindString, Str: "a"},                                     // repeated: the string table holds it once
		Value{Kind: KindString, Str: "ü\x00"},
	)
	groups := map[string][]Value{"mixed": vals}
	for _, v := range vals {
		key := fmt.Sprintf("uniform-%s", v.Kind)
		groups[key] = append(groups[key], v)
	}
	for name, cells := range groups {
		// Column 0 numbers the rows so that no two rows share content;
		// column 1 holds the cells under test.
		n := len(cells)
		flat := make([]Value, 0, 2*n)
		ids, seqs := make([]string, n), make([]int, n)
		for i, v := range cells {
			flat = append(flat, Int(i), v)
			ids[i], seqs[i] = fmt.Sprintf("c%d", i), 3*i+1
		}
		seg := sealRows("C", 2, flat, ids, seqs, nil).segs[0]
		back, err := DecodeSegment(AppendSegment(nil, seg), "C", 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Len() != n {
			t.Fatalf("%s: decoded %d rows, want %d", name, back.Len(), n)
		}
		for i, cell := range cells {
			got := back.order[i]
			if got.ID != ids[i] || got.Seq != seqs[i] {
				t.Fatalf("%s: row %d decoded as %s seq %d, want %s seq %d", name, i, got.ID, got.Seq, ids[i], seqs[i])
			}
			if !sameBits(got.Vals[0], Int(i)) || !sameBits(got.Vals[1], cell) {
				t.Fatalf("%s: row %d decoded as %#v, want [%#v %#v]", name, i, got.Vals, Int(i), cell)
			}
		}
	}
}

// randomOverlay builds a relation in a random overlay state: a core sealed
// in one to four rounds (so one to three segments, with tombstones), a
// private tail, and random deletions on both sides. It also returns the
// live rows as a model: content key to tuple ID.
func randomOverlay(rng *rand.Rand) (*Relation, map[string]string) {
	schema := NewSchema()
	if _, err := schema.AddRelation("R", "r", "a", "b", "c"); err != nil {
		panic(err)
	}
	db := NewDatabase(schema)
	rel := db.Relation("R")
	model := make(map[string]string)
	pool := colTestVals()
	// NaN is excluded from stored cells (NaN map keys would split index
	// buckets); it stays in the probe pool.
	stored := make([]Value, 0, len(pool))
	for _, v := range pool {
		if v.Kind == KindFloat && math.IsNaN(v.Flt) {
			continue
		}
		stored = append(stored, v)
	}
	pick := func() Value { return stored[rng.Intn(len(stored))] }
	mutate := func(inserts int) {
		for i, n := 0, rng.Intn(inserts); i < n; i++ {
			tp := db.MustInsert("R", pick(), pick(), pick())
			model[tp.Key()] = tp.ID
		}
		for _, tp := range rel.Tuples() {
			if rng.Intn(5) == 0 {
				rel.DeleteTuple(tp)
				delete(model, tp.Key())
			}
		}
	}
	for round, rounds := 0, 1+rng.Intn(4); round < rounds; round++ {
		mutate(40)
		db.Freeze()
	}
	mutate(20)
	return rel, model
}

// sameTuples reports whether two tuple sequences are identical, pointer
// for pointer, in order.
func sameTuples(a, b []*Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchAPIsMatchRowReference: on random overlay states, Scan must yield
// exactly the live rows, ScanRuns must yield Scan's sequence, and Lookup,
// LookupCount and LookupEach — which stream index buckets across segments,
// tombstones and the tail — must yield exactly what the row reference
// yields: Scan filtered with Value.Equal on the tuples themselves, sorted
// by Seq.
func TestBatchAPIsMatchRowReference(t *testing.T) {
	probes := colTestVals()
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rel, model := randomOverlay(rng)

		var scan []*Tuple
		rel.Scan(func(tp *Tuple) bool { scan = append(scan, tp); return true })
		if len(scan) != len(model) {
			t.Fatalf("trial %d: Scan yielded %d tuples, %d are live", trial, len(scan), len(model))
		}
		for _, tp := range scan {
			if id, ok := model[tp.Key()]; !ok || id != tp.ID {
				t.Fatalf("trial %d: Scan yielded %s, which is not live", trial, tp)
			}
		}
		var runs []*Tuple
		rel.ScanRuns(func(run []*Tuple) bool {
			if len(run) == 0 {
				t.Fatalf("trial %d: ScanRuns yielded an empty run", trial)
			}
			runs = append(runs, run...)
			return true
		})
		if !sameTuples(runs, scan) {
			t.Fatalf("trial %d: ScanRuns order diverged from Scan", trial)
		}

		for p := 0; p < 12; p++ {
			col := rng.Intn(3)
			v := probes[rng.Intn(len(probes))]
			var rowLookup []*Tuple
			for _, tp := range scan {
				if tp.Vals[col].Equal(v) {
					rowLookup = append(rowLookup, tp)
				}
			}
			sort.SliceStable(rowLookup, func(i, j int) bool { return rowLookup[i].Seq < rowLookup[j].Seq })
			if got := rel.Lookup(col, v); !sameTuples(got, rowLookup) {
				t.Fatalf("trial %d probe %d: Lookup(%d, %#v) = %d tuples, row reference %d", trial, p, col, v, len(got), len(rowLookup))
			}
			if got := rel.LookupCount(col, v); got != len(rowLookup) {
				t.Fatalf("trial %d probe %d: LookupCount(%d, %#v) = %d, row reference %d", trial, p, col, v, got, len(rowLookup))
			}
			var each []*Tuple
			rel.LookupEach(col, v, func(tp *Tuple) bool { each = append(each, tp); return true })
			if !sameTuples(each, rowLookup) {
				t.Fatalf("trial %d probe %d: LookupEach(%d, %#v) diverged from the row reference", trial, p, col, v)
			}
		}
	}
}

// TestLookupZeroCopyFrozen: a probe answered entirely by a pristine
// frozen core shares the bucket slice — zero allocations, capacity
// clipped so appends cannot scribble on the shared storage.
func TestLookupZeroCopyFrozen(t *testing.T) {
	schema := NewSchema()
	if _, err := schema.AddRelation("R", "r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	for i := 0; i < 100; i++ {
		db.MustInsert("R", Value{Kind: KindInt, Int: int64(i % 10)}, Value{Kind: KindInt, Int: int64(i)})
	}
	db.Freeze()
	rel := db.Relation("R")
	rel.EnsureIndex(0)
	v := Value{Kind: KindInt, Int: 3}
	got := rel.Lookup(0, v)
	if len(got) != 10 {
		t.Fatalf("Lookup returned %d tuples, want 10", len(got))
	}
	if cap(got) != len(got) {
		t.Fatalf("zero-copy result capacity %d not clipped to length %d", cap(got), len(got))
	}
	if allocs := testing.AllocsPerRun(200, func() { rel.Lookup(0, v) }); allocs != 0 {
		t.Fatalf("frozen-core Lookup allocated %.1f times per op, want 0", allocs)
	}
}
