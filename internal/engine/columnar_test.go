package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Differential tests for the columnar sealed-segment read paths: every
// batch API must agree, tuple for tuple and in order, with a row-oriented
// reference (Scan, Value.Equal and a Seq sort over plain tuples), across
// random overlay states — one to three sealed segments, tombstones,
// private tails, deletions on both sides — and adversarial values (NaN,
// -0.0, cross-kind numerics, interned strings).

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

// TestColVecMatchRowMirrorsEqual: matchRow on a columnar cell must agree
// with Value.Equal on the reconstructed cell, for every (cell, probe)
// pair in the adversarial pool — on mixed-kind columns (per-row kinds)
// and on uniform single-kind columns.
func TestColVecMatchRowMirrorsEqual(t *testing.T) {
	vals := colTestVals()
	groups := map[string][]Value{"mixed": vals}
	for _, v := range vals {
		key := fmt.Sprintf("uniform-kind%d", v.Kind)
		groups[key] = append(groups[key], v)
	}
	for name, cells := range groups {
		order := make([]*Tuple, len(cells))
		for i, v := range cells {
			order[i] = &Tuple{Vals: []Value{v}, Seq: i}
		}
		fc := buildFrozenCols(order, 1)
		for i, cell := range cells {
			if got := fc.valueAt(0, i); !got.Equal(cell) && !(cell.Kind == KindFloat && math.IsNaN(cell.Flt)) {
				t.Fatalf("%s: valueAt(%d) = %#v, want %#v", name, i, got, cell)
			}
			for _, probe := range vals {
				got := fc.cols[0].matchRow(fc.strs, i, probe)
				want := cell.Equal(probe)
				if got != want {
					t.Fatalf("%s: matchRow(cell %#v, probe %#v) = %v, Value.Equal = %v", name, cell, probe, got, want)
				}
			}
		}
	}
}

// randomOverlay builds a relation in a random overlay state: a core sealed
// in one to four rounds (so one to three segments, with tombstones), a
// private tail, and random deletions on both sides.
func randomOverlay(rng *rand.Rand) *Relation {
	schema := NewSchema()
	if _, err := schema.AddRelation("R", "r", "a", "b", "c"); err != nil {
		panic(err)
	}
	db := NewDatabase(schema)
	rel := db.Relation("R")
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
			db.MustInsert("R", pick(), pick(), pick())
		}
		for _, tp := range rel.Tuples() {
			if rng.Intn(5) == 0 {
				rel.DeleteTuple(tp)
			}
		}
	}
	for round, rounds := 0, 1+rng.Intn(4); round < rounds; round++ {
		mutate(40)
		db.Freeze()
	}
	mutate(20)
	return rel
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

// TestBatchAPIsMatchRowReference: on random overlay states, Lookup,
// LookupEach, ScanChecked, and ScanRuns — which evaluate checks on the
// segments' column vectors and stream index buckets — must yield exactly
// the sequences the row-oriented reference yields: Scan filtered with
// Value.Equal / checksMatchTuple on the tuples themselves, sorted by Seq
// for lookups. Along the way every sealed row's frozenCols.match must
// agree with checksMatchTuple on its tuple.
func TestBatchAPIsMatchRowReference(t *testing.T) {
	probes := colTestVals()
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rel := randomOverlay(rng)

		scan := func() (out []*Tuple) {
			rel.Scan(func(tp *Tuple) bool { out = append(out, tp); return true })
			return
		}
		runs := func() (out []*Tuple) {
			rel.ScanRuns(func(run []*Tuple) bool {
				if len(run) == 0 {
					t.Fatalf("trial %d: ScanRuns yielded an empty run", trial)
				}
				out = append(out, run...)
				return true
			})
			return
		}
		each := func(col int, v Value, checks []ColCheck) (out []*Tuple) {
			rel.LookupEach(col, v, checks, func(tp *Tuple) bool { out = append(out, tp); return true })
			return
		}
		checked := func(checks []ColCheck) (out []*Tuple) {
			rel.ScanChecked(checks, func(tp *Tuple) bool { out = append(out, tp); return true })
			return
		}
		filter := func(in []*Tuple, checks []ColCheck) (out []*Tuple) {
			for _, tp := range in {
				if checksMatchTuple(tp, checks) {
					out = append(out, tp)
				}
			}
			return
		}

		if got := runs(); !sameTuples(got, scan()) {
			t.Fatalf("trial %d: ScanRuns order diverged from Scan", trial)
		}

		for p := 0; p < 12; p++ {
			col := rng.Intn(3)
			v := probes[rng.Intn(len(probes))]
			var checks []ColCheck
			for len(checks) < rng.Intn(3) {
				checks = append(checks, ColCheck{Col: rng.Intn(3), Val: probes[rng.Intn(len(probes))]})
			}

			rowLookup := filter(scan(), []ColCheck{{Col: col, Val: v}})
			sort.SliceStable(rowLookup, func(i, j int) bool { return rowLookup[i].Seq < rowLookup[j].Seq })
			if got := rel.Lookup(col, v); !sameTuples(got, rowLookup) {
				t.Fatalf("trial %d probe %d: Lookup(%d, %#v) = %d tuples, row reference %d", trial, p, col, v, len(got), len(rowLookup))
			}
			if got := rel.LookupCount(col, v); got != len(rowLookup) {
				t.Fatalf("trial %d probe %d: LookupCount(%d, %#v) = %d, row reference %d", trial, p, col, v, got, len(rowLookup))
			}
			if got := each(col, v, checks); !sameTuples(got, filter(rowLookup, checks)) {
				t.Fatalf("trial %d probe %d: LookupEach(%d, %#v, %v) diverged from the row reference", trial, p, col, v, checks)
			}
			if got := checked(checks); !sameTuples(got, filter(scan(), checks)) {
				t.Fatalf("trial %d probe %d: ScanChecked(%v) diverged from Scan+filter", trial, p, checks)
			}
			if fz := rel.frozen; fz != nil {
				for _, seg := range fz.segs {
					fc := seg.columnar()
					for pos, tp := range seg.order {
						if fc.match(pos, checks) != checksMatchTuple(tp, checks) {
							t.Fatalf("trial %d probe %d: frozenCols.match(%d, %v) disagrees with checksMatchTuple on %s", trial, p, pos, checks, tp)
						}
					}
				}
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
