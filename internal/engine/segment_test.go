package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The segment structure is unobservable: a seeded random walk drives one
// lineage of copy-on-write databases — forks sealed again and again, so
// every compaction tier fires many times — next to a plain Database that
// is never frozen (one flat relation per name, the model the overlay
// machinery must be indistinguishable from) fed the same history, and
// compares every read after every step.

// sameRow reports whether two tuples of the two lineages are the same row:
// the lineages mint their own tuple objects, so identity is the minted ID,
// the insertion sequence and the content.
func sameRow(a, b *Tuple) bool { return a.ID == b.ID && a.Seq == b.Seq && a.Key() == b.Key() }

func sameRows(a, b []*Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkRelation compares every read of got (an overlay of sealed segments)
// with want (flat): Len, Scan and ScanRuns order, Lookup, LookupEach and
// LookupCount per value on the first cols columns, and identity lookups for
// every live tuple.
func checkRelation(t *testing.T, tag string, got, want *Relation, cols int, domain []Value) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, model %d", tag, got.Len(), want.Len())
	}
	scan := got.Tuples()
	if !sameRows(scan, want.Tuples()) {
		t.Fatalf("%s: Scan order diverged from the model", tag)
	}
	var runs []*Tuple
	got.ScanRuns(func(run []*Tuple) bool {
		if len(run) == 0 {
			t.Fatalf("%s: ScanRuns yielded an empty run", tag)
		}
		runs = append(runs, run...)
		return true
	})
	if !sameTuples(runs, scan) {
		t.Fatalf("%s: ScanRuns order diverged from Scan", tag)
	}
	for _, tp := range scan {
		if !got.ContainsID(tp.TID) || got.GetID(tp.TID) != tp || got.Get(tp.Key()) != tp {
			t.Fatalf("%s: %s not visible by ID and by key", tag, tp)
		}
	}
	for col := 0; col < cols; col++ {
		for _, v := range domain {
			have := got.Lookup(col, v)
			if !sameRows(have, want.Lookup(col, v)) {
				t.Fatalf("%s: Lookup(%d, %s) diverged from the model", tag, col, v)
			}
			for j := 1; j < len(have); j++ {
				if have[j-1].Seq > have[j].Seq {
					t.Fatalf("%s: Lookup(%d, %s) not Seq-ascending", tag, col, v)
				}
			}
			if n := got.LookupCount(col, v); n != len(have) {
				t.Fatalf("%s: LookupCount(%d, %s) = %d, Lookup %d", tag, col, v, n, len(have))
			}
			var each []*Tuple
			got.LookupEach(col, v, func(tp *Tuple) bool { each = append(each, tp); return true })
			if !sameTuples(each, have) {
				t.Fatalf("%s: LookupEach(%d, %s) diverged from Lookup", tag, col, v)
			}
		}
	}
}

// segmentWalk is the state of one walk: cur is the working database of the
// copy-on-write lineage, ref the flat model, versions the snapshots the
// walk has sealed so far with the content each must keep reading.
type segmentWalk struct {
	t        *testing.T
	rng      *rand.Rand
	cur, ref *Database
	versions []walkVersion
	dead     []string // content keys deleted at some point (may be live again)
	fresh    int      // counter behind never-seen-before values

	cold                        bool // column R.c not probed yet
	folds, spills, threeSegment int
}

type walkVersion struct {
	snap *Snapshot
	rows [][]*Tuple // the model's rows at seal time, per sidesOf
}

// sidesOf lists the relations of a database, base then delta per name.
func sidesOf(db *Database) (out []*Relation) {
	for _, name := range walkRels {
		out = append(out, db.Relation(name), db.Delta(name))
	}
	return out
}

var walkRels = []string{"R", "S"}

func (w *segmentWalk) rel() string {
	if w.rng.Intn(4) == 0 {
		return "S"
	}
	return "R"
}

// vals draws a row for rel: mostly never-seen content, sometimes a repeat.
func (w *segmentWalk) vals(rel string) []Value {
	w.fresh++
	n := w.fresh
	if w.rng.Intn(6) == 0 {
		n = 1 + w.rng.Intn(w.fresh)
	}
	if rel == "S" {
		return []Value{Int(n % 5), Int(n)}
	}
	return []Value{Int(n % 9), Int(n), Str(fmt.Sprintf("c%d", n%4))}
}

// live picks a live tuple of rel in the working database, or nil.
func (w *segmentWalk) live(rel string) *Tuple {
	tuples := w.cur.Relation(rel).Tuples()
	if len(tuples) == 0 {
		return nil
	}
	return tuples[w.rng.Intn(len(tuples))]
}

// domain is the probe set: the low-cardinality values of the first column,
// a miss, and the second-column values of a few rows (dead or alive).
func (w *segmentWalk) domain() []Value {
	d := []Value{Int(0), Int(3), Int(7), Int(-1), Str("c1")}
	for i := 0; i < 3; i++ {
		d = append(d, Int(1+w.rng.Intn(w.fresh)))
	}
	return d
}

// seal freezes the working database and records which tiers fired.
func (w *segmentWalk) seal() *Snapshot {
	before := make(map[string]*frozenRel)
	for _, name := range walkRels {
		before[name] = w.cur.Relation(name).frozen
	}
	snap := w.cur.Freeze()
	w.tiers(before, snap)
	return snap
}

// tiers classifies what a seal did to each base relation by which of the
// previous core's segments survived it by pointer.
func (w *segmentWalk) tiers(before map[string]*frozenRel, snap *Snapshot) {
	for _, name := range walkRels {
		old, core := before[name], snap.base[name]
		if len(core.segs) > maxSegments {
			w.t.Fatalf("%s carries %d sealed segments", name, len(core.segs))
		}
		if old == core || old == nil || len(old.segs) == 0 || len(core.segs) == 0 {
			continue
		}
		switch {
		case core.segs[0] != old.segs[0]:
			w.folds++
		case len(old.segs) > 1 && len(core.segs) > 1 && core.segs[1] != old.segs[1]:
			w.spills++
		}
		if len(core.segs) == maxSegments {
			w.threeSegment++
		}
	}
}

func (w *segmentWalk) record(snap *Snapshot) {
	v := walkVersion{snap: snap}
	for _, r := range sidesOf(w.ref) {
		v.rows = append(v.rows, r.Tuples())
	}
	w.versions = append(w.versions, v)
}

// step applies one random operation to both lineages.
func (w *segmentWalk) step() {
	t, rel := w.t, w.rel()
	r, m := w.cur.Relation(rel), w.ref.Relation(rel)
	switch op := w.rng.Intn(100); {
	case op < 22: // insert
		vals := w.vals(rel)
		a, b := w.cur.MustInsert(rel, vals...), w.ref.MustInsert(rel, vals...)
		if !sameRow(a, b) {
			t.Fatalf("Insert minted %s, model %s", a, b)
		}
	case op < 36: // delete by ID
		if tp := w.live(rel); tp != nil {
			if !r.DeleteID(tp.TID) || !m.Delete(tp.Key()) {
				t.Fatalf("DeleteID(%s) failed", tp)
			}
			w.dead = append(w.dead, tp.Key())
		}
	case op < 46: // delete into the delta relation
		if tp := w.live(rel); tp != nil {
			if !w.cur.DeleteTupleToDelta(tp) || !w.ref.DeleteToDelta(tp.Key()) {
				t.Fatalf("DeleteTupleToDelta(%s) failed", tp)
			}
			w.dead = append(w.dead, tp.Key())
		}
	case op < 56: // delete by key: live, or deleted before (maybe live again)
		key := ""
		if tp := w.live(rel); tp != nil && w.rng.Intn(2) == 0 {
			key = tp.Key()
			w.dead = append(w.dead, key)
		} else if len(w.dead) > 0 {
			key = w.dead[w.rng.Intn(len(w.dead))]
			rel, _ = relOfKey(key)
			r, m = w.cur.Relation(rel), w.ref.Relation(rel)
		}
		if got, want := r.Delete(key), m.Delete(key); got != want {
			t.Fatalf("Delete(%q) = %v, model %v", key, got, want)
		}
	case op < 64: // delete, then re-insert the same tuple object
		if tp := w.live(rel); tp != nil {
			mt := m.Get(tp.Key())
			if !r.DeleteTuple(tp) || !m.DeleteTuple(mt) || !r.Insert(tp) || !m.Insert(mt) {
				t.Fatalf("delete+reinsert of %s failed", tp)
			}
		}
	case op < 74: // freeze the (usually diverged) fork and keep working on it
		w.record(w.seal())
	case op < 80: // ... or on a fork of it
		snap := w.seal()
		w.record(snap)
		w.cur = snap.Fork()
	default: // Apply a batch to the sealed state
		w.apply()
	}
}

// apply seals the working database, runs one Snapshot.Apply on it — most
// batches touch one relation only — and continues on a fork of the result.
func (w *segmentWalk) apply() {
	t := w.t
	snap := w.seal()
	var ins, del []Row
	rels := []string{w.rel()}
	if w.rng.Intn(4) == 0 {
		rels = walkRels
	}
	for _, rel := range rels {
		for i, n := 0, w.rng.Intn(7); i < n; i++ {
			if tp := w.live(rel); tp != nil {
				del = append(del, Row{Rel: rel, Vals: tp.Vals})
			}
		}
		for i, n := 0, w.rng.Intn(7); i < n; i++ {
			ins = append(ins, Row{Rel: rel, Vals: w.vals(rel)})
		}
	}

	// The first Apply over three sealed segments of R runs beside forks
	// probing R's third column — cold on every segment until now — and its
	// intern maps: three lazy builds per structure race across goroutines
	// and with Apply's own key lookups.
	var wg sync.WaitGroup
	probe := w.cold && len(snap.base["R"].segs) == maxSegments
	if probe {
		w.cold = false
		want := w.ref.Relation("R").LookupCount(2, Str("c1"))
		key := w.ref.Relation("R").Keys()[0]
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fork := snap.Fork().Relation("R")
				if got := fork.LookupCount(2, Str("c1")); got != want {
					t.Errorf("concurrent cold probe counted %d, model %d", got, want)
				}
				if !fork.Contains(key) {
					t.Errorf("concurrent key lookup missed %s", key)
				}
			}()
		}
	}
	next, info, err := snap.Apply(ins, del)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	inserted, deleted := 0, 0
	for _, row := range del {
		if w.ref.Relation(row.Rel).Delete(ContentKey(row.Rel, row.Vals)) {
			deleted++
			w.dead = append(w.dead, ContentKey(row.Rel, row.Vals))
		}
	}
	for _, row := range ins {
		before := w.ref.Relation(row.Rel).Len()
		w.ref.MustInsert(row.Rel, row.Vals...)
		inserted += w.ref.Relation(row.Rel).Len() - before
	}
	if info.Inserted != inserted || info.Deleted != deleted {
		t.Fatalf("Apply reported %d inserts / %d deletes, model %d / %d", info.Inserted, info.Deleted, inserted, deleted)
	}
	if info.RowsSealed < info.Inserted || info.RowsCompacted > info.RowsSealed {
		t.Fatalf("Apply sealed %d rows (%d compacted) for %d inserts", info.RowsSealed, info.RowsCompacted, info.Inserted)
	}
	changed := make(map[string]bool)
	for _, rel := range info.Changed {
		changed[rel] = true
	}
	for _, name := range walkRels {
		if !changed[name] && next.base[name] != snap.base[name] {
			t.Fatalf("Apply touching %v replaced the core of %s", info.Changed, name)
		}
		if next.delta[name] != snap.delta[name] {
			t.Fatalf("Apply replaced the delta core of %s", name)
		}
	}
	before := make(map[string]*frozenRel)
	for _, name := range walkRels {
		before[name] = snap.base[name]
	}
	w.tiers(before, next)
	w.record(next)
	w.cur = next.Fork()
	if probe {
		// Whether a segment Apply built saw the column warm depends on who
		// won the race; from here on it is warm on both sides.
		w.cur.Relation("R").EnsureIndex(2)
	}
}

// check compares the two lineages in full after a step.
func (w *segmentWalk) check(tag string) {
	t := w.t
	domain := w.domain()
	for _, name := range walkRels {
		for _, side := range []struct {
			kind      string
			got, want *Relation
		}{{"base", w.cur.Relation(name), w.ref.Relation(name)}, {"delta", w.cur.Delta(name), w.ref.Delta(name)}} {
			rtag := fmt.Sprintf("%s: %s %s", tag, name, side.kind)
			if fz := side.got.frozen; fz != nil {
				if len(fz.segs) > maxSegments {
					t.Fatalf("%s: %d sealed segments", rtag, len(fz.segs))
				}
				// Every column the previous check probed must have stayed
				// warm through whatever seal or compaction ran since.
				if got, want := fmt.Sprint(side.got.IndexedColumns()), fmt.Sprint(side.want.IndexedColumns()); len(fz.segs) > 0 && got != want {
					t.Fatalf("%s: warm columns %s, model %s", rtag, got, want)
				}
			}
			// R's third column stays unprobed until the concurrent cold
			// probe in apply.
			cols := side.got.Arity
			if name == "R" && w.cold {
				cols = 2
			}
			checkRelation(t, rtag, side.got, side.want, cols, domain)
		}
	}
	for _, key := range w.dead[max(len(w.dead)-8, 0):] {
		if got, want := w.cur.Lookup(key) != nil, w.ref.Lookup(key) != nil; got != want {
			t.Fatalf("%s: Lookup(%q) found=%v, model %v", tag, key, got, want)
		}
	}
	var got, want bytes.Buffer
	if err := w.cur.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := w.ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Save bytes differ from the model's", tag)
	}
}

// checkVersions re-reads the newest n sealed versions: each must still hold
// the content it was sealed with, whatever compaction later versions ran.
func (w *segmentWalk) checkVersions(n int) {
	for i := max(len(w.versions)-n, 0); i < len(w.versions); i++ {
		for j, r := range sidesOf(w.versions[i].snap.Fork()) {
			if !sameRows(r.Tuples(), w.versions[i].rows[j]) {
				w.t.Fatalf("sealed version %d of %d no longer reads its own %s", i, len(w.versions), r.Name)
			}
		}
	}
}

func TestSegmentsUnobservable(t *testing.T) {
	steps := 1200
	if testing.Short() {
		steps = 300
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			schema := NewSchema()
			schema.MustAddRelation("R", "r", "a", "b", "c")
			schema.MustAddRelation("S", "s", "x", "y")
			w := &segmentWalk{t: t, rng: rand.New(rand.NewSource(seed)), cur: NewDatabase(schema), ref: NewDatabase(schema), cold: true}
			// R is large enough for its fold threshold (an eighth) to sit
			// above recentRows, so recent spills before the base folds; S
			// is small and only ever folds.
			for i := 0; i < 1200; i++ {
				rel := "R"
				if i%8 == 0 {
					rel = "S"
				}
				vals := w.vals(rel)
				w.cur.MustInsert(rel, vals...)
				w.ref.MustInsert(rel, vals...)
			}
			w.record(w.cur.Freeze())
			w.check("start")
			for i := 0; i < steps; i++ {
				w.step()
				w.check(fmt.Sprintf("step %d", i))
				if i%64 == 0 {
					w.checkVersions(6)
				}
			}
			w.checkVersions(len(w.versions))
			t.Logf("%d versions, %d folds, %d spills, %d seals left three segments", len(w.versions), w.folds, w.spills, w.threeSegment)
			if !testing.Short() && (w.folds < 5 || w.spills < 5 || w.threeSegment < 20 || w.cold) {
				t.Fatalf("walk too tame: %d folds, %d spills, %d three-segment seals, cold column probed: %v", w.folds, w.spills, w.threeSegment, !w.cold)
			}
		})
	}
}

// TestRecentCapScalesWithBase pins the spill threshold above its floor:
// over a 20 000-row base recent holds √(20 000/8) = 50 rows. Single-row
// inserts seal a one-row middle, then a recent that each later seal
// rewrites with its row; the seal that would take recent past 50 rows
// spills it into middle instead — and reads stay what a flat database
// gives.
func TestRecentCapScalesWithBase(t *testing.T) {
	const n = 20_000
	if got := recentCap(n); got != 50 {
		t.Fatalf("recentCap(%d) = %d, want 50", n, got)
	}
	if got := recentCap(1200); got != recentRows {
		t.Fatalf("recentCap(1200) = %d, want the floor %d", got, recentRows)
	}
	schema := NewSchema()
	schema.MustAddRelation("R", "r", "a", "b")
	db, ref := NewDatabase(schema), NewDatabase(schema)
	for i := 0; i < n; i++ {
		db.MustInsert("R", Int(i), Int(i%7))
		ref.MustInsert("R", Int(i), Int(i%7))
	}
	snap := db.Freeze()
	for i := 0; i < 60; i++ {
		row := Row{Rel: "R", Vals: []Value{Int(n + i), Int(i % 7)}}
		next, info, err := snap.Apply([]Row{row}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref.MustInsert("R", row.Vals...)
		snap = next
		var lens []int
		for _, s := range snap.base["R"].segs[1:] {
			lens = append(lens, len(s.order))
		}
		want, spills := []int{1, i}, 0
		switch {
		case i == 0:
			want = []int{1}
		case i == 51:
			want, spills = []int{52}, 1
		case i > 51:
			want = []int{52, i - 51}
		}
		if !slices.Equal(lens, want) || info.Compactions != spills {
			t.Fatalf("insert %d: segments after the base hold %v rows with %d compactions, want %v with %d", i, lens, info.Compactions, want, spills)
		}
	}
	checkRelation(t, "after 60 inserts", snap.Fork().Relation("R"), ref.Relation("R"), 2, []Value{Int(3), Int(n + 55), Int(n + 99)})
}
