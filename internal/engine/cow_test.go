package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// cowSchema builds the two-relation schema the CoW tests share.
func cowSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()
	if _, err := s.AddRelation("R", "r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRelation("S", "s", "x", "y"); err != nil {
		t.Fatal(err)
	}
	return s
}

// cowDB builds a database with n R-rows and n/2 S-rows of varied values.
func cowDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase(cowSchema(t))
	for i := 0; i < n; i++ {
		db.MustInsert("R", Int(i%7), Str(fmt.Sprintf("v%d", i%5)))
		if i%2 == 0 {
			db.MustInsert("S", Int(i%3), Int(i))
		}
	}
	return db
}

// observe renders every observable facet of a relation into one string:
// length, iteration order, per-column lookups over a value sample, lookup
// counts, and key-based membership. Tuples print as key#seq/id — all
// deterministic across a fork and a deep clone fed identical mutation
// streams (fresh inserts intern distinct TupleIDs on each side, so TIDs
// are deliberately not part of the observation). Two relations with equal
// observations are indistinguishable through the public API.
func observe(r *Relation) string {
	var b bytes.Buffer
	name := func(t *Tuple) string { return fmt.Sprintf("%s#%d/%s", t.Key(), t.Seq, t.ID) }
	fmt.Fprintf(&b, "len=%d\n", r.Len())
	r.Scan(func(t *Tuple) bool {
		b.WriteString(name(t))
		b.WriteByte(' ')
		return true
	})
	b.WriteByte('\n')
	for col := 0; col < r.Arity; col++ {
		for _, v := range []Value{Int(0), Int(1), Int(2), Int(4), Int(6), Str("v0"), Str("v3")} {
			fmt.Fprintf(&b, "c%d/%s:%d[", col, v, r.LookupCount(col, v))
			for _, t := range r.Lookup(col, v) {
				b.WriteString(name(t))
				b.WriteByte(' ')
			}
			b.WriteString("] ")
		}
		b.WriteByte('\n')
	}
	for _, k := range r.Keys() {
		if t := r.Get(k); t == nil {
			fmt.Fprintf(&b, "MISSING %s\n", k)
		}
	}
	return b.String()
}

// observeDB renders base and delta observations for every relation.
func observeDB(db *Database) string {
	var b bytes.Buffer
	for _, rs := range db.Schema.Relations {
		fmt.Fprintf(&b, "== %s base ==\n%s== %s delta ==\n%s",
			rs.Name, observe(db.Relation(rs.Name)), rs.Name, observe(db.Delta(rs.Name)))
	}
	return b.String()
}

// TestForkDifferentialModel is the model-based differential test for the
// copy-on-write fork: a fork and a deep clone of the same frozen state
// receive an identical randomized interleaved stream of inserts and
// deletes (hitting frozen tuples, tail tuples, duplicate content, and
// re-insertions) and must stay byte-identical through every public
// observation; meanwhile the parent receives its own mutation stream and
// must never see the fork's changes, nor the fork the parent's — mutation
// isolation in both directions. Runs under -race in CI.
func TestForkDifferentialModel(t *testing.T) {
	for _, n := range []int{10, 60, 300} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := cowDB(t, n)
				parentBefore := observeDB(db)
				snap := db.Freeze()
				if got := observeDB(db); got != parentBefore {
					t.Fatalf("Freeze changed the parent's observable state:\n%s\nvs\n%s", got, parentBefore)
				}
				fork := snap.Fork()
				clone := db.Clone() // deep, flat: the reference behaviour

				// Pools of tuples the mutation stream draws from.
				frozen := append(db.Relation("R").Tuples(), db.Relation("S").Tuples()...)
				var inserted []*Tuple

				step := func(target, ref *Database) {
					rel := "R"
					if rng.Intn(3) == 0 {
						rel = "S"
					}
					switch op := rng.Intn(10); {
					case op < 3: // insert fresh content
						v1, v2 := Int(rng.Intn(9)), Int(1000+rng.Intn(2*n))
						a, err := target.Insert(rel, v1, v2)
						if err != nil {
							t.Fatal(err)
						}
						if ref != nil {
							if _, err := ref.Insert(rel, v1, v2); err != nil {
								t.Fatal(err)
							}
						}
						inserted = append(inserted, a)
					case op < 5: // delete a frozen-base tuple
						tp := frozen[rng.Intn(len(frozen))]
						got := target.Relation(tp.Rel).DeleteTuple(tp)
						if got {
							target.Delta(tp.Rel).Insert(tp)
						}
						if ref != nil {
							want := ref.Relation(tp.Rel).DeleteTuple(tp)
							if want {
								ref.Delta(tp.Rel).Insert(tp)
							}
							if got != want {
								t.Fatalf("DeleteTuple(%s) fork=%v clone=%v", tp, got, want)
							}
						}
					case op < 7 && len(inserted) > 0: // delete tail content by key
						// The fork and the clone mint distinct tuple objects
						// for the same inserted content, so tail deletion is
						// mirrored by content key, not object identity.
						tp := inserted[rng.Intn(len(inserted))]
						got := target.Relation(tp.Rel).Delete(tp.Key())
						if ref != nil {
							want := ref.Relation(tp.Rel).Delete(tp.Key())
							if got != want {
								t.Fatalf("tail Delete(%q) fork=%v clone=%v", tp.Key(), got, want)
							}
						}
					case op < 8: // re-insert a frozen tuple object (same TID)
						tp := frozen[rng.Intn(len(frozen))]
						got := target.Relation(tp.Rel).Insert(tp)
						if ref != nil {
							want := ref.Relation(tp.Rel).Insert(tp)
							if got != want {
								t.Fatalf("re-Insert(%s) fork=%v clone=%v", tp, got, want)
							}
						}
					case op < 9: // duplicate content under a fresh object
						tp := frozen[rng.Intn(len(frozen))]
						fresh := &Tuple{Rel: tp.Rel, Vals: tp.Vals}
						fresh.Seq = tp.Seq
						got := target.Relation(tp.Rel).Insert(fresh)
						if ref != nil {
							want := ref.Relation(tp.Rel).Insert(fresh)
							if got != want {
								t.Fatalf("dup Insert(%s) fork=%v clone=%v", tp, got, want)
							}
						}
					default: // key-based delete
						tp := frozen[rng.Intn(len(frozen))]
						got := target.Relation(tp.Rel).Delete(tp.Key())
						if ref != nil {
							want := ref.Relation(tp.Rel).Delete(tp.Key())
							if got != want {
								t.Fatalf("Delete(%q) fork=%v clone=%v", tp.Key(), got, want)
							}
						}
					}
				}

				// Interleave: fork+clone get the same stream; the parent a
				// private one. Deletion volume intentionally crosses the
				// materialize threshold for the small sizes.
				steps := 4 * n
				for i := 0; i < steps; i++ {
					step(fork, clone)
					if i%3 == 0 {
						step(db, nil)
					}
					if i%16 == 0 {
						if got, want := observeDB(fork), observeDB(clone); got != want {
							t.Fatalf("step %d: fork diverged from clone:\n%s\nvs\n%s", i, got, want)
						}
					}
				}
				if got, want := observeDB(fork), observeDB(clone); got != want {
					t.Fatalf("final: fork diverged from clone:\n%s\nvs\n%s", got, want)
				}

				// Both directions of isolation: a fresh fork of the same
				// snapshot still observes the original frozen state even
				// though both the parent and the sibling fork mutated.
				if got := observeDB(snap.Fork()); got != parentBefore {
					t.Fatalf("snapshot state leaked mutations:\n%s\nvs\n%s", got, parentBefore)
				}
			})
		}
	}
}

// TestForkSharedWarmIndexes asserts what concurrent requests rely on: sibling
// forks of one snapshot share warm index pages, and forking does not
// rebuild indexes for untouched relations. The frozen index is built at
// most once per (snapshot, column) — either donated by the frozen
// database or built by the first fork to probe — and every later fork
// reads the identical bucket map.
func TestForkSharedWarmIndexes(t *testing.T) {
	db := cowDB(t, 200)
	db.Relation("R").EnsureIndex(0) // warm before freezing
	snap := db.Freeze()

	fzR := snap.base["R"].segs[0]
	idx0 := fzR.indexes.Load()
	if idx0 == nil {
		t.Fatal("freeze did not donate the warm index to the frozen core")
	}
	warm := (*idx0)[0]
	if warm == nil {
		t.Fatal("frozen core missing the pre-warmed column-0 index")
	}

	fork1, fork2 := snap.Fork(), snap.Fork()
	if len(fork1.Relation("R").Lookup(0, Int(3))) == 0 {
		t.Fatal("fork1 lookup empty")
	}
	if len(fork2.Relation("R").Lookup(0, Int(3))) == 0 {
		t.Fatal("fork2 lookup empty")
	}
	after := fzR.indexes.Load()
	if got := (*after)[0]; fmt.Sprintf("%p", got) != fmt.Sprintf("%p", warm) {
		t.Fatal("fork lookups rebuilt the column-0 index instead of sharing the warm one")
	}

	// A column no fork has touched: the first probing fork builds it once
	// on the shared core; the second reads the identical map.
	if fork1.Relation("R").LookupCount(1, Str("v1")) == 0 {
		t.Fatal("fork1 col-1 lookup empty")
	}
	built := (*fzR.indexes.Load())[1]
	if built == nil {
		t.Fatal("first probe did not publish the shared col-1 index")
	}
	if fork2.Relation("R").LookupCount(1, Str("v1")) == 0 {
		t.Fatal("fork2 col-1 lookup empty")
	}
	if got := (*fzR.indexes.Load())[1]; fmt.Sprintf("%p", got) != fmt.Sprintf("%p", built) {
		t.Fatal("second fork rebuilt the col-1 index instead of sharing it")
	}

	// Untouched relation S: forking it allocated no index at all.
	if fork1.Relation("S").indexes != nil || fork2.Relation("S").indexes != nil {
		t.Fatal("fork allocated tail indexes for an untouched relation")
	}
	if snap.base["S"].segs[0].indexes.Load() != nil {
		t.Fatal("frozen core built an index nobody asked for")
	}
}

// TestFreezeIdempotentAndCached: freezing an unmodified database (or a
// pristine fork) returns the cached snapshot without copying; mutating
// then refreezing mints a new snapshot that reflects the mutation while
// sharing cores of untouched relations.
func TestFreezeIdempotentAndCached(t *testing.T) {
	db := cowDB(t, 50)
	s1 := db.Freeze()
	if s2 := db.Freeze(); s2 != s1 {
		t.Fatal("refreezing an unmodified database minted a new snapshot")
	}
	fork := s1.Fork()
	if s3 := fork.Freeze(); s3 != s1 {
		t.Fatal("freezing a pristine fork did not share the parent snapshot")
	}

	// Diverge R on the fork, leave S untouched: the refreeze must mint a
	// new snapshot, share S's core, and replace R's.
	victim := fork.Relation("R").Tuples()[0]
	if !fork.DeleteTupleToDelta(victim) {
		t.Fatal("delete failed")
	}
	s4 := fork.Freeze()
	if s4 == s1 {
		t.Fatal("freezing a diverged fork returned the stale snapshot")
	}
	if s4.base["S"] != s1.base["S"] {
		t.Fatal("refreeze copied the core of an untouched relation")
	}
	if s4.base["R"] == s1.base["R"] {
		t.Fatal("refreeze shared the core of a diverged relation")
	}
	if got, want := s4.Fork().Relation("R").Len(), db.Relation("R").Len()-1; got != want {
		t.Fatalf("refrozen R length = %d, want %d", got, want)
	}
	// The original snapshot still serves the pre-mutation state.
	if got := s1.Fork().Relation("R").Len(); got != db.Relation("R").Len() {
		t.Fatalf("original snapshot R length = %d, want %d", got, db.Relation("R").Len())
	}
}

// TestSnapshotSaveLoadForked is the regression test for snapshot
// persistence of forked databases: Save must flatten the overlay (frozen
// base minus this fork's deletions plus its tail) and round-trip through
// LoadSnapshot byte-identically, including delta contents, warm index
// columns, and ID-minting state.
func TestSnapshotSaveLoadForked(t *testing.T) {
	db := cowDB(t, 40)
	db.Relation("R").EnsureIndex(1)
	snap := db.Freeze()
	fork := snap.Fork()

	// Diverge the fork: delete two frozen tuples, insert one new one.
	tuples := fork.Relation("R").Tuples()
	for _, tp := range []*Tuple{tuples[3], tuples[17]} {
		if !fork.DeleteTupleToDelta(tp) {
			t.Fatalf("delete %s failed", tp)
		}
	}
	added := fork.MustInsert("R", Int(99), Str("fresh"))

	var buf bytes.Buffer
	if err := fork.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, rel := range []string{"R", "S"} {
		wantBase, gotBase := fork.Relation(rel).Keys(), loaded.Relation(rel).Keys()
		if fmt.Sprint(wantBase) != fmt.Sprint(gotBase) {
			t.Fatalf("%s base mismatch after round-trip:\n%v\nvs\n%v", rel, gotBase, wantBase)
		}
		wantDelta, gotDelta := fork.Delta(rel).Keys(), loaded.Delta(rel).Keys()
		if fmt.Sprint(wantDelta) != fmt.Sprint(gotDelta) {
			t.Fatalf("%s delta mismatch after round-trip:\n%v\nvs\n%v", rel, gotDelta, wantDelta)
		}
	}
	if got := loaded.Relation("R").Get(added.Key()); got == nil || got.ID != added.ID {
		t.Fatalf("tail tuple %s did not round-trip (got %v)", added, got)
	}
	if got := fmt.Sprint(loaded.Relation("R").IndexedColumns()); got != fmt.Sprint(fork.Relation("R").IndexedColumns()) {
		t.Fatalf("warm index columns did not round-trip: %s vs %v", got, fork.Relation("R").IndexedColumns())
	}
	// ID minting continues identically on both sides.
	a, b := fork.MustInsert("R", Int(5), Str("post")), loaded.MustInsert("R", Int(5), Str("post"))
	if a.ID != b.ID || a.Seq != b.Seq {
		t.Fatalf("minting diverged after round-trip: fork %s/seq%d, loaded %s/seq%d", a.ID, a.Seq, b.ID, b.Seq)
	}
	// The parent and snapshot remain untouched by all of the above.
	if got := snap.Fork().Relation("R").Len(); got != db.Relation("R").Len() {
		t.Fatalf("snapshot mutated: R length %d, want %d", got, db.Relation("R").Len())
	}
}

// TestForkConcurrentReaders: many goroutines fork one snapshot and probe
// unbuilt indexes and intern maps concurrently — the lazy shared builds
// must be race-free (meaningful under -race, which CI runs).
func TestForkConcurrentReaders(t *testing.T) {
	db := cowDB(t, 300)
	snap := db.Freeze()
	done := make(chan string, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			fork := snap.Fork()
			total := 0
			for col := 0; col < 2; col++ {
				for i := 0; i < 9; i++ {
					total += fork.Relation("R").LookupCount(col, Int(i))
					total += len(fork.Relation("S").Lookup(col, Int(i)))
				}
			}
			if !fork.Relation("R").Contains(ContentKey("R", []Value{Int(1), Str("v1")})) {
				done <- "missing key"
				return
			}
			tp := fork.Relation("R").Tuples()[g]
			if !fork.DeleteTupleToDelta(tp) {
				done <- "delete failed"
				return
			}
			done <- fmt.Sprintf("%d/%d", total, fork.Relation("R").Len())
		}(g)
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Fatalf("goroutine observations diverged: %s vs %s", got, first)
		}
	}
}
