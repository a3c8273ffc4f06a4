package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
)

// warmInfo folds an ApplyInfo and the previous result into the WarmStart
// a serving layer would pass for the next request at the new version.
func warmInfo(prev *Result, info *engine.ApplyInfo) *WarmStart {
	return &WarmStart{
		PrevResult: prev,
		Inserted:   info.InsertedTuples,
		Deleted:    info.DeletedTuples,
	}
}

// exactKeys is the byte-identity comparison: Seq-ordered keys, valid when
// both results were computed on forks of the same snapshot lineage.
func exactKeys(res *Result) string { return fmt.Sprintf("%v", res.Keys()) }

// TestWarmEndDeleteContinuation: mixed insert/delete batches chain warm
// end-semantics runs through the DRed pipeline; every version's warm
// result is byte-identical to a cold run on the same lineage.
func TestWarmEndDeleteContinuation(t *testing.T) {
	_, db, prog, prep := warmFixture(t)
	snap := db.Freeze()
	prev, _, err := RunWith(snap.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}

	batches := []struct {
		name             string
		inserts, deletes []engine.Row
	}{
		{"delete violation root", nil,
			[]engine.Row{{Rel: "A", Vals: []engine.Value{engine.Int(7)}}}},
		{"mixed cascade", []engine.Row{
			{Rel: "A", Vals: []engine.Value{engine.Int(11)}},
			{Rel: "B", Vals: []engine.Value{engine.Int(11), engine.Int(1)}},
		}, []engine.Row{
			{Rel: "B", Vals: []engine.Value{engine.Int(6), engine.Int(0)}},
		}},
		{"delete support edge", nil,
			[]engine.Row{{Rel: "B", Vals: []engine.Value{engine.Int(11), engine.Int(1)}}}},
		{"replace a row", []engine.Row{
			{Rel: "A", Vals: []engine.Value{engine.Int(6)}},
		}, []engine.Row{
			{Rel: "A", Vals: []engine.Value{engine.Int(6)}},
		}},
	}
	for _, b := range batches {
		next, info, err := snap.Apply(b.inserts, b.deletes)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if info.InsertOnly() {
			t.Fatalf("%s: batch should contain effective deletes", b.name)
		}
		cold, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s cold: %v", b.name, err)
		}
		got, repaired, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warmInfo(prev, info)})
		if err != nil {
			t.Fatalf("%s warm: %v", b.name, err)
		}
		if exactKeys(got) != exactKeys(cold) {
			t.Fatalf("%s: warm %s != cold %s", b.name, exactKeys(got), exactKeys(cold))
		}
		if stable, err := CheckStableP(repaired, prep); err != nil || !stable {
			t.Fatalf("%s: warm-repaired fork not stable (err=%v)", b.name, err)
		}
		// The pipeline continues the previous fixpoint instead of
		// recomputing: with no inserted tuples there is no new frontier,
		// so a delete-only continuation derives zero rounds while the
		// cold run pays the full derivation depth. (Mixed batches may
		// legitimately cascade as deep as the cold run.)
		if info.DeleteOnly() && got.Rounds != 0 {
			t.Errorf("%s: delete-only warm run derived %d rounds, want 0 (cold took %d)",
				b.name, got.Rounds, cold.Rounds)
		}
		snap, prev = next, got
	}
}

// TestWarmEndDeleteAlternativeSupport: an over-deleted tuple with a
// surviving alternative derivation is revived by the re-derive phase
// rather than lost — the classic case derivation counting gets right and
// naive over-deletion gets wrong.
func TestWarmEndDeleteAlternativeSupport(t *testing.T) {
	snap, prog, prep := altSupportFixture(t)
	prev, _, err := RunWith(snap.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Size() != 3 { // A(6), A(7), C(0) — C(0) supported twice
		t.Fatalf("fixture fixpoint has %d tuples, want 3", prev.Size())
	}

	// Deleting A(7) invalidates one of C(0)'s two derivations; the other
	// (through A(6)) survives, so C(0) must stay in the repair.
	next, info, err := snap.Apply(nil, []engine.Row{{Rel: "A", Vals: []engine.Value{engine.Int(7)}}})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warmInfo(prev, info)})
	if err != nil {
		t.Fatal(err)
	}
	if exactKeys(got) != exactKeys(cold) {
		t.Fatalf("warm %s != cold %s", exactKeys(got), exactKeys(cold))
	}
	if got.Size() != 2 {
		t.Fatalf("repair has %d tuples, want 2 (A(6) and the revived C(0))", got.Size())
	}
	if got.Rounds != 0 {
		t.Errorf("delete-only continuation derived %d rounds, want 0", got.Rounds)
	}
}

// TestWarmEndDeleteCyclicSupport: tuples whose only remaining support is
// a derivation cycle must die with the cycle — the re-derive phase is a
// least fixpoint from below, so mutually supporting dead tuples cannot
// revive each other (the unsoundness that rules out pure counting for
// recursive programs).
func TestWarmEndDeleteCyclicSupport(t *testing.T) {
	snap, prog, prep := cyclicSupportFixture(t)
	prev, _, err := RunWith(snap.Fork(), prog, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Size() != 3 {
		t.Fatalf("fixture fixpoint has %d tuples, want all of N", prev.Size())
	}

	for _, tc := range []struct {
		name string
		del  engine.Row
		want int
	}{
		// Severing the edge into the cycle: N(3) stays bad, but N(1)/N(2)
		// lose their well-founded support and must not keep each other
		// alive through E(1,2)/E(2,1).
		{"cut cycle feed", engine.Row{Rel: "E", Vals: []engine.Value{engine.Int(1), engine.Int(3)}}, 1},
		// Deleting the bad root empties the fixpoint entirely.
		{"delete bad root", engine.Row{Rel: "Bad", Vals: []engine.Value{engine.Int(3)}}, 0},
	} {
		next, info, err := snap.Apply(nil, []engine.Row{tc.del})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cold, _, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s cold: %v", tc.name, err)
		}
		got, repaired, err := RunWith(next.Fork(), prog, SemEnd, Options{Prepared: prep, Warm: warmInfo(prev, info)})
		if err != nil {
			t.Fatalf("%s warm: %v", tc.name, err)
		}
		if exactKeys(got) != exactKeys(cold) {
			t.Fatalf("%s: warm %s != cold %s", tc.name, exactKeys(got), exactKeys(cold))
		}
		if got.Size() != tc.want {
			t.Fatalf("%s: repair has %d tuples, want %d", tc.name, got.Size(), tc.want)
		}
		if stable, err := CheckStableP(repaired, prep); err != nil || !stable {
			t.Fatalf("%s: warm-repaired fork not stable (err=%v)", tc.name, err)
		}
	}
}

// preparedFixture parses a schema and a program, prepares it, and freezes
// an instance filled by fill.
func preparedFixture(t *testing.T, schemaSrc, progSrc string, fill func(*engine.Database)) (*engine.Snapshot, *datalog.Program, *datalog.Prepared) {
	t.Helper()
	schema, err := engine.ParseSchema(schemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := datalog.ParseAndValidate(progSrc, schema)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(prog, schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	fill(db)
	return db.Freeze(), prog, prep
}

// altSupportFixture: C(0) is derived twice, through A(6) and through A(7).
func altSupportFixture(t *testing.T) (*engine.Snapshot, *datalog.Program, *datalog.Prepared) {
	return preparedFixture(t, "A(x)\nB(x, y)\nC(x)", `
		Delta_A(x) :- A(x), x > 5.
		Delta_C(y) :- C(y), B(x, y), Delta_A(x).
	`, func(db *engine.Database) {
		db.MustInsert("A", engine.Int(6))
		db.MustInsert("A", engine.Int(7))
		db.MustInsert("B", engine.Int(6), engine.Int(0))
		db.MustInsert("B", engine.Int(7), engine.Int(0))
		db.MustInsert("C", engine.Int(0))
	})
}

// cyclicSupportFixture: a recursive program where N(1) and N(2) form a
// support cycle and N(3) is the externally bad root that feeds the cycle
// through E(1, 3).
func cyclicSupportFixture(t *testing.T) (*engine.Snapshot, *datalog.Program, *datalog.Prepared) {
	return preparedFixture(t, "N(x)\nE(x, y)\nBad(x)", `
		Delta_N(x) :- N(x), Bad(x).
		Delta_N(x) :- N(x), E(x, y), Delta_N(y).
	`, func(db *engine.Database) {
		for i := 1; i <= 3; i++ {
			db.MustInsert("N", engine.Int(i))
		}
		db.MustInsert("E", engine.Int(1), engine.Int(2))
		db.MustInsert("E", engine.Int(2), engine.Int(1))
		db.MustInsert("E", engine.Int(1), engine.Int(3))
		db.MustInsert("Bad", engine.Int(3))
	})
}

// selfJoinFixture: the recursive rule also reads its head relation at a
// non-self base atom, so revival seeds candidates there too. N(1) is
// derived through both bad roots N(3) and N(4).
func selfJoinFixture(t *testing.T) (*engine.Snapshot, *datalog.Program, *datalog.Prepared) {
	return preparedFixture(t, "N(x)\nE(x, y)\nBad(x)", `
		Delta_N(x) :- N(x), Bad(x).
		Delta_N(x) :- N(x), E(x, y), N(y), Delta_N(y).
	`, func(db *engine.Database) {
		for i := 1; i <= 4; i++ {
			db.MustInsert("N", engine.Int(i))
		}
		db.MustInsert("E", engine.Int(1), engine.Int(3))
		db.MustInsert("E", engine.Int(1), engine.Int(4))
		db.MustInsert("Bad", engine.Int(3))
		db.MustInsert("Bad", engine.Int(4))
	})
}

// reviveSet is DRed's re-derive phase as a least fixpoint from below:
// starting from the surviving fixpoint, a candidate revives when some rule
// derives it over the live base and the survivors plus the revivals so far.
// With allBase the candidates are seeded at every base atom over their
// relations, as maintainEndFixpoint does; without it only at the rule's
// self atom. It returns the revived keys, sorted.
func reviveSet(t *testing.T, db *engine.Database, prep *datalog.Prepared, surv, cands []*engine.Tuple, allBase bool) []string {
	t.Helper()
	delta := slices.Clone(surv)
	left := make(map[engine.TupleID]*engine.Tuple, len(cands))
	for _, c := range cands {
		left[c.TID] = c
	}
	var revived []string
	for grew := true; grew; {
		grew = false
		view := groupByRelation(db.Schema, byRelation(delta))
		var pending []*engine.Tuple
		for _, c := range left {
			pending = append(pending, c)
		}
		seeds := groupByRelation(db.Schema, byRelation(pending))
		revive := func(asn *datalog.Assignment) bool {
			if h := asn.Head(); left[h.TID] != nil {
				delete(left, h.TID)
				delta = append(delta, h)
				revived = append(revived, h.Key())
				grew = true
			}
			return true
		}
		for _, pr := range prep.Rules {
			src := make([]datalog.AtomSource, len(pr.Rule.Body))
			for bi, a := range pr.Rule.Body {
				if a.Delta {
					src[bi] = datalog.AtomSource{view[a.Rel]}
				} else {
					src[bi] = datalog.AtomSource{db.Relation(a.Rel)}
				}
			}
			var err error
			if allBase {
				err = pr.EvalChangeSeeded(seeds, true, func(bi int) datalog.AtomSource { return src[bi] }, nil, revive)
			} else {
				src[pr.Rule.SelfIdx] = datalog.AtomSource{seeds[pr.Rule.Head.Rel]}
				err = datalog.EvalRule(pr.Rule, src, revive)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Strings(revived)
	return revived
}

// TestReviveSeedingAllBaseAtoms: seeding the revival candidates at every
// base atom over their relations revives exactly the set that seeding only
// the self atom revives, on the alternative-support, the recursive
// cyclic-support and the self-join fixtures. Survivors and candidates are
// what DRed's over-delete phase leaves after each deletion.
func TestReviveSeedingAllBaseAtoms(t *testing.T) {
	alt, altProg, altPrep := altSupportFixture(t)
	cyc, cycProg, cycPrep := cyclicSupportFixture(t)
	sj, sjProg, sjPrep := selfJoinFixture(t)
	for _, tc := range []struct {
		name        string
		snap        *engine.Snapshot
		prog        *datalog.Program
		prep        *datalog.Prepared
		del         engine.Row
		surv, cands []string
		want        []string
	}{
		{"alternative support", alt, altProg, altPrep,
			engine.Row{Rel: "A", Vals: []engine.Value{engine.Int(7)}},
			[]string{"A(i6)"}, []string{"C(i0)"}, []string{"C(i0)"}},
		{"cut cycle feed", cyc, cycProg, cycPrep,
			engine.Row{Rel: "E", Vals: []engine.Value{engine.Int(1), engine.Int(3)}},
			[]string{"N(i3)"}, []string{"N(i1)", "N(i2)"}, nil},
		{"delete bad root", cyc, cycProg, cycPrep,
			engine.Row{Rel: "Bad", Vals: []engine.Value{engine.Int(3)}},
			nil, []string{"N(i1)", "N(i2)", "N(i3)"}, nil},
		{"self join", sj, sjProg, sjPrep,
			engine.Row{Rel: "Bad", Vals: []engine.Value{engine.Int(4)}},
			[]string{"N(i3)"}, []string{"N(i1)", "N(i4)"}, []string{"N(i1)"}},
	} {
		prev, _, err := RunWith(tc.snap.Fork(), tc.prog, SemEnd, Options{Prepared: tc.prep})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pick := func(keys []string) []*engine.Tuple {
			var out []*engine.Tuple
			for _, tp := range prev.Deleted {
				if slices.Contains(keys, tp.Key()) {
					out = append(out, tp)
				}
			}
			if len(out) != len(keys) {
				t.Fatalf("%s: %v not all in the previous fixpoint %v", tc.name, keys, prev.Keys())
			}
			return out
		}
		next, _, err := tc.snap.Apply(nil, []engine.Row{tc.del})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		db := next.Fork()
		surv, cands := pick(tc.surv), pick(tc.cands)
		self := reviveSet(t, db, tc.prep, surv, cands, false)
		all := reviveSet(t, db, tc.prep, surv, cands, true)
		if !slices.Equal(self, tc.want) || !slices.Equal(all, tc.want) {
			t.Fatalf("%s: self-atom seeding revived %v, all-base seeding %v, want %v", tc.name, self, all, tc.want)
		}
	}
}

// TestWarmChangeProbeReplay: for the semantics without an incremental
// executor, a delete-containing batch whose tuples provably join no rule
// replays the cached result, while an interacting batch recomputes.
func TestWarmChangeProbeReplay(t *testing.T) {
	schema, err := engine.ParseSchema("A(x)\nB(x)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := datalog.ParseAndValidate("Delta_A(x) :- A(x), B(x).", schema)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(prog, schema)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	db.MustInsert("A", engine.Int(1))
	db.MustInsert("A", engine.Int(2))
	db.MustInsert("B", engine.Int(2))
	snap := db.Freeze()

	for _, sem := range []Semantics{SemStage, SemStep, SemIndependent} {
		prev, _, err := RunWith(snap.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if prev.Size() != 1 {
			t.Fatalf("%s: fixture repair has %d tuples, want 1", sem, prev.Size())
		}

		// A(1) has no B partner in either version: the probe finds no
		// assignment binding it, so the cached result replays verbatim.
		next, info, err := snap.Apply(nil, []engine.Row{{Rel: "A", Vals: []engine.Value{engine.Int(1)}}})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep, Warm: warmInfo(prev, info)})
		if err != nil {
			t.Fatalf("%s warm: %v", sem, err)
		}
		cold, _, err := RunWith(next.Fork(), prog, sem, Options{Prepared: prep})
		if err != nil {
			t.Fatalf("%s cold: %v", sem, err)
		}
		if exactKeys(got) != exactKeys(cold) {
			t.Fatalf("%s: replay %s != cold %s", sem, exactKeys(got), exactKeys(cold))
		}
		if got.Timing.Eval != 0 {
			t.Errorf("%s: probe replay ran an executor (eval %v)", sem, got.Timing.Eval)
		}

		// Deleting B(2) interacts (it bound the only assignment): the
		// probe hits, the executor reruns, and the repair empties.
		next2, info2, err := snap.Apply(nil, []engine.Row{{Rel: "B", Vals: []engine.Value{engine.Int(2)}}})
		if err != nil {
			t.Fatal(err)
		}
		got2, _, err := RunWith(next2.Fork(), prog, sem, Options{Prepared: prep, Warm: warmInfo(prev, info2)})
		if err != nil {
			t.Fatalf("%s warm interacting: %v", sem, err)
		}
		if got2.Size() != 0 {
			t.Fatalf("%s: deleting the join partner should empty the repair, got %s", sem, exactKeys(got2))
		}
	}
}

// TestWarmDeleteMASPrograms is the acceptance sweep: all 20 MAS programs
// plus the running example, × all four semantics. Each program gets a
// mixed batch deleting two tuples of the previous repair (guaranteed
// fixpoint interaction) plus one unrelated base row resurrection; the
// warm result must be byte-identical to a cold recompute on the same
// lineage.
func TestWarmDeleteMASPrograms(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 11})
	masProgs, err := programs.MASAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	type fixture struct {
		name string
		db   *engine.Database
		prog *datalog.Program
	}
	var fixtures []fixture
	for n := 1; n <= 20; n++ {
		fixtures = append(fixtures, fixture{fmt.Sprintf("mas%02d", n), ds.DB, masProgs[n]})
	}
	reProg, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"running-example", programs.RunningExampleDB(), reProg})

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			prep, err := datalog.Prepare(fx.prog, fx.db.Schema)
			if err != nil {
				t.Fatal(err)
			}
			snap := fx.db.Freeze()
			for _, sem := range AllSemantics {
				prev, _, err := RunWith(snap.Fork(), fx.prog, sem, Options{Prepared: prep})
				if err != nil {
					t.Fatalf("%s prev: %v", sem, err)
				}

				// Delete the first and last tuples of the previous repair
				// (when it has any — both live as base rows under end/step/
				// stage/independent deletion-only semantics), and resurrect
				// the first: a mixed batch on relations the program reads.
				var deletes, inserts []engine.Row
				if prev.Size() > 0 {
					first := prev.Deleted[0]
					last := prev.Deleted[len(prev.Deleted)-1]
					deletes = append(deletes, engine.Row{Rel: first.Rel, Vals: first.Vals})
					if last.TID != first.TID {
						deletes = append(deletes, engine.Row{Rel: last.Rel, Vals: last.Vals})
					}
					inserts = append(inserts, engine.Row{Rel: first.Rel, Vals: first.Vals})
				} else {
					// Stable program: delete an arbitrary base row so the
					// batch still contains an effective delete.
					found := false
					for _, rs := range fx.db.Schema.Relations {
						snap.Fork().Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
							deletes = append(deletes, engine.Row{Rel: tp.Rel, Vals: tp.Vals})
							found = true
							return false
						})
						if found {
							break
						}
					}
					if !found {
						t.Skipf("%s: empty instance", sem)
					}
				}
				next, info, err := snap.Apply(inserts, deletes)
				if err != nil {
					t.Fatalf("%s apply: %v", sem, err)
				}
				cold, _, err := RunWith(next.Fork(), fx.prog, sem, Options{Prepared: prep})
				if err != nil {
					t.Fatalf("%s cold: %v", sem, err)
				}
				got, repaired, err := RunWith(next.Fork(), fx.prog, sem, Options{Prepared: prep, Warm: warmInfo(prev, info)})
				if err != nil {
					t.Fatalf("%s warm: %v", sem, err)
				}
				if exactKeys(got) != exactKeys(cold) {
					t.Fatalf("%s: warm %s != cold %s", sem, exactKeys(got), exactKeys(cold))
				}
				if stable, err := CheckStableP(repaired, prep); err != nil || !stable {
					t.Fatalf("%s: warm-repaired fork not stable (err=%v)", sem, err)
				}
			}
		})
	}
}
