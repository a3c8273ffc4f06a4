package gen

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// The storage parity suite: every generated scenario and update stream is
// executed twice over the same content held two ways, and the results of
// all four semantics must be byte-identical. The reference leg reads the
// database as generated — one sealed segment per relation once it is
// frozen; the second leg reads a replica rebuilt through the public API so
// that its relations carry several sealed segments and tombstones
// (segmentedReplica). This is the oracle for the segment-structured
// storage layer as core sees it: how many segments a relation is spread
// over, which positions are tombstoned and which compactions ran may
// change how tuples are visited, never which repair comes out.
//
// The tests are still named TestColumnarParity* and their legs "row" (one
// segment) and "columnar" (segmented): the suite used to compare the
// row-oriented read path with the columnar one (one layout since PR 23),
// and the test floor pins those 2 006 test names.

// parityModes runs the given group once per leg — the as-generated
// reference first, then the segmented replica. fn must confine its
// parallel subtests to the group subtest it is handed; t.Run does not
// return until those subtests finish, so the reference leg has recorded
// every seed before the second leg compares.
func parityModes(t *testing.T, fn func(t *testing.T, segmented bool)) {
	for _, m := range []struct {
		name      string
		segmented bool
	}{{"row", false}, {"columnar", true}} {
		t.Run(m.name, func(t *testing.T) { fn(t, m.segmented) })
	}
}

// segmentedReplica rebuilds the scenario database's content — the same
// tuple objects, in the same scan order, base and delta — as cores sealed
// in three rounds: about half of every relation, a quarter, and the rest,
// the first two rounds each adding one throwaway row that the next round
// deletes. The generated relations are small, so nothing folds: every
// non-empty base relation ends up spread over up to three sealed segments
// with a tombstone in the older two. The insertion counter is first lifted
// past every existing Seq (by throwaways minted and deleted before the
// first seal, which leave no trace), so rows a later update mints sort
// after the existing ones exactly as in the original.
func segmentedReplica(sc *Scenario) *engine.Database {
	db := engine.NewDatabase(sc.Schema)
	pads := 0
	pad := func(rs *engine.RelationSchema) *engine.Tuple {
		vals := make([]engine.Value, rs.Arity())
		for i := range vals {
			vals[i] = engine.Str(fmt.Sprintf("\x00pad%d", pads))
		}
		pads++
		return db.MustInsert(rs.Name, vals...)
	}
	maxSeq := 0
	for _, rs := range sc.Schema.Relations {
		for _, side := range []*engine.Relation{sc.DB.Relation(rs.Name), sc.DB.Delta(rs.Name)} {
			side.Scan(func(t *engine.Tuple) bool { maxSeq = max(maxSeq, t.Seq); return true })
		}
	}
	for first := sc.Schema.Relations[0]; ; {
		t := pad(first)
		db.Relation(first.Name).DeleteTuple(t)
		if t.Seq >= maxSeq {
			break
		}
	}
	const rounds = 3
	prevPad := make(map[string]*engine.Tuple)
	for round := 0; round < rounds; round++ {
		for _, rs := range sc.Schema.Relations {
			for _, side := range []struct{ from, to *engine.Relation }{
				{sc.DB.Relation(rs.Name), db.Relation(rs.Name)},
				{sc.DB.Delta(rs.Name), db.Delta(rs.Name)},
			} {
				rows := side.from.Tuples()
				cuts := [rounds + 1]int{0, (len(rows) + 1) / 2, (3*len(rows) + 3) / 4, len(rows)}
				for _, t := range rows[cuts[round]:cuts[round+1]] {
					side.to.Insert(t)
				}
			}
			if t := prevPad[rs.Name]; t != nil {
				db.Relation(rs.Name).DeleteTuple(t)
			}
			if round < rounds-1 {
				prevPad[rs.Name] = pad(rs)
			}
		}
		db.Freeze()
	}
	return db
}

// TestColumnarParityQuick checks scenario parity on the fixed CI seed
// block: per seed, fork a frozen snapshot and run all four semantics;
// the segmented pass must reproduce the reference pass byte for byte.
func TestColumnarParityQuick(t *testing.T) {
	refs := make([][]string, quickScenarios+1) // seed → reference keys per semantics
	parityModes(t, func(t *testing.T, segmented bool) {
		for seed := int64(1); seed <= quickScenarios; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				sc := Generate(seed)
				db := sc.DB
				if segmented {
					db = segmentedReplica(sc)
				}
				snap := db.Freeze()
				got := make([]string, len(core.AllSemantics))
				for i, sem := range core.AllSemantics {
					res, _, err := core.RunWith(snap.Fork(), sc.Program, sem, core.Options{})
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, sem, err)
					}
					got[i] = answerOf(res)
				}
				if !segmented {
					refs[seed] = got
					return
				}
				want := refs[seed]
				if want == nil {
					t.Fatalf("seed %d: reference missing (reference pass failed?)", seed)
				}
				for i, sem := range core.AllSemantics {
					if got[i] != want[i] {
						t.Fatalf("seed %d: %s result diverged on the segmented replica\nsegmented: %s\nreference: %s\nprogram:\n%s",
							seed, sem, got[i], want[i], sc.ProgramSource)
					}
				}
			})
		}
	})
}

// TestColumnarParityUpdateStream checks update-stream parity on the
// fixed CI seed block: per seed, drive the whole stream through a
// mutable server session — freeze, fork, incremental updates, version
// pinning — recording every (version, semantics) answer; the pass whose
// session starts from the segmented replica must reproduce the reference
// pass byte for byte.
func TestColumnarParityUpdateStream(t *testing.T) {
	refs := make([]map[string]string, quickStreams+1) // seed → "v<N>/<sem>" → keys
	parityModes(t, func(t *testing.T, segmented bool) {
		for seed := int64(1); seed <= quickStreams; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				us := GenerateUpdateStream(seed, streamOps)
				sc := us.Scenario
				db := sc.DB
				if segmented {
					db = segmentedReplica(sc)
				}
				ctx := context.Background()
				svc := openServer(t, server.Config{MaxVersions: us.NumVersions() + 1})
				if err := svc.Register("s", sc.Schema, db, sc.Program); err != nil {
					t.Fatalf("seed %d: register: %v", seed, err)
				}
				got := make(map[string]string)
				record := func(version uint64) {
					for _, sem := range core.AllSemantics {
						res, _, gotVer, err := svc.RepairVersioned(ctx, "s", sem, server.RequestOptions{Version: version})
						if err != nil {
							t.Fatalf("seed %d v%d: %s: %v", seed, version, sem, err)
						}
						if gotVer != version {
							t.Fatalf("seed %d v%d: repair executed at version %d", seed, version, gotVer)
						}
						got[fmt.Sprintf("v%d/%s", version, sem)] = answerOf(res)
					}
				}
				record(1)
				version := uint64(1)
				for i, op := range us.Ops {
					res, err := svc.Update(ctx, "s", op.Inserts, op.Deletes, server.RequestOptions{})
					if err != nil {
						t.Fatalf("seed %d: update %d: %v", seed, i, err)
					}
					version = res.Version
					record(version)
				}
				if !segmented {
					refs[seed] = got
					return
				}
				want := refs[seed]
				if want == nil {
					t.Fatalf("seed %d: reference missing (reference pass failed?)", seed)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: segmented pass recorded %d answers, reference pass %d", seed, len(got), len(want))
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("seed %d: %s result diverged on the segmented replica\nsegmented: %s\nreference: %s\nprogram:\n%s",
							seed, k, got[k], w, sc.ProgramSource)
					}
				}
			})
		}
	})
}
