package gen

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/server"
)

// The update-stream equivalence suite: for every generated scenario, a
// random stream of base-table update batches is applied to a mutable
// server session, and at every version — for all four semantics — the
// incremental result must be identical to registering a fresh session
// with that version's contents and recomputing from scratch. This is the
// oracle that licenses the one warm-start rule in core and server, probe
// replay, and the stored answers of repeat reads: whatever path a request
// takes, the answer must be indistinguishable from a cold computation.
//
// Results are compared as sorted content-key sets plus Result.Rounds: the
// incremental and fresh lineages assign different tuple identities and
// insertion sequences, so Seq-ordered output differs while the repair and
// its round count must not — a version's answer is independent of the
// history that reached it.

// quickStreams is the fixed-seed CI budget, mirroring quickScenarios:
// same seeds every run, failures reproduce from the seed alone. CI runs
// this under -race.
const quickStreams = 500

// streamOps is the number of update batches per stream in quick mode:
// initial state + 3 versions exercises version chains, retention, and
// both replay and cold runs without blowing up CI time.
const streamOps = 3

// answerOf renders what a repair answers independently of its lineage: the
// sorted content keys and the round count.
func answerOf(res *core.Result) string {
	keys := res.Keys()
	sort.Strings(keys)
	return fmt.Sprintf("%v in %d rounds", keys, res.Rounds)
}

// openServer opens a repair service with cfg, failing tb on error.
func openServer(tb testing.TB, cfg server.Config) *server.Service {
	tb.Helper()
	svc, err := server.Open(cfg)
	if err != nil {
		tb.Fatalf("server.Open: %v", err)
	}
	return svc
}

// checkUpdateStream drives one scenario's update stream through a
// mutable session and cross-checks every version against from-scratch
// recomputation. It returns the number of segment tier merges the
// stream's Apply chain ran, so a caller can insist the stream was long
// enough to cross them.
func checkUpdateStream(t *testing.T, us *UpdateStream) (compactions int) {
	t.Helper()
	sc := us.Scenario
	ctx := context.Background()

	prep, err := datalog.Prepare(sc.Program, sc.Schema)
	if err != nil {
		t.Fatalf("seed %d: prepare: %v", sc.Seed, err)
	}

	// Retain every version so the pinned re-checks at the end can still
	// resolve the whole history.
	svc := openServer(t, server.Config{MaxVersions: us.NumVersions() + 1})
	if err := svc.Register("s", sc.Schema, sc.DB, sc.Program); err != nil {
		t.Fatalf("seed %d: register: %v", sc.Seed, err)
	}

	freshDB := func(n int) *engine.Database {
		db := engine.NewDatabase(sc.Schema)
		for _, row := range us.BaseRowsAfter(n) {
			db.MustInsert(row.Rel, row.Vals...)
		}
		return db
	}

	// expected[version][sem] records the scratch answer for the pinned
	// re-checks after the whole stream has been applied.
	expected := make(map[uint64]map[core.Semantics]string)

	checkVersion := func(n int, version uint64) {
		t.Helper()
		fresh := freshDB(n)
		// The session's logical contents must match the model exactly.
		info := svc.Sessions()[0]
		if info.Version != version || info.Tuples != fresh.TotalTuples() {
			t.Fatalf("seed %d v%d: session lists v%d with %d tuples, model %d", sc.Seed, version, info.Version, info.Tuples, fresh.TotalTuples())
		}
		expected[version] = make(map[core.Semantics]string)
		for _, sem := range core.AllSemantics {
			want, _, err := core.RunWith(fresh.Fork(), sc.Program, sem, core.Options{Prepared: prep})
			if err != nil {
				t.Fatalf("seed %d v%d: scratch %s: %v", sc.Seed, version, sem, err)
			}
			wantKeys := answerOf(want)
			expected[version][sem] = wantKeys

			// First incremental request at this version: probe replay of
			// the previous version's result, or a cold run.
			got, _, gotVer, err := svc.RepairVersioned(ctx, "s", sem, server.RequestOptions{Version: version})
			if err != nil {
				t.Fatalf("seed %d v%d: incremental %s: %v", sc.Seed, version, sem, err)
			}
			if gotVer != version {
				t.Fatalf("seed %d v%d: repair executed at version %d", sc.Seed, version, gotVer)
			}
			if gotKeys := answerOf(got); gotKeys != wantKeys {
				t.Fatalf("seed %d v%d: %s incremental %s != scratch %s\nprogram:\n%s",
					sc.Seed, version, sem, gotKeys, wantKeys, sc.ProgramSource)
			}
			// Second request at the same version: the cached-result replay
			// path must reproduce the identical answer.
			again, _, _, err := svc.RepairVersioned(ctx, "s", sem, server.RequestOptions{Version: version})
			if err != nil {
				t.Fatalf("seed %d v%d: replay %s: %v", sc.Seed, version, sem, err)
			}
			if answerOf(again) != wantKeys {
				t.Fatalf("seed %d v%d: %s replay diverged", sc.Seed, version, sem)
			}
		}

		// Stability must agree with the scratch instance.
		wantStable, err := core.CheckStable(fresh.Fork(), nil, core.Options{Prepared: prep})
		if err != nil {
			t.Fatalf("seed %d v%d: scratch stability: %v", sc.Seed, version, err)
		}
		gotStable, _, err := svc.IsStableVersioned(ctx, "s", server.RequestOptions{Version: version})
		if err != nil {
			t.Fatalf("seed %d v%d: incremental stability: %v", sc.Seed, version, err)
		}
		if gotStable != wantStable {
			t.Fatalf("seed %d v%d: incremental stability %v, scratch %v\nprogram:\n%s",
				sc.Seed, version, gotStable, wantStable, sc.ProgramSource)
		}
	}

	// Same-lineage warm chain: an explicit core-level Apply chain whose
	// every version runs each semantics warm (previous result + the
	// batch's ApplyInfo as hints) and cold on the very same snapshot.
	// Shared lineage means shared tuple identities, so the comparison is
	// byte-identity — exact Seq-ordered keys, not merely set equality —
	// whether change-probe replay answers or the run derives cold.
	chain := freshDB(0).Freeze()
	prevRes := make(map[core.Semantics]*core.Result)
	checkWarmChain := func(n int, info *engine.ApplyInfo) {
		t.Helper()
		hints := make(map[core.Semantics]*core.WarmStart)
		coldKeys := make(map[core.Semantics]string)
		for _, sem := range core.AllSemantics {
			cold, _, err := core.RunWith(chain.Fork(), sc.Program, sem, core.Options{Prepared: prep})
			if err != nil {
				t.Fatalf("seed %d v%d: chain cold %s: %v", sc.Seed, n, sem, err)
			}
			coldKeys[sem] = fmt.Sprintf("%v", cold.Keys())
			if info != nil && prevRes[sem] != nil {
				warm := &core.WarmStart{
					PrevResult: prevRes[sem],
					Inserted:   info.InsertedTuples,
					Deleted:    info.DeletedTuples,
				}
				hints[sem] = warm
				got, repaired, err := core.RunWith(chain.Fork(), sc.Program, sem, core.Options{Prepared: prep, Warm: warm})
				if err != nil {
					t.Fatalf("seed %d v%d: chain warm %s: %v", sc.Seed, n, sem, err)
				}
				if gotKeys, wantKeys := fmt.Sprintf("%v", got.Keys()), coldKeys[sem]; gotKeys != wantKeys {
					t.Fatalf("seed %d v%d: %s warm chain %s != cold %s\nprogram:\n%s",
						sc.Seed, n, sem, gotKeys, wantKeys, sc.ProgramSource)
				}
				if stable, err := core.CheckStable(repaired, nil, core.Options{Prepared: prep}); err != nil || !stable {
					t.Fatalf("seed %d v%d: %s warm-repaired fork not stable (err=%v)", sc.Seed, n, sem, err)
				}
				prevRes[sem] = got
				continue
			}
			prevRes[sem] = cold
		}

		// Repair-all: one Derivation per version, each semantics with its own
		// hints, must give every semantics its cold answer whoever produced
		// the shared end fixpoint. In AllSemantics order end's hints arrive
		// after independent built the provenance, and end reads its fixpoint
		// off the graph; in reverse, end's replay or cold derivation comes
		// before step builds the provenance.
		reversed := slices.Clone(core.AllSemantics)
		slices.Reverse(reversed)
		for _, order := range [][]core.Semantics{core.AllSemantics, reversed} {
			base := chain.Fork()
			d, err := core.NewDerivation(base, prep)
			if err != nil {
				t.Fatalf("seed %d v%d: derivation: %v", sc.Seed, n, err)
			}
			for _, sem := range order {
				got, err := d.Run(sem, core.Options{Warm: hints[sem]})
				if err != nil {
					t.Fatalf("seed %d v%d: repair-all %v %s: %v", sc.Seed, n, order, sem, err)
				}
				repaired, err := core.Materialize(base, got)
				if err != nil {
					t.Fatalf("seed %d v%d: repair-all %v %s: %v", sc.Seed, n, order, sem, err)
				}
				if gotKeys := fmt.Sprintf("%v", got.Keys()); gotKeys != coldKeys[sem] {
					t.Fatalf("seed %d v%d: repair-all %v: %s %s != cold %s\nprogram:\n%s",
						sc.Seed, n, order, sem, gotKeys, coldKeys[sem], sc.ProgramSource)
				}
				if stable, err := core.CheckStable(repaired, nil, core.Options{Prepared: prep}); err != nil || !stable {
					t.Fatalf("seed %d v%d: repair-all %v: %s repaired fork not stable (err=%v)", sc.Seed, n, order, sem, err)
				}
			}
		}
	}
	checkWarmChain(0, nil)

	checkVersion(0, 1)
	version := uint64(1)
	for i, op := range us.Ops {
		res, err := svc.Update(ctx, "s", op.Inserts, op.Deletes, server.RequestOptions{})
		if err != nil {
			t.Fatalf("seed %d: update %d: %v", sc.Seed, i, err)
		}
		if res.Version != version+1 {
			t.Fatalf("seed %d: update %d minted version %d, want %d", sc.Seed, i, res.Version, version+1)
		}
		version = res.Version

		next, info, err := chain.Apply(op.Inserts, op.Deletes)
		if err != nil {
			t.Fatalf("seed %d: chain apply %d: %v", sc.Seed, i, err)
		}
		chain = next
		compactions += info.Compactions
		checkWarmChain(i+1, info)

		checkVersion(i+1, version)
	}

	// Pinned re-checks: after the whole stream, every retained version
	// must still answer exactly as it did when it was the head —
	// read-your-writes across the full history.
	for n := 0; n < us.NumVersions(); n++ {
		v := uint64(n + 1)
		for _, sem := range core.AllSemantics {
			res, _, _, err := svc.RepairVersioned(ctx, "s", sem, server.RequestOptions{Version: v})
			if err != nil {
				t.Fatalf("seed %d: pinned v%d %s: %v", sc.Seed, v, sem, err)
			}
			if got := answerOf(res); got != expected[v][sem] {
				t.Fatalf("seed %d: pinned v%d %s drifted: %s != %s", sc.Seed, v, sem, got, expected[v][sem])
			}
		}
	}
	return compactions
}

// TestUpdateStreamEquivalenceQuick is the fixed-seed CI mode: 500
// streams, each an independent parallel subtest naming its seed. The
// batch shape is the weighted ShapeForSeed mix, so every sweep covers
// mixed, delete-heavy, and interleaved streams.
func TestUpdateStreamEquivalenceQuick(t *testing.T) {
	for seed := int64(1); seed <= quickStreams; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkUpdateStream(t, GenerateShapedStream(seed, streamOps, ShapeForSeed(seed)))
		})
	}
}

// longStreamSeeds and longStreamOps size the long-stream leg: six of the
// fixed seeds, each driven through 300 batches. The quick streams above
// are three batches long — sealed segments pile up to three there, but no
// relation is ever folded — so this leg is what asserts incremental ==
// from scratch, for all four semantics and at every version, across
// versions whose storage was rewritten underneath them. A generated
// relation is a few dozen rows at most and only folds once the rows and
// tombstones outside its base outgrow a recent segment, which most
// scenarios never reach; these six are among the first sixty seeds the
// ones whose streams fold often (3 to 13 times) at a runtime of about a
// second each.
var longStreamSeeds = []int64{11, 17, 33, 35, 52, 55}

const longStreamOps = 300

// TestUpdateStreamEquivalenceLong is checkUpdateStream on streams long
// enough to cross base folds.
func TestUpdateStreamEquivalenceLong(t *testing.T) {
	for _, seed := range longStreamSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if n := checkUpdateStream(t, GenerateShapedStream(seed, longStreamOps, ShapeForSeed(seed))); n < 3 {
				t.Fatalf("seed %d: %d batches ran %d segment compactions", seed, longStreamOps, n)
			}
		})
	}
}

// updateSoakBase mirrors soakBase for the update-stream suite: each
// -count run claims a fresh block of seeds.
var updateSoakBase atomic.Int64

// TestUpdateStreamEquivalenceSoak scales beyond CI, with longer streams:
//
//	GEN_SOAK=2000 go test -race -run UpdateStreamEquivalenceSoak -count=4 ./internal/gen
func TestUpdateStreamEquivalenceSoak(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("GEN_SOAK"))
	if n <= 0 {
		t.Skip("set GEN_SOAK=<streams> to run the soak suite")
	}
	base := updateSoakBase.Add(int64(n)) - int64(n)
	// Distinct offset from both the quick block and the invariants soak.
	const soakOffset = 1 << 21
	for i := 0; i < n; i++ {
		seed := soakOffset + base + int64(i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkUpdateStream(t, GenerateShapedStream(seed, 2*streamOps, ShapeForSeed(seed)))
		})
	}
}

// TestUpdateStreamDeterminism: the same seed yields the same stream and
// the same per-version states.
func TestUpdateStreamDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := GenerateUpdateStream(seed, streamOps)
		b := GenerateUpdateStream(seed, streamOps)
		if fmt.Sprintf("%v", a.Ops) != fmt.Sprintf("%v", b.Ops) {
			t.Fatalf("seed %d: op stream nondeterministic", seed)
		}
		for n := 0; n < a.NumVersions(); n++ {
			if fmt.Sprintf("%v", a.BaseRowsAfter(n)) != fmt.Sprintf("%v", b.BaseRowsAfter(n)) {
				t.Fatalf("seed %d: state %d nondeterministic", seed, n)
			}
		}
	}
}

// TestUpdateStreamCoverage: the seed space must exercise the update shapes
// a warm start meets — insert-only ops, ops with deletes,
// ops whose batch lands outside every relation a rule body reads (the
// probe then seeds no atom and replays), and streams whose instances
// actually need repair.
func TestUpdateStreamCoverage(t *testing.T) {
	insertOnly, withDeletes, outsideReadSet, repairs := 0, 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		us := GenerateUpdateStream(seed, streamOps)
		prep, err := datalog.Prepare(us.Scenario.Program, us.Scenario.Schema)
		if err != nil {
			t.Fatal(err)
		}
		reads := make(map[string]bool)
		for _, r := range us.Scenario.Program.Rules {
			for _, a := range r.Body {
				reads[a.Rel] = true
			}
		}
		for _, op := range us.Ops {
			if len(op.Deletes) == 0 && len(op.Inserts) > 0 {
				insertOnly++
			}
			if len(op.Deletes) > 0 {
				withDeletes++
			}
			touched := false
			for _, row := range append(append([]engine.Row{}, op.Inserts...), op.Deletes...) {
				if reads[row.Rel] {
					touched = true
				}
			}
			if !touched && len(op.Inserts)+len(op.Deletes) > 0 {
				outsideReadSet++
			}
		}
		if stable, _ := core.CheckStable(us.Scenario.DB.Fork(), nil, core.Options{Prepared: prep}); !stable {
			repairs++
		}
	}
	if insertOnly < 50 || withDeletes < 100 {
		t.Errorf("op shape coverage: %d insert-only, %d with deletes", insertOnly, withDeletes)
	}
	if outsideReadSet < 10 {
		t.Errorf("only %d ops land outside every relation a rule reads", outsideReadSet)
	}
	if repairs < 50 {
		t.Errorf("only %d/200 streams start unstable", repairs)
	}
}

// TestUpdateStreamShapes: the weighted shapes deliver what they promise —
// delete-heavy streams skew toward deletions, interleaved batches always
// carry both kinds, and the seed-weighted mix covers all three shapes.
func TestUpdateStreamShapes(t *testing.T) {
	heavyDel, heavyIns := 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		us := GenerateShapedStream(seed, streamOps, DeleteHeavyShape)
		for i, op := range us.Ops {
			heavyDel += len(op.Deletes)
			heavyIns += len(op.Inserts)
			// A live-targeting delete draw skips when nothing is live, so
			// the at-least-one guarantee holds only on non-empty states.
			if len(op.Deletes) == 0 && len(us.BaseRowsAfter(i)) > 0 {
				t.Fatalf("seed %d: delete-heavy batch %d with no deletes", seed, i)
			}
		}
		inter := GenerateShapedStream(seed, streamOps, InterleavedShape)
		for i, op := range inter.Ops {
			if len(op.Inserts) == 0 {
				t.Fatalf("seed %d: interleaved batch %d with no inserts", seed, i)
			}
			if len(op.Deletes) == 0 && len(inter.BaseRowsAfter(i)) > 0 {
				t.Fatalf("seed %d: interleaved batch %d with no deletes", seed, i)
			}
		}
	}
	if heavyDel <= 2*heavyIns {
		t.Errorf("delete-heavy streams drew %d deletes vs %d inserts — not delete-heavy", heavyDel, heavyIns)
	}
	shapes := make(map[StreamShape]bool)
	for seed := int64(1); seed <= 8; seed++ {
		shapes[ShapeForSeed(seed)] = true
	}
	if len(shapes) != 3 {
		t.Errorf("ShapeForSeed covers %d shapes over 8 seeds, want 3", len(shapes))
	}
	// The default shape must reproduce the historical generator exactly:
	// fixed-seed failures from old runs stay reproducible.
	a := GenerateUpdateStream(7, streamOps)
	b := GenerateShapedStream(7, streamOps, DefaultShape)
	if fmt.Sprintf("%v", a.Ops) != fmt.Sprintf("%v", b.Ops) {
		t.Fatal("DefaultShape diverged from the historical stream generator")
	}
}
