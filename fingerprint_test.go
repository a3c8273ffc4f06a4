package deltarepair_test

import (
	"context"
	"testing"

	deltarepair "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/programs"
	"repro/internal/server"
)

// Cost fingerprints of the root benchmarks: allocation counts and seal
// counts that a regression moves deterministically, where the benchmarks'
// timings only move with the machine. Allocation counts are pinned
// without the race detector only: under it sync.Pool drops pooled items
// at random.

// allocsNear fails t unless got is within ± 10 % of want.
func allocsNear(t *testing.T, what string, got, want float64, why string) {
	t.Helper()
	if got < 0.9*want || got > 1.1*want {
		t.Errorf("%s: %.0f allocs per run, want %.0f ± 10 %%: %s", what, got, want, why)
	}
}

// TestPreparedRepairAllocs pins BenchmarkPreparedRepair's small prepared
// leg: a stage repair of the running example through a Prepared, read off
// the closure formula and materialised. Planning the program again on
// every call costs ≈ 570; parsing and validating it too, ≈ 745.
func TestPreparedRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := programs.RunningExampleDB()
	p, err := deltarepair.ParseProgram(programs.RunningExampleSource, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := deltarepair.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := pp.Repair(db, deltarepair.Stage, deltarepair.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	allocsNear(t, "Prepared.Repair(stage)", got, 243, "the program is planned again per call")
}

// TestStepSearchAllocsFlat: BenchmarkStepSearch's exhaustive step search
// forks one frozen base per visited state, so its allocations do not grow
// when the unrelated Big relation grows tenfold. A clone per state
// allocates in proportion to the base.
func TestStepSearchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(bigRows int) float64 {
		db, p := stepSearchWorkload(t, bigRows)
		return testing.AllocsPerRun(3, func() {
			res, _, err := core.RunStepExhaustive(db, p, core.StepExhaustiveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Size() != 6 {
				t.Fatalf("size = %d", res.Size())
			}
		})
	}
	small, big := allocs(5_000), allocs(50_000)
	if big > 1.1*small {
		t.Errorf("RunStepExhaustive: %.0f allocs at 50 000 Big rows against %.0f at 5 000: a state copies the base instead of forking it", big, small)
	}
}

// TestSessionUpdateAllocsFlat pins BenchmarkSessionUpdate's scaling legs:
// a Service.Update allocates the same at a 1× and a 10× base, both when
// the batch touches a relation that did not grow (update_only) and one
// that did (update_touched). An update that re-freezes or re-seals the
// relation it touches allocates in proportion to it.
func TestSessionUpdateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	allocs := func(scale int, row func(int) []deltarepair.Row) float64 {
		db, prog := buildScaledBenchWorkload(t, scale)
		svc := openServer(t, server.Config{})
		if err := svc.Register("u", db.Schema, db, prog); err != nil {
			t.Fatal(err)
		}
		i := 0
		return testing.AllocsPerRun(50, func() {
			if _, err := svc.Update(ctx, "u", row(i), row(i-1), server.RequestOptions{}); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	for _, leg := range []struct {
		name       string
		small, big int
		row        func(int) []deltarepair.Row
	}{{"update_only", 1, 10, seedRow}, {"update_touched", 500, 5000, t1Row}} {
		small, big := allocs(leg.small, leg.row), allocs(leg.big, leg.row)
		if big != small {
			t.Errorf("%s: Service.Update allocates %.0f at a 10× base against %.0f at 1×: an update re-freezes or re-seals its relation", leg.name, big, small)
		}
	}
}

// TestSessionRepairAllocs pins three legs of a stage repair on a
// registered session: a repeat repair (BenchmarkServerThroughput's cached
// leg), an update followed by a repair (BenchmarkSessionUpdate's
// incremental leg), and an update whose batch binds a rule followed by a
// repair. The first two run no derivation: the repeat is a stored result,
// and seedRow's update interacts with no rule, so the repair after it
// replays. The third leg's batch inserts a Seed row tagged 'drop' with a
// T1 row that joins it, so rules c0 and r1 fire on it and the repair after
// it derives.
func TestSessionRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	db, prog := buildBenchWorkload(t)
	svc := openServer(t, server.Config{})
	if err := svc.Register("s", db.Schema, db, prog); err != nil {
		t.Fatal(err)
	}
	repair := func() {
		if _, _, _, err := svc.RepairVersioned(ctx, "s", core.SemStage, server.RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	repair()
	allocsNear(t, "repeat RepairVersioned(stage)", testing.AllocsPerRun(50, repair), 95,
		"the session's plan or its stored result is not used")
	i := 0
	got := testing.AllocsPerRun(50, func() {
		if _, err := svc.Update(ctx, "s", seedRow(i), seedRow(i-1), server.RequestOptions{}); err != nil {
			t.Fatal(err)
		}
		repair()
		i++
	})
	allocsNear(t, "Update + RepairVersioned(stage)", got, 301,
		"the repair after an update re-plans or derives without its warm start")

	db, prog = buildBenchWorkload(t)
	if err := svc.Register("d", db.Schema, db, prog); err != nil {
		t.Fatal(err)
	}
	base, _, _, err := svc.RepairVersioned(ctx, "d", core.SemStage, server.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i = 0
	bound := func() {
		if _, err := svc.Update(ctx, "d", droppedSeedRows(i), droppedSeedRows(i-1), server.RequestOptions{}); err != nil {
			t.Fatal(err)
		}
		res, _, _, err := svc.RepairVersioned(ctx, "d", core.SemStage, server.RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing.Eval == 0 || res.Size() != base.Size()+2 {
			t.Fatalf("repair after a rule-binding update: eval %v, %d deleted; want a derivation deleting the %d of version 1 and the batch's 2",
				res.Timing.Eval, res.Size(), base.Size())
		}
		i++
	}
	allocsNear(t, "rule-binding Update + RepairVersioned(stage)", testing.AllocsPerRun(50, bound), 585,
		"the repair after a rule-binding update re-plans the program or derives more than once")
}

// droppedSeedRows is a batch that binds rules c0 and r1 of
// buildBenchWorkload's program: a Seed row tagged 'drop' and a T1 row
// joining its gid, ids clear of seedRow's and of the > 1000 guards.
func droppedSeedRows(i int) []deltarepair.Row {
	g := engine.Int(300 + i%64)
	return []deltarepair.Row{
		{Rel: "Seed", Vals: []engine.Value{g, engine.Str("drop")}},
		{Rel: "T1", Vals: []engine.Value{g, engine.Int(10)}},
	}
}

// TestApplyRowsSealed pins the write amplification BenchmarkSnapshotApply
// reports: the rows Snapshot.Apply seals into new segments, exactly, on
// the durable_updates shape (1.25 per row changed: a batch seals its own
// rows and the recent segment of ≤ 12 rows) and on a 1 000-batch grow_10k
// run, which crosses spills and folds (21 per row changed). A per-batch
// count in the thousands means an update re-freezes its whole relation; a
// larger grow count means seals fold into the base too often.
func TestApplyRowsSealed(t *testing.T) {
	check := func(name string, snap *engine.Snapshot, batches []applyBatch, wantSealed, wantChanged int) {
		sealed, changed := 0, 0
		for _, b := range batches {
			next, info, err := snap.Apply(b.ins, b.del)
			if err != nil {
				t.Fatal(err)
			}
			sealed += info.RowsSealed
			changed += info.Inserted + info.Deleted
			snap = next
		}
		if sealed != wantSealed || changed != wantChanged {
			t.Errorf("%s: %d rows sealed for %d changed, want %d for %d", name, sealed, changed, wantSealed, wantChanged)
		}
	}
	snap, batches := durableUpdatesBatches(t, 400)
	check("durable_updates", snap, batches, 2_985, 2_397)
	snap, batches = growBatches(10_000, 1_000)
	check("grow_10k", snap, batches, 78_968, 3_750)
}
