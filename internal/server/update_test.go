package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/programs"
	"repro/internal/sat"
)

// Service-level tests for mutable sessions: versioned updates,
// read-your-writes pinning, retention, warm-start result caching, and
// isolation between versions.

func row(rel string, vals ...engine.Value) engine.Row { return engine.Row{Rel: rel, Vals: vals} }

func TestServiceUpdateBasics(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	ctx := context.Background()

	base, _, v1, err := svc.RepairVersioned(ctx, "papers", core.SemStage, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 {
		t.Fatalf("initial version %d, want 1", v1)
	}

	// Delete the second author-grant edge: Marge no longer cascades.
	res, err := svc.Update(ctx, "papers", nil, []engine.Row{row("AuthGrant", engine.Int(4), engine.Int(2))}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Deleted != 1 || res.Inserted != 0 {
		t.Fatalf("update result %+v", res)
	}
	if len(res.Changed) != 1 || res.Changed[0] != "AuthGrant" {
		t.Fatalf("changed relations %v", res.Changed)
	}

	after, _, v2, err := svc.RepairVersioned(ctx, "papers", core.SemStage, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("head version %d, want 2", v2)
	}
	if after.Size() >= base.Size() {
		t.Fatalf("removing a cascade root should shrink the repair: %d vs %d", after.Size(), base.Size())
	}
	if after.Contains(`Author(i4,"Marge")`) {
		t.Error("Marge still deleted after her grant edge was removed")
	}

	// Read-your-writes: pinning version 1 reproduces the original repair.
	pinned, _, pv, err := svc.RepairVersioned(ctx, "papers", core.SemStage, RequestOptions{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pv != 1 || keysOf(pinned) != keysOf(base) {
		t.Fatalf("pinned v1 drifted: %s vs %s", keysOf(pinned), keysOf(base))
	}

	// Session stats surface the version state.
	info := svc.Sessions()[0]
	if info.Version != 2 || info.OldestVersion != 1 || info.RetainedVersions != 2 || info.Updates != 1 {
		t.Fatalf("session info version state: %+v", info)
	}
}

func TestServiceUpdateSchemaMismatchIs409Class(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	ctx := context.Background()

	if _, err := svc.Update(ctx, "papers", []engine.Row{row("Nope", engine.Int(1))}, nil, RequestOptions{}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("unknown relation: got %v, want ErrSchemaMismatch", err)
	}
	if _, err := svc.Update(ctx, "papers", []engine.Row{row("Author", engine.Int(1))}, nil, RequestOptions{}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("arity mismatch: got %v, want ErrSchemaMismatch", err)
	}
	// A failed update must not mint a version.
	if info := svc.Sessions()[0]; info.Updates != 0 || info.Version != 1 {
		t.Fatalf("failed updates advanced the session: %+v", info)
	}
	if _, err := svc.Update(ctx, "missing", nil, nil, RequestOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown session: got %v, want ErrNotFound", err)
	}
}

func TestServiceVersionRetention(t *testing.T) {
	svc := openService(t, Config{MaxVersions: 2})
	register(t, svc, "papers")
	ctx := context.Background()

	// Mint versions 2 and 3; with a window of 2, version 1 is evicted.
	for i := 0; i < 2; i++ {
		if _, err := svc.Update(ctx, "papers", []engine.Row{row("Pub", engine.Int(100+i), engine.Str("t"))}, nil, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemEnd, RequestOptions{Version: 1}); !errors.Is(err, ErrVersionGone) {
		t.Errorf("evicted version: got %v, want ErrVersionGone", err)
	}
	if _, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemEnd, RequestOptions{Version: 99}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("future version: got %v, want ErrBadRequest", err)
	}
	for _, v := range []uint64{2, 3} {
		if _, _, got, err := svc.RepairVersioned(ctx, "papers", core.SemEnd, RequestOptions{Version: v}); err != nil || got != v {
			t.Errorf("retained version %d: got %d, err %v", v, got, err)
		}
	}
}

// TestServiceWarmStartCacheCorrectness drives the cache-sensitive paths
// directly: repeated repairs at one version (replay), repairs after
// updates to a relation no rule reads (probe replay), an insert-only
// cascade and a mixed update (both recompute) — every answer must equal
// that of a fresh registration of the same content.
func TestServiceWarmStartCacheCorrectness(t *testing.T) {
	ctx := context.Background()
	// Audit is in the schema but referenced by no rule.
	schemaSrc := "A(x)\nB(x, y)\nAudit(x)"
	progSrc := `
		Delta_A(x) :- A(x), x > 5.
		Delta_B(x, y) :- B(x, y), Delta_A(x).
	`
	build := func(content []engine.Row) *Service {
		svc := openService(t, Config{})
		schema, err := engine.ParseSchema(schemaSrc)
		if err != nil {
			t.Fatal(err)
		}
		db := engine.NewDatabase(schema)
		for _, r := range content {
			db.MustInsert(r.Rel, r.Vals...)
		}
		prog, err := datalog.ParseAndValidate(progSrc, schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Register("s", schema, db, prog); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	var content []engine.Row
	for i := 0; i < 10; i++ {
		content = append(content, row("A", engine.Int(i)), row("B", engine.Int(i), engine.Int(i+1)))
	}
	warmSvc := build(content)
	sortedKeys := func(res *core.Result) string { return fmt.Sprint(slices.Sorted(slices.Values(res.Keys()))) }

	steps := []struct {
		name             string
		inserts, deletes []engine.Row
	}{
		{"outside-read-set", []engine.Row{row("Audit", engine.Int(1))}, nil},
		{"insert-only-cascade", []engine.Row{row("A", engine.Int(11)), row("B", engine.Int(11), engine.Int(3))}, nil},
		{"mixed", []engine.Row{row("A", engine.Int(12))}, []engine.Row{row("A", engine.Int(7))}},
		{"delete-only", nil, []engine.Row{row("B", engine.Int(8), engine.Int(9))}},
	}
	for _, step := range steps {
		// warmSvc accumulates cached results version over version; coldRef
		// is a fresh registration of the step's content, so it has no
		// history to warm-start from.
		if _, err := warmSvc.Update(ctx, "s", step.inserts, step.deletes, RequestOptions{}); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for _, d := range step.deletes {
			content = slices.DeleteFunc(content, func(r engine.Row) bool { return fmt.Sprint(r) == fmt.Sprint(d) })
		}
		content = append(content, step.inserts...)
		coldRef := build(content)
		for _, sem := range core.AllSemantics {
			warm, _, _, err := warmSvc.RepairVersioned(ctx, "s", sem, RequestOptions{})
			if err != nil {
				t.Fatalf("%s/%s warm: %v", step.name, sem, err)
			}
			cold, _, _, err := coldRef.RepairVersioned(ctx, "s", sem, RequestOptions{})
			if err != nil {
				t.Fatalf("%s/%s cold: %v", step.name, sem, err)
			}
			if sortedKeys(warm) != sortedKeys(cold) {
				t.Fatalf("%s/%s: warm-start drifted: %s vs %s", step.name, sem, sortedKeys(warm), sortedKeys(cold))
			}
			// Replay at the same version must also agree.
			again, _, _, err := warmSvc.RepairVersioned(ctx, "s", sem, RequestOptions{})
			if err != nil || sortedKeys(again) != sortedKeys(cold) {
				t.Fatalf("%s/%s: replay drifted (err=%v)", step.name, sem, err)
			}
		}
		warmStable, _, err := warmSvc.IsStableVersioned(ctx, "s", RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		coldStable, _, err := coldRef.IsStableVersioned(ctx, "s", RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if warmStable != coldStable {
			t.Fatalf("%s: stability warm %v, cold %v", step.name, warmStable, coldStable)
		}
	}
}

// TestServiceStableInsertThenDelete: stability probes may skip versions,
// and a violation inserted at one unprobed version and deleted at the next
// must leave no trace: the later version, known stable before the insert,
// is stable, and the pinned version holding the violation is not.
func TestServiceStableInsertThenDelete(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{})
	schema, err := engine.ParseSchema("R(x)\nS(x)")
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	db.MustInsert("S", engine.Int(5)) // R empty: stable
	prog, err := datalog.ParseAndValidate("Delta_R(x) :- R(x), S(x).", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("s", schema, db, prog); err != nil {
		t.Fatal(err)
	}
	// v1 known stable (cached).
	if stable, _, err := svc.IsStableVersioned(ctx, "s", RequestOptions{}); err != nil || !stable {
		t.Fatalf("v1 should be stable (err=%v)", err)
	}
	// v2: insert R(5) — NOT probed, so the stable cache stays at v1.
	if _, err := svc.Update(ctx, "s", []engine.Row{row("R", engine.Int(5))}, nil, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	// v3: delete R(5) again.
	if _, err := svc.Update(ctx, "s", nil, []engine.Row{row("R", engine.Int(5))}, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	stable, v, err := svc.IsStableVersioned(ctx, "s", RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || !stable {
		t.Fatalf("v%d reported stable=%v; R is empty, the database is stable", v, stable)
	}
	// And a version where the insert IS live must still be caught: probe
	// pinned v2, where R(5) joins S(5).
	stable, _, err = svc.IsStableVersioned(ctx, "s", RequestOptions{Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Fatal("v2 has the violation live and must be unstable")
	}
}

// TestServiceReplayRespectsSolverBudget: a budget-truncated independent
// repair must not be replayed for a request with a different SAT budget
// — the cache is keyed on the effective budget for independent
// semantics.
func TestServiceReplayRespectsSolverBudget(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{})
	register(t, svc, "papers")

	// Cold reference under the default (unlimited) budget.
	coldSvc := openService(t, Config{})
	register(t, coldSvc, "papers")
	want, _, _, err := coldSvc.RepairVersioned(ctx, "papers", core.SemIndependent, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Prime the cache with a 1-node budget (truncated, normally
	// non-optimal).
	truncated, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemIndependent, RequestOptions{SolverMaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Now ask with the default budget: must NOT replay the truncated
	// result.
	got, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemIndependent, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if keysOf(got) != keysOf(want) || got.Optimal != want.Optimal {
		t.Fatalf("default-budget repair got %s (optimal=%v), want %s (optimal=%v) — truncated result (%s, optimal=%v) leaked through the cache",
			keysOf(got), got.Optimal, keysOf(want), want.Optimal, keysOf(truncated), truncated.Optimal)
	}
	// Same budget twice IS allowed to replay — and must agree with cold.
	again, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemIndependent, RequestOptions{})
	if err != nil || keysOf(again) != keysOf(want) {
		t.Fatalf("same-budget replay drifted (err=%v)", err)
	}
}

// TestSolverBudgetCeiling: a request's solver_max_nodes lowers the
// daemon's SAT budget but cannot raise it. A huge requested budget on an
// instance the ceiling truncates runs at the ceiling; with no configured
// budget the ceiling is the solver's default.
func TestSolverBudgetCeiling(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{SolverMaxNodes: 1})
	register(t, svc, "papers")
	huge, _, _, err := svc.RepairVersioned(ctx, "papers", core.SemIndependent, RequestOptions{SolverMaxNodes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if huge.Optimal || huge.SolverNodes > 2 {
		t.Fatalf("a 1<<40-node request under a 1-node ceiling searched %d nodes (optimal=%v): the request raised the daemon's budget",
			huge.SolverNodes, huge.Optimal)
	}
	for _, tc := range []struct {
		cfg, req, want int64
	}{
		{0, 0, sat.DefaultMaxNodes},
		{0, 1 << 40, sat.DefaultMaxNodes},
		{0, 5, 5},
		{100, 0, 100},
		{100, 1000, 100},
		{100, 5, 5},
	} {
		if got := openService(t, Config{SolverMaxNodes: tc.cfg}).solverBudget(RequestOptions{SolverMaxNodes: tc.req}); got != tc.want {
			t.Errorf("solverBudget(config %d, request %d) = %d, want %d", tc.cfg, tc.req, got, tc.want)
		}
	}
}

// TestServiceUpdateRepairHammer interleaves updates with repairs,
// stability probes, and pinned reads on ONE session from many
// goroutines: every repair response must match the expected result for
// the version it reports — proving forks are isolated across versions
// while the head advances underneath them.
func TestServiceUpdateRepairHammer(t *testing.T) {
	ctx := context.Background()
	svc := openService(t, Config{MaxInFlight: 16, MaxVersions: 64})
	register(t, svc, "hot")

	// Expected result per version, computed on demand from an independent
	// replica of the version's contents. Version v has pubs 1000..1000+v-2
	// added (one per update).
	expectedMu := sync.Mutex{}
	expected := map[uint64]string{}
	expectFor := func(v uint64) string {
		expectedMu.Lock()
		defer expectedMu.Unlock()
		if s, ok := expected[v]; ok {
			return s
		}
		db := programs.RunningExampleDB()
		for i := uint64(0); i+2 <= v; i++ {
			db.MustInsert("Pub", engine.Int(int(1000+i)), engine.Str("extra"))
			db.MustInsert("Writes", engine.Int(5), engine.Int(int(1000+i)))
		}
		prog, err := datalog.ParseAndValidate(programs.RunningExampleSource, db.Schema)
		if err != nil {
			panic(err)
		}
		res, _, err := core.RunWith(db, prog, core.SemStage, core.Options{})
		if err != nil {
			panic(err)
		}
		expected[v] = keysOf(res)
		return expected[v]
	}

	const (
		updates = 24
		readers = 8
		iters   = 30
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers*iters+updates)

	// Writer: serial updates, each adding a pub Homer writes (the stage
	// repair grows by one Pub + one Writes per version).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			res, err := svc.Update(ctx, "hot", []engine.Row{
				row("Pub", engine.Int(1000+i), engine.Str("extra")),
				row("Writes", engine.Int(5), engine.Int(1000+i)),
			}, nil, RequestOptions{})
			if err != nil {
				errCh <- fmt.Errorf("update %d: %w", i, err)
				return
			}
			if res.Version != uint64(i+2) {
				errCh <- fmt.Errorf("update %d minted version %d", i, res.Version)
				return
			}
		}
	}()

	// Readers: repair at head or at a pinned version; whatever version
	// the response names, the result must be that version's.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seen []uint64
			for i := 0; i < iters; i++ {
				opts := RequestOptions{}
				if len(seen) > 0 && i%3 == 0 {
					opts.Version = seen[i%len(seen)] // pin an earlier version
				}
				res, _, v, err := svc.RepairVersioned(ctx, "hot", core.SemStage, opts)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				if opts.Version != 0 && v != opts.Version {
					errCh <- fmt.Errorf("reader %d: pinned %d, executed %d", w, opts.Version, v)
					return
				}
				if got, want := keysOf(res), expectFor(v); got != want {
					errCh <- fmt.Errorf("reader %d: version %d result drifted:\n got %s\nwant %s", w, v, got, want)
					return
				}
				seen = append(seen, v)
				if i%5 == 4 {
					if _, _, err := svc.IsStableVersioned(ctx, "hot", RequestOptions{}); err != nil {
						errCh <- fmt.Errorf("reader %d stability: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Post-storm: the head answers the final version's expected result.
	res, _, v, err := svc.RepairVersioned(ctx, "hot", core.SemStage, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v != updates+1 {
		t.Fatalf("final head %d, want %d", v, updates+1)
	}
	if keysOf(res) != expectFor(v) {
		t.Fatalf("final head drifted")
	}
}
