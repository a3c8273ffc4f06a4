package deltarepair_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	deltarepair "repro"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/durability"
)

// buildBenchWorkload models a production-shaped serving session: a
// 14-relation schema and a 24-rule program (cascades, multi-delta joins,
// and guard rules that plan but rarely fire) over a small hot instance, so
// per-request planning and execution-state setup — exactly what the
// session cache amortizes — are a realistic share of request cost.
func buildBenchWorkload(tb testing.TB) (*engine.Database, *datalog.Program) {
	return buildScaledBenchWorkload(tb, 1)
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

// buildScaledBenchWorkload is buildBenchWorkload with the bulk relations
// (T1..T6, Link) holding scale× as many rows. The extra rows sit below
// every guard threshold, so the repair itself stays fixed while the base
// — and anything that costs O(base) — grows: exactly the shape that
// separates O(changes) incremental updates from O(database) rebuilds.
func buildScaledBenchWorkload(tb testing.TB, scale int) (*engine.Database, *datalog.Program) {
	tb.Helper()
	schemaSrc := `
Seed(gid, tag)
T1(aid, bid)
T2(aid, bid)
T3(aid, bid)
T4(aid, bid)
T5(aid, bid)
T6(aid, bid)
Link(xid, yid)
`
	progSrc := `
(c0) Delta_Seed(g, t) :- Seed(g, t), t = 'drop'.
(r1) Delta_T1(a, b) :- T1(a, b), Delta_Seed(a, t).
(r2) Delta_T2(a, b) :- T2(a, b), Delta_T1(z, a), a > 1000.
(r3) Delta_T3(a, b) :- T3(a, b), Delta_T2(z, a), a > 1000.
(r4) Delta_T4(a, b) :- T4(a, b), Delta_T3(z, a), a > 1000.
(r5) Delta_T5(a, b) :- T5(a, b), Delta_T4(z, a), a > 1000.
(r6) Delta_T6(a, b) :- T6(a, b), Delta_T5(z, a), a > 1000.
(x1) Delta_Link(x, y) :- Link(x, y), Delta_T2(z, x), Delta_T4(w, y).
(x2) Delta_Link(x, y) :- Link(x, y), Delta_T1(z, x), Delta_T6(w, y), x != y.
(g1) Delta_T6(a, b) :- T6(a, b), T5(b, c), T4(c, d), a > 1000.
(g2) Delta_T5(a, b) :- T5(a, b), T4(b, c), T3(c, d), b > 1000.
(g3) Delta_T4(a, b) :- T4(a, b), Link(a, c), T6(c, d), a > 1000.
(g4) Delta_T3(a, b) :- T3(a, b), Link(b, c), T5(c, d), b > 1000.
(g5) Delta_T2(a, b) :- T2(a, b), T1(b, c), T3(c, d), a > 1000.
(g6) Delta_Link(x, y) :- Link(x, y), T2(x, z), T4(z, w), T6(w, u), x > 1000.
(g7) Delta_T1(a, b) :- T1(a, b), Link(b, c), T6(c, d), T5(d, e), a > 1000.
(g8) Delta_Seed(g, t) :- Seed(g, t), T1(g, x), T2(x, y), T3(y, z), g > 1000.
(g9) Delta_T6(a, b) :- T6(a, b), T1(a, c), T2(c, d), T3(d, e), a > 1000.
(u1) Delta_T1(a, b) :- T1(a, b), T3(b, c), T5(c, d), a > 1000.
(u2) Delta_T2(a, b) :- T2(a, b), T4(b, c), T6(c, d), a > 1000.
(u3) Delta_T3(a, b) :- T3(a, b), T5(b, c), T1(c, d), a > 1000.
(u4) Delta_T4(a, b) :- T4(a, b), T6(b, c), T2(c, d), a > 1000.
(u5) Delta_T5(a, b) :- T5(a, b), T1(b, c), T3(c, d), a > 1000.
(u6) Delta_T6(a, b) :- T6(a, b), T2(b, c), T4(c, d), a > 1000.
`
	schema, err := engine.ParseSchema(schemaSrc)
	if err != nil {
		tb.Fatal(err)
	}
	db := engine.NewDatabase(schema)
	db.MustInsert("Seed", engine.Int(1), engine.Str("drop"))
	db.MustInsert("Seed", engine.Int(2), engine.Str("keep"))
	for i := 0; i < 2; i++ {
		db.MustInsert("T1", engine.Int(1), engine.Int(10+i))
	}
	for r, rel := range []string{"T2", "T3", "T4", "T5", "T6"} {
		for i := 0; i < 2; i++ {
			db.MustInsert(rel, engine.Int(10+i), engine.Int(10+(i+r)%2))
		}
	}
	db.MustInsert("Link", engine.Int(10), engine.Int(11))
	db.MustInsert("Link", engine.Int(11), engine.Int(10))
	// Bulk rows beyond scale 1: ids 20.. keep clear of the hot 10/11 join
	// keys and the >1000 guards, adding base volume without repair work.
	for s := 1; s < scale; s++ {
		for _, rel := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "Link"} {
			for i := 0; i < 2; i++ {
				db.MustInsert(rel, engine.Int(20+2*s+i), engine.Int(20+2*s+(i+1)%2))
			}
		}
	}
	prog, err := datalog.ParseAndValidate(progSrc, schema)
	if err != nil {
		tb.Fatal(err)
	}
	return db, prog
}

// BenchmarkServerThroughput contrasts the serving hot path — cached
// session: Prepare once, Freeze once, fork per request behind admission
// control — against naive per-request Repair (re-plan + fork every call)
// at 1, 4, and 16 concurrent clients. ns/op is wall-clock per request
// across all clients, so 1/ns_per_op is the served request rate.
// TestSessionRepairAllocs pins a cached request's allocations.
func BenchmarkServerThroughput(b *testing.B) {
	db, prog := buildBenchWorkload(b)
	svcDB, svcProg := buildBenchWorkload(b)
	svc := openServer(b, server.Config{MaxInFlight: 32})
	if err := svc.Register("bench", svcDB.Schema, svcDB, svcProg); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	// Freeze the naive leg's base once up front so both legs share the
	// CoW fork machinery and the comparison isolates what the session
	// cache actually saves: per-request planning (datalog.Prepare) and
	// execution-state pooling.
	db.Freeze()

	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cached/c%d", clients), func(b *testing.B) {
			runClients(b, clients, func() error {
				_, _, _, err := svc.RepairVersioned(ctx, "bench", core.SemStage, server.RequestOptions{})
				return err
			})
		})
		b.Run(fmt.Sprintf("naive/c%d", clients), func(b *testing.B) {
			runClients(b, clients, func() error {
				_, _, err := deltarepair.Repair(db, prog, deltarepair.Stage)
				return err
			})
		})
	}
}

// BenchmarkSessionUpdate contrasts the two ways a serving system can
// follow base data that changes between requests:
//
//   - incremental: Service.Update applies a small delta to the live
//     session (new snapshot version, untouched relations share frozen
//     cores and warm indexes, prepared plans untouched), then repairs;
//   - reregister: what frozen sessions required before — evict the
//     session, rebuild the database from rows (re-intern everything),
//     re-register, and repair (re-prepare + re-freeze + cold indexes).
//
// The update_only legs isolate the Update call itself on a 1× and a 10×
// base where all growth is in relations the delta never touches
// (untouched relations share their cores). The update_touched legs do the
// same with a batch that inserts and deletes one row of T1 — a relation
// that does grow with the base, 1 000 rows against 10 000 — so their
// ratio is the evidence that an update seals its own rows instead of
// re-freezing the relation: ~1 with segment-structured cores, ~10 when
// every touched relation was flattened and re-frozen.
// TestSessionUpdateAllocsFlat pins both pairs' allocations as equal, and
// TestSessionRepairAllocs the incremental leg's.
func BenchmarkSessionUpdate(b *testing.B) {
	ctx := context.Background()

	b.Run("incremental", func(b *testing.B) {
		db, prog := buildScaledBenchWorkload(b, 1)
		svc := openServer(b, server.Config{})
		if err := svc.Register("inc", db.Schema, db, prog); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Update(ctx, "inc", seedRow(i), seedRow(i-1), server.RequestOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := svc.RepairVersioned(ctx, "inc", core.SemStage, server.RequestOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("reregister", func(b *testing.B) {
		svc := openServer(b, server.Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The full cost of following one base change without mutable
			// sessions: rebuild the instance (with the changed row), evict,
			// re-register (prepare + freeze), repair.
			db, prog := buildScaledBenchWorkload(b, 1)
			db.MustInsert("Seed", engine.Int(100+i%64), engine.Str("keep"))
			svc.Deregister("re")
			if err := svc.Register("re", db.Schema, db, prog); err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := svc.RepairVersioned(ctx, "re", core.SemStage, server.RequestOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, leg := range []struct {
		name  string
		scale int
		row   func(int) []deltarepair.Row
	}{{"update_only", 1, seedRow}, {"update_only_10x", 10, seedRow},
		{"update_touched", 500, t1Row}, {"update_touched_10x", 5000, t1Row}} {
		b.Run(leg.name, func(b *testing.B) {
			db, prog := buildScaledBenchWorkload(b, leg.scale)
			svc := openServer(b, server.Config{})
			if err := svc.Register("u", db.Schema, db, prog); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Update(ctx, "u", leg.row(i), leg.row(i-1), server.RequestOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// seedRow is update i of BenchmarkSessionUpdate's stream: iteration i
// inserts Seed row (100+i%64) and deletes the row inserted the previous
// iteration, so the session's size stays bounded and every batch does
// real work (set semantics: the slot re-inserted after a wrap was deleted
// 63 iterations earlier).
func seedRow(i int) []deltarepair.Row {
	return []deltarepair.Row{{Rel: "Seed", Vals: []engine.Value{engine.Int(100 + i%64), engine.Str("keep")}}}
}

// t1Row is seedRow's twin on T1, a relation that grows with the base.
func t1Row(i int) []deltarepair.Row {
	return []deltarepair.Row{{Rel: "T1", Vals: []engine.Value{engine.Int(500_000 + i%64), engine.Int(1)}}}
}

// runClients splits b.N requests across the given number of concurrent
// client goroutines and waits for all of them.
func runClients(b *testing.B, clients int, req func() error) {
	b.ReportAllocs()
	// Settle GC debt inherited from earlier benchmarks in the same
	// process so both legs start from comparable heaps.
	runtime.GC()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	per := b.N / clients
	extra := b.N % clients
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		n := per
		if c < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := req(); err != nil {
					errCh <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
}

// BenchmarkWALAppend measures the durable-update overhead in isolation:
// encoding one update batch into a length-prefixed, checksummed WAL frame
// and appending it. The fsync leg is the default durability mode (every
// batch survives power loss) and is dominated by the disk flush; the
// nofsync leg (-fsync=false, survives process crash only) is the
// encode+write cost the WAL adds to Service.Update on the in-memory path.
func BenchmarkWALAppend(b *testing.B) {
	rec := &durability.Record{
		Version: 1,
		Inserts: []engine.Row{
			{Rel: "T1", Vals: []engine.Value{engine.Int(1), engine.Int(2)}},
			{Rel: "T2", Vals: []engine.Value{engine.Int(3), engine.Int(4)}},
		},
		Deletes: []engine.Row{
			{Rel: "T3", Vals: []engine.Value{engine.Int(5), engine.Int(6)}},
		},
	}
	run := func(b *testing.B, policy durability.FsyncPolicy) {
		log, err := durability.OpenLog(filepath.Join(b.TempDir(), "wal.log"), policy)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Version = uint64(i + 1)
			if err := log.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fsync", func(b *testing.B) { run(b, durability.FsyncAlways) })
	b.Run("nofsync", func(b *testing.B) { run(b, durability.FsyncNever) })
}
