package deltarepair_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
)

// BenchmarkSnapshotApply is the layer benchmark under `/update`: one
// engine.Snapshot.Apply per iteration, the versions chained (each Apply
// runs on the previous one's result). ns/op is the mean and pays for every
// compaction the run crosses; p50_us is the median single Apply, p99_us
// the tail. rows_sealed/row_changed is the write amplification: rows
// written into new segments per row the batches changed.
//
//   - durable_updates is the socket benchmark's workload of that name —
//     MAS-20 at scale 0.2, each batch inserting one row into Publication,
//     Writes and Cite, every fourth batch also deleting the twelve rows of
//     the four batches before it — with the indexes the program probes
//     warmed by one stability check, as a served session's are. Every
//     delete hits a row still in the recent segment, so a touched relation
//     stays [untouched base, recent of ≤ 12 rows] however long the run: it
//     measures the seal alone, never a spill or a fold.
//   - grow_10k and grow_100k are what the compaction tiers exist for: one
//     two-column relation of that many rows, both columns warm, each batch
//     inserting three new rows and every fourth also deleting the three
//     oldest base rows. The relation grows and its base collects
//     tombstones, so recent spills into middle every few batches and
//     everything folds into a new base about every n/30 batches; run it
//     with -benchtime=20000x so both legs cross several folds. These legs
//     are what the constants on engine's maxSegments were chosen on.
func BenchmarkSnapshotApply(b *testing.B) {
	b.Run("durable_updates", func(b *testing.B) {
		snap, batches := durableUpdatesBatches(b, b.N)
		runApplies(b, snap, batches)
	})
	for _, leg := range []struct {
		name string
		rows int
	}{{"grow_10k", 10_000}, {"grow_100k", 100_000}} {
		b.Run(leg.name, func(b *testing.B) {
			snap, batches := growBatches(leg.rows, b.N)
			runApplies(b, snap, batches)
		})
	}
}

// durableUpdatesBatches builds BenchmarkSnapshotApply's durable_updates
// leg: MAS-20's frozen base, its probed indexes warm, and n batches.
func durableUpdatesBatches(tb testing.TB, n int) (*engine.Snapshot, []applyBatch) {
	tb.Helper()
	md := mas.Generate(mas.Config{Scale: 0.2, Seed: 1})
	prog, err := programs.MAS(20, md)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := datalog.Prepare(prog, md.DB.Schema)
	if err != nil {
		tb.Fatal(err)
	}
	snap := md.DB.Freeze()
	if _, err := core.CheckStable(snap.Fork(), nil, core.Options{Prepared: prep}); err != nil {
		tb.Fatal(err)
	}
	rowsOf := func(u int) []engine.Row {
		rng := rand.New(rand.NewSource(int64(u)))
		pid := engine.Int(10_000_000 + u*4)
		return []engine.Row{
			{Rel: "Publication", Vals: []engine.Value{pid, engine.Str(fmt.Sprintf("bench-t%d", u))}},
			{Rel: "Writes", Vals: []engine.Value{engine.Int(2 + rng.Intn(max(md.NumAuthors-1, 1))), pid}},
			{Rel: "Cite", Vals: []engine.Value{pid, engine.Int(1 + rng.Intn(md.NumPublications))}},
		}
	}
	batches := make([]applyBatch, n)
	for u := range batches {
		batches[u].ins = rowsOf(u)
		if u%4 == 3 {
			for k := max(u-4, 0); k < u; k++ {
				batches[u].del = append(batches[u].del, rowsOf(k)...)
			}
		}
	}
	return snap, batches
}

// growBatches builds a grow leg of BenchmarkSnapshotApply: a frozen
// relation of rows rows, both columns indexed, and n batches.
func growBatches(rows, n int) (*engine.Snapshot, []applyBatch) {
	schema := engine.NewSchema()
	schema.MustAddRelation("R", "r", "id", "grp")
	db := engine.NewDatabase(schema)
	row := func(i int) engine.Row {
		return engine.Row{Rel: "R", Vals: []engine.Value{engine.Int(i), engine.Int(i % 97)}}
	}
	for i := 0; i < rows; i++ {
		db.MustInsert("R", row(i).Vals...)
	}
	db.Relation("R").EnsureIndex(0)
	db.Relation("R").EnsureIndex(1)
	batches := make([]applyBatch, n)
	for u := range batches {
		batches[u].ins = []engine.Row{row(rows + 3*u), row(rows + 3*u + 1), row(rows + 3*u + 2)}
		if u%4 == 3 {
			batches[u].del = []engine.Row{row(3 * (u / 4)), row(3*(u/4) + 1), row(3*(u/4) + 2)}
		}
	}
	return db.Freeze(), batches
}

type applyBatch struct{ ins, del []engine.Row }

// runApplies times the chain of Applies and reports the per-Apply latency
// quantiles and the write amplification beside ns/op.
func runApplies(b *testing.B, snap *engine.Snapshot, batches []applyBatch) {
	durs := make([]time.Duration, len(batches))
	sealed, changed := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for u, batch := range batches {
		start := time.Now()
		next, info, err := snap.Apply(batch.ins, batch.del)
		durs[u] = time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		sealed += info.RowsSealed
		changed += info.Inserted + info.Deleted
		snap = next
	}
	b.StopTimer()
	slices.Sort(durs)
	b.ReportMetric(float64(durs[len(durs)/2].Nanoseconds())/1e3, "p50_us")
	b.ReportMetric(float64(durs[len(durs)*99/100].Nanoseconds())/1e3, "p99_us")
	b.ReportMetric(float64(sealed)/float64(max(changed, 1)), "rows_sealed/row_changed")
}
