package durability

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/mas"
)

// BenchmarkCompact is one compaction of a MAS-20-sized session (MAS at
// scale 0.2, ≈ 25 K rows) after 64 update batches shaped like the socket
// benchmark's durable_updates: three inserts — a Publication, a Writes and
// a Cite row — per batch, and every fourth batch deletes the rows of the
// four before it. Each iteration applies and logs its 64 batches with the
// timer stopped and times the Compact alone, so the figure is the stall a
// session's 64th update pays. ckpt_B/op and segs_written/op are what the
// checkpoint wrote.
func BenchmarkCompact(b *testing.B) {
	md := mas.Generate(mas.Config{Scale: 0.2, Seed: 1})
	m, err := NewManager(Options{Dir: b.TempDir(), Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := m.Create(Meta{Name: "bench"}, md.DB)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	head, version := md.DB.Freeze(), uint64(1)
	rowsOf := func(u int) []engine.Row {
		rng := rand.New(rand.NewSource(int64(u)))
		pid := engine.Int(10_000_000 + u)
		return []engine.Row{
			{Rel: "Publication", Vals: []engine.Value{pid, engine.Str(fmt.Sprintf("bench-t%d", u))}},
			{Rel: "Writes", Vals: []engine.Value{engine.Int(2 + rng.Intn(max(md.NumAuthors-1, 1))), pid}},
			{Rel: "Cite", Vals: []engine.Value{pid, engine.Int(1 + rng.Intn(md.NumPublications))}},
		}
	}
	var written, segs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 64; k++ {
			u := int(version) - 1
			ins, del := rowsOf(u), []engine.Row(nil)
			if u%4 == 3 {
				for j := max(u-4, 0); j < u; j++ {
					del = append(del, rowsOf(j)...)
				}
			}
			next, _, err := head.Apply(ins, del)
			if err != nil {
				b.Fatal(err)
			}
			version++
			if err := st.Append(&Record{Version: version, Inserts: ins, Deletes: del}); err != nil {
				b.Fatal(err)
			}
			head = next
		}
		b.StartTimer()
		if err := st.Compact(head, version); err != nil {
			b.Fatal(err)
		}
		written += st.LastCheckpoint().Bytes
		segs += int64(st.LastCheckpoint().Written)
	}
	b.ReportMetric(float64(written)/float64(b.N), "ckpt_B/op")
	b.ReportMetric(float64(segs)/float64(b.N), "segs_written/op")
}
