package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/tpch"
)

var loadSink *engine.Database

type savedDataset struct {
	name  string
	saved []byte
}

// savedDatasets are the socket benchmark's datasets, MAS at scale 0.1 and
// TPC-H at 0.01, saved with the first column of every relation indexed,
// as a served session's snapshot carries the columns its program probes.
func savedDatasets(tb testing.TB) []savedDataset {
	tb.Helper()
	var out []savedDataset
	for _, ds := range []struct {
		name string
		db   *engine.Database
	}{
		{"mas-0.1", mas.Generate(mas.Config{Scale: 0.1, Seed: 1}).DB},
		{"tpch-0.01", tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1}).DB},
	} {
		for _, rs := range ds.db.Schema.Relations {
			ds.db.Relation(rs.Name).EnsureIndex(0)
		}
		var buf bytes.Buffer
		if err := ds.db.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, savedDataset{ds.name, buf.Bytes()})
	}
	return out
}

// BenchmarkLoadSnapshot times restoring a saved database — its layout
// frame and one segment frame per relation side, decoded as crash
// recovery decodes a checkpoint — for savedDatasets.
func BenchmarkLoadSnapshot(b *testing.B) {
	for _, ds := range savedDatasets(b) {
		b.Run(ds.name, func(b *testing.B) {
			b.SetBytes(int64(len(ds.saved)))
			for b.Loop() {
				db, err := engine.LoadSnapshot(bytes.NewReader(ds.saved))
				if err != nil {
					b.Fatal(err)
				}
				loadSink = db
			}
		})
	}
}

// TestLoadSnapshotAllocs pins BenchmarkLoadSnapshot's allocation counts
// within ± 10 %: a load allocates per relation and per segment, not per
// row or per indexed value.
func TestLoadSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	want := map[string]float64{"mas-0.1": 793, "tpch-0.01": 816}
	for _, ds := range savedDatasets(t) {
		got := testing.AllocsPerRun(5, func() {
			if _, err := engine.LoadSnapshot(bytes.NewReader(ds.saved)); err != nil {
				t.Fatal(err)
			}
		})
		if w := want[ds.name]; got < 0.9*w || got > 1.1*w {
			t.Errorf("LoadSnapshot %s: %.0f allocs, want %.0f ± 10 %%: an index build or a segment decode allocates per value again", ds.name, got, w)
		}
	}
}
