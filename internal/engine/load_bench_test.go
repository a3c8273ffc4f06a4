package engine_test

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/tpch"
)

var loadSink *engine.Database

// BenchmarkLoadSnapshot times restoring a saved database — its layout
// frame and one segment frame per relation side, decoded as crash
// recovery decodes a checkpoint — for the socket benchmark's datasets, MAS
// at scale 0.1 and TPC-H at 0.01, saved with the first column of every
// relation indexed, as a served session's snapshot carries the columns its
// program probes.
func BenchmarkLoadSnapshot(b *testing.B) {
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
			b.Fatal(err)
		}
		b.Run(ds.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			for b.Loop() {
				db, err := engine.LoadSnapshot(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				loadSink = db
			}
		})
	}
}
