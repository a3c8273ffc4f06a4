package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// saveDigest pins the on-disk snapshot bytes: one SHA-256 over 400 Save
// outputs, gen seeds 1–200 each saved as generated and again after moving
// every third base tuple to delta and inserting one row whose columns
// alternate float, string and int values (so columns turn mixed-kind). A
// change to the encoder that alters a single byte of any snapshot changes
// it; re-record it only for a deliberate format change. (gob numbers the
// layout frame's types per process, in first-use order; this test binary
// encodes no other gob type.)
const saveDigest = "e3cc7a7efb0f24286532dc884a33fb7a05ea5975ec8887f1df8ee61747d6edfa"

func TestSnapshotSaveBytesPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 200; seed++ {
		db := gen.Generate(seed).DB
		if err := db.Save(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rs := range db.Schema.Relations {
			for i, tp := range db.Relation(rs.Name).Tuples() {
				if i%3 == 0 {
					db.DeleteTupleToDelta(tp)
				}
			}
		}
		rs := db.Schema.Relations[0]
		vals := make([]engine.Value, rs.Arity())
		for c := range vals {
			switch c % 3 {
			case 0:
				vals[c] = engine.Float(float64(c) + 0.5)
			case 1:
				vals[c] = engine.Str("mixed")
			default:
				vals[c] = engine.Int(-c)
			}
		}
		db.MustInsert(rs.Name, vals...)
		if err := db.Save(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != saveDigest {
		t.Fatalf("snapshot Save bytes drifted: digest %s, pinned %s", got, saveDigest)
	}
}
