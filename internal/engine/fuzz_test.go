package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParseValue: parsing never panics, and the parsed value's display
// form re-parses to an equal value of the same kind.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"42", "-1", "2.5", "'x'", `"y"`, "hello", "", " 13 ", "1e9", "'a,b'", "i1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		v := ParseValue(src)
		back := ParseValue(v.String())
		if !back.Equal(v) {
			// Strings containing quote characters render quoted and lose
			// the outer quotes on re-parse; only flag kind flips for
			// simple content.
			if v.Kind != KindString || !strings.ContainsAny(v.Str, "'\"") {
				t.Fatalf("round trip changed value: %#v -> %q -> %#v", v, v.String(), back)
			}
		}
	})
}

// fuzzDumpDB renders every relation's live base and delta content —
// IDs, sequence numbers, values — as one canonical string for
// round-trip comparisons.
func fuzzDumpDB(db *Database) string {
	var b strings.Builder
	for _, rs := range db.Schema.Relations {
		for _, side := range []struct {
			name string
			rel  *Relation
		}{{"base", db.base[rs.Name]}, {"delta", db.delta[rs.Name]}} {
			fmt.Fprintf(&b, "%s/%s:", rs.Name, side.name)
			side.rel.Scan(func(t *Tuple) bool {
				fmt.Fprintf(&b, " %s#%d%v", t.ID, t.Seq, t.Vals)
				return true
			})
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FuzzSnapshot: loading arbitrary bytes never panics; it either errors or
// yields a database that survives, content-identical, a freeze (sealing
// segments and probing each one's first column), a fold of those segments
// and a save/load round-trip. Each input is also loaded with its frames'
// headers rewritten to fit their bytes, so mutations reach the payload
// decoders past the checksums.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotBytes(t, data)
		checkSnapshotBytes(t, reframe(data))
	})
}

// reframe returns data with every frame's checksum rewritten, and the
// length of a last frame that does not fit.
func reframe(data []byte) []byte {
	out := slices.Clone(data)
	for rest := out; len(rest) >= frameHeader; {
		var frame []byte
		frame, rest = cutFrame(rest)
		sealFrame(frame, 0)
	}
	return out
}

func checkSnapshotBytes(t *testing.T, data []byte) {
	t.Helper()
	db, err := LoadSnapshot(strings.NewReader(string(data)))
	if err != nil {
		return
	}
	_ = db.TotalTuples()
	_ = db.Stats()
	ref := fuzzDumpDB(db)

	// Freeze into sealed segments, probe column 0 of each (building its
	// index), then fold every overlay into a private one-segment core:
	// content must be untouched.
	db.Freeze()
	if got := fuzzDumpDB(db); got != ref {
		t.Fatalf("freeze changed content:\n%s\nwant:\n%s", got, ref)
	}
	for _, rs := range db.Schema.Relations {
		for _, rel := range []*Relation{db.base[rs.Name], db.delta[rs.Name]} {
			if rel.Arity > 0 {
				rel.LookupEach(0, Int(0), func(*Tuple) bool { return true })
			}
			rel.adopt(rel.reseal(0, false, nil, new(sealStats)))
		}
	}
	if got := fuzzDumpDB(db); got != ref {
		t.Fatalf("fold changed content:\n%s\nwant:\n%s", got, ref)
	}

	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	rdb, err := LoadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := fuzzDumpDB(rdb); got != ref {
		t.Fatalf("round trip changed content:\n%s\nwant:\n%s", got, ref)
	}
}
