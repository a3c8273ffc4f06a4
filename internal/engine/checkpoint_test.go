package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkpointDB is a three-relation database whose columns cover every cell
// encoding: integers, strings, floats (NaN and -0.0 among them) and one
// column mixing all three kinds.
func checkpointDB(t *testing.T) *Database {
	t.Helper()
	schema := NewSchema()
	for _, r := range []struct {
		name  string
		attrs []string
	}{{"R", []string{"a", "b"}}, {"S", []string{"x", "y", "z"}}, {"T", []string{"v"}}} {
		if _, err := schema.AddRelation(r.name, "", r.attrs...); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDatabase(schema)
	for i := 0; i < 300; i++ {
		db.MustInsert("R", Int(i), Str(fmt.Sprintf("r%d", i%17)))
		var mixed Value
		switch i % 3 {
		case 0:
			mixed = Int(i)
		case 1:
			mixed = Float(float64(i) / 4)
		default:
			mixed = Str(fmt.Sprint(i))
		}
		db.MustInsert("S", Str(fmt.Sprintf("s%d", i)), mixed, Float(float64(i)*1.5))
	}
	db.MustInsert("S", Str("nan"), Float(math.NaN()), Float(math.Copysign(0, -1)))
	db.MustInsert("T", Int(7))
	return db
}

// checkpointBatch returns the rows of one update batch of a walk: inserts
// into R and S, and deletes of rows the walk inserted earlier and of
// original rows.
func checkpointBatch(rng *rand.Rand, step int) (ins, del []Row) {
	for j := 0; j < 1+rng.Intn(6); j++ {
		k := 1000 + step*8 + j
		ins = append(ins, Row{Rel: "R", Vals: []Value{Int(k), Str(fmt.Sprintf("n%d", k%5))}})
	}
	if step%3 == 0 {
		ins = append(ins, Row{Rel: "S", Vals: []Value{Str(fmt.Sprintf("t%d", step)), Int(step), Float(0.5)}})
	}
	for j := 0; j < rng.Intn(4); j++ {
		k := 1000 + rng.Intn(step*8+1)
		del = append(del, Row{Rel: "R", Vals: []Value{Int(k), Str(fmt.Sprintf("n%d", k%5))}})
	}
	if step%5 == 0 {
		k := rng.Intn(300)
		del = append(del, Row{Rel: "R", Vals: []Value{Int(k), Str(fmt.Sprintf("r%d", k%17))}})
	}
	return ins, del
}

// reloadLayout writes every segment of the snapshot's layout to bytes and
// loads the layout back from them.
func reloadLayout(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	l := s.Layout()
	for i := range l.Relations {
		rl := &l.Relations[i]
		for _, sl := range []*SideLayout{&rl.Base, &rl.Delta} {
			for j, seg := range sl.Segments {
				back, err := DecodeSegment(AppendSegment(nil, seg), rl.Name, len(rl.Attrs))
				if err != nil {
					t.Fatalf("%s segment %d: %v", rl.Name, j, err)
				}
				sl.Segments[j] = back
			}
		}
	}
	back, err := LoadLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// layoutShape renders each side's segment lengths and tombstone counts.
func layoutShape(s *Snapshot) string {
	var b strings.Builder
	l := s.Layout()
	fmt.Fprintf(&b, "seq %d\n", l.NextSeq)
	for _, rl := range l.Relations {
		fmt.Fprintf(&b, "%s next %d warm %v/%v:", rl.Name, rl.NextID, rl.Base.Warm, rl.Delta.Warm)
		for _, sl := range []SideLayout{rl.Base, rl.Delta} {
			for i, seg := range sl.Segments {
				fmt.Fprintf(&b, " %d-%d", seg.Len(), CountDeleted(sl.Tombs[i]))
			}
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLayoutRoundTrip: along an update walk that crosses every compaction
// tier, a snapshot written segment by segment and loaded back has the same
// content, the same segment lengths and tombstones, the same counters and
// the same warm columns — and the next update on the reloaded snapshot
// seals exactly what it seals on the original.
func TestLayoutRoundTrip(t *testing.T) {
	db := checkpointDB(t)
	db.Relation("R").EnsureIndex(1)
	snap := db.Freeze()
	rng := rand.New(rand.NewSource(3))
	tiers := map[int]bool{}
	for step := 1; step <= 240; step++ {
		ins, del := checkpointBatch(rng, step)
		next, _, err := snap.Apply(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		snap = next
		tiers[len(snap.base["R"].segs)] = true
		if step%12 != 0 {
			continue
		}
		back := reloadLayout(t, snap)
		if got, want := fuzzDumpDB(back.Fork()), fuzzDumpDB(snap.Fork()); got != want {
			t.Fatalf("step %d: content differs:\n%s\nwant:\n%s", step, got, want)
		}
		if got, want := layoutShape(back), layoutShape(snap); got != want {
			t.Fatalf("step %d: layout differs:\n%s\nwant:\n%s", step, got, want)
		}
		ins, del = checkpointBatch(rng, step+1000)
		a, ai, err := snap.Apply(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		b, bi, err := back.Apply(ins, del)
		if err != nil {
			t.Fatal(err)
		}
		if fuzzDumpDB(a.Fork()) != fuzzDumpDB(b.Fork()) || layoutShape(a) != layoutShape(b) ||
			ai.RowsSealed != bi.RowsSealed || ai.Compactions != bi.Compactions {
			t.Fatalf("step %d: the next update diverged after the reload:\n%s\nwant:\n%s", step, layoutShape(b), layoutShape(a))
		}
	}
	if !tiers[1] || !tiers[2] || !tiers[3] {
		t.Fatalf("walk never held every segment count: %v", tiers)
	}
}

// TestAppendSegmentPublishesNothing: writing a segment leaves its lazily
// built read structures — the hash indexes and the content-intern map — as
// they were, whether they are built or not, and encodes the same bytes
// either way.
func TestAppendSegmentPublishesNothing(t *testing.T) {
	seg := checkpointDB(t).Freeze().base["S"].segs[0]
	unchanged := func(when string, write func() []byte) []byte {
		t.Helper()
		idx, keys := seg.indexes.Load(), seg.keys.Load()
		data := write()
		if seg.indexes.Load() != idx || seg.keys.Load() != keys {
			t.Fatalf("AppendSegment on a %s segment changed its indexes or its intern map", when)
		}
		return data
	}
	cold := unchanged("cold", func() []byte { return AppendSegment(nil, seg) })
	seg.index(0)
	seg.keyMap()
	if warm := unchanged("warm", func() []byte { return AppendSegment(nil, seg) }); string(warm) != string(cold) {
		t.Fatal("a segment with built indexes encodes differently from a cold one")
	}
}

func TestDecodeSegmentRejects(t *testing.T) {
	seg := checkpointDB(t).Freeze().base["R"].segs[0]
	good := AppendSegment(nil, seg)
	if _, err := DecodeSegment(good, "R", 2); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 1
	dup := sealRows("R", 2, []Value{Int(1), Str("a"), Int(1), Str("a")}, []string{"r1", "r2"}, []int{1, 2}, nil).segs[0]
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "shorter than its header"},
		{"truncated", good[:len(good)-1], "payload bytes"},
		{"flipped", flipped, "checksum"},
		{"wrong arity", good, "arity"},
		{"duplicate content", AppendSegment(nil, dup), "twice"},
	} {
		arity := 2
		if c.name == "wrong arity" {
			arity = 3
		}
		if _, err := DecodeSegment(c.data, "R", arity); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestLoadLayoutRejects(t *testing.T) {
	snap := checkpointDB(t).Freeze()
	for _, c := range []struct {
		name string
		edit func(l *Layout)
		want string
	}{
		{"four segments", func(l *Layout) {
			s := l.Relations[0].Base.Segments[0]
			l.Relations[0].Base.Segments = []*Segment{s, s, s, s}
		}, "at most"},
		{"segment twice", func(l *Layout) {
			l.Relations[0].Delta.Segments = l.Relations[0].Base.Segments
		}, "twice"},
		{"wrong relation", func(l *Layout) {
			l.Relations[1].Base.Segments = l.Relations[0].Base.Segments
			l.Relations[0].Base.Segments, l.Relations[0].Base.Tombs = nil, nil
		}, "on relation"},
		{"short bitmap", func(l *Layout) {
			l.Relations[0].Base.Tombs = [][]uint64{{1}}
		}, "does not fit"},
		{"bit past the end", func(l *Layout) {
			l.Relations[0].Base.Tombs = [][]uint64{{0, 0, 0, 0, 1 << 50}}
		}, "does not fit"},
	} {
		l := snap.Layout()
		c.edit(l)
		if _, err := LoadLayout(l); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}
