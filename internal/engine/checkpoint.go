package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// The on-disk format: a version's sealed storage written segment by
// segment, for checkpoints and for Save.
//
// A snapshot is, per relation side, at most three immutable segments plus
// tombstones, and one segment outlives many versions. A checkpoint
// therefore records a version as its Layout — which segments each side
// holds, oldest first, which of their positions are deleted, and the
// counters an Insert continues from — and writes each segment to its own
// file once, the first time a checkpoint references it. LoadLayout turns
// the layout back into a snapshot with the same segments, so the version
// after a recovery seals, spills and folds exactly as the one before the
// crash would have.
//
// A checkpoint stores the layout frame and each segment frame in files of
// their own; Save writes one file, the layout frame followed by its segment
// frames. A frame is a uint32 payload length (LE), a uint32 CRC-32C of the
// payload (LE), then the payload.
//
// Layout frame: the gob encoding of layoutFile — the Layout with each
// segment replaced by a name the writer chose for the frame holding it.
//
// Segment frame: the segment's rows laid out column by column, after their
// tuple IDs and Seqs. This is the only place the columns exist: in memory
// a sealed segment keeps its rows.
//
//	magic "DRSG", uvarint format, uvarint arity, uvarint rows n
//	IDs      n uvarint byte lengths, then the IDs' bytes back to back
//	Seqs     n varints, each the difference to the previous Seq (from 0)
//	strings  uvarint count m, m uvarint byte lengths, then the bytes
//	columns  per column: kind byte, uniform byte (1 or 0), the n per-row
//	         kind bytes when not uniform, then n varints of the int64 cells
//
// Cells are int64s: integers inline, floats as IEEE-754 bits, strings as
// indexes into the segment's string table.

// SideLayout is one relation side's sealed storage at a version.
type SideLayout struct {
	// Segments are the side's sealed segments, oldest first.
	Segments []*Segment
	// Tombs[i] marks the deleted positions of Segments[i], one bit per
	// position (nil when none is deleted). The bitmaps are the snapshot's
	// own: read-only.
	Tombs [][]uint64
	// Warm lists the columns with a built index, ascending.
	Warm []int
}

// RelationLayout is one relation's schema and sealed storage.
type RelationLayout struct {
	Name     string
	IDPrefix string
	Attrs    []string
	// NextID is the ordinal the relation's next minted tuple ID continues
	// from.
	NextID      int
	Base, Delta SideLayout
}

// Layout is a snapshot's storage as a checkpoint records it: every
// relation in schema order and the database's tuple sequence counter.
type Layout struct {
	Relations []RelationLayout
	NextSeq   int
}

// Len returns the number of tuples sealed in the segment, deleted ones
// included.
func (s *Segment) Len() int { return len(s.order) }

// CountDeleted returns the number of positions a tombstone bitmap marks
// deleted.
func CountDeleted(tomb []uint64) int {
	n := 0
	for _, w := range tomb {
		n += bits.OnesCount64(w)
	}
	return n
}

// Layout returns the snapshot's layout. It shares the snapshot's segments
// and tombstone bitmaps and copies nothing else of its storage.
func (s *Snapshot) Layout() *Layout {
	l := &Layout{Relations: make([]RelationLayout, 0, len(s.schema.Relations)), NextSeq: s.seq}
	for _, rs := range s.schema.Relations {
		l.Relations = append(l.Relations, RelationLayout{
			Name:     rs.Name,
			IDPrefix: rs.IDPrefix,
			Attrs:    rs.Attrs,
			NextID:   s.nextID[rs.Name],
			Base:     s.base[rs.Name].layout(),
			Delta:    s.delta[rs.Name].layout(),
		})
	}
	return l
}

func (fz *frozenRel) layout() SideLayout {
	sl := SideLayout{Segments: slices.Clone(fz.segs), Tombs: make([][]uint64, len(fz.segs))}
	for i := range fz.segs {
		if fz.tomb.n[i] > 0 {
			sl.Tombs[i] = fz.tomb.bits[i]
		}
	}
	sl.Warm = fz.indexedColumns()
	slices.Sort(sl.Warm)
	return sl
}

// LoadLayout builds the snapshot a layout describes: its schema, each
// side's segments in order with their tombstones re-applied, the warm
// columns indexed on every segment, and the ID and Seq counters. It
// rejects a layout no snapshot has: more than three segments on a side, an
// empty segment, one of another arity, a segment on two sides, or a
// tombstone bitmap of the wrong length.
func LoadLayout(l *Layout) (*Snapshot, error) {
	schema := NewSchema()
	for _, rl := range l.Relations {
		if _, err := schema.AddRelation(rl.Name, rl.IDPrefix, rl.Attrs...); err != nil {
			return nil, err
		}
	}
	s := newSnapshot(schema)
	s.seq = l.NextSeq
	seen := make(map[*Segment]bool)
	for i := range l.Relations {
		rl := &l.Relations[i]
		for _, side := range []struct {
			sl   *SideLayout
			into map[string]*frozenRel
		}{{&rl.Base, s.base}, {&rl.Delta, s.delta}} {
			fz, err := side.sl.core(rl.Name, len(rl.Attrs), seen)
			if err != nil {
				return nil, fmt.Errorf("engine: layout of %s: %w", rl.Name, err)
			}
			for _, seg := range fz.segs {
				for _, t := range seg.order {
					s.seq = max(s.seq, t.Seq)
				}
			}
			side.into[rl.Name] = fz
		}
		s.nextID[rl.Name] = rl.NextID
	}
	return s, nil
}

// core assembles the frozen core a side layout describes.
func (sl *SideLayout) core(rel string, arity int, seen map[*Segment]bool) (*frozenRel, error) {
	if len(sl.Segments) > maxSegments {
		return nil, fmt.Errorf("%d segments, at most %d", len(sl.Segments), maxSegments)
	}
	if len(sl.Tombs) > len(sl.Segments) {
		return nil, fmt.Errorf("%d tombstone bitmaps for %d segments", len(sl.Tombs), len(sl.Segments))
	}
	fz := &frozenRel{name: rel, arity: arity, segs: slices.Clone(sl.Segments)}
	for i, seg := range fz.segs {
		if seg == nil || len(seg.order) == 0 {
			return nil, errors.New("empty segment")
		}
		if seg.arity != arity || seg.order[0].Rel != rel {
			return nil, fmt.Errorf("segment of %s/%d on relation %s/%d", seg.order[0].Rel, seg.arity, rel, arity)
		}
		if seen[seg] {
			return nil, errors.New("segment listed twice")
		}
		seen[seg] = true
		fz.n += len(seg.order)
		if i >= len(sl.Tombs) {
			continue
		}
		tomb := sl.Tombs[i]
		dead := CountDeleted(tomb)
		if dead == 0 {
			continue
		}
		words, rem := (len(seg.order)+63)/64, len(seg.order)%64
		if len(tomb) != words || (rem != 0 && tomb[words-1]>>rem != 0) {
			return nil, fmt.Errorf("tombstone bitmap of %d words does not fit %d positions", len(tomb), len(seg.order))
		}
		fz.tomb.bits[i] = slices.Clone(tomb)
		fz.tomb.n[i] = int32(dead)
		fz.tomb.dead += dead
	}
	for _, col := range sl.Warm {
		if col < 0 || col >= arity {
			continue
		}
		for _, seg := range fz.segs {
			seg.index(col)
		}
	}
	return fz, nil
}

const (
	layoutFormat  = 1
	segmentMagic  = "DRSG"
	segmentFormat = 1
	frameHeader   = 8
)

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// layoutFile is a Layout as its frame stores it. The field names are the
// wire format's: gob matches them by name.
type layoutFile struct {
	Format    int
	NextSeq   int
	Relations []layoutRel
}

type layoutRel struct {
	Name        string
	IDPrefix    string
	Attrs       []string
	NextID      int
	Base, Delta layoutSide
}

// layoutSide names a relation side's segment frames, oldest first, with
// the tombstone bitmap over each and the columns to index at load.
type layoutSide struct {
	Files []string
	Tombs [][]uint64
	Warm  []int
}

// AppendLayout appends the layout's frame to dst, naming each segment by
// name, called in load order: relations in schema order, base before
// delta, oldest segment first.
func AppendLayout(dst []byte, l *Layout, name func(*Segment) string) []byte {
	lf := layoutFile{Format: layoutFormat, NextSeq: l.NextSeq, Relations: make([]layoutRel, len(l.Relations))}
	for i, rl := range l.Relations {
		lr := &lf.Relations[i]
		lr.Name, lr.IDPrefix, lr.Attrs, lr.NextID = rl.Name, rl.IDPrefix, rl.Attrs, rl.NextID
		for j, sl := range [2]*SideLayout{&rl.Base, &rl.Delta} {
			ls := [2]*layoutSide{&lr.Base, &lr.Delta}[j]
			ls.Tombs, ls.Warm = sl.Tombs, sl.Warm
			for _, seg := range sl.Segments {
				ls.Files = append(ls.Files, name(seg))
			}
		}
	}
	return lf.appendFrame(dst)
}

func (lf *layoutFile) appendFrame(dst []byte) []byte {
	start := len(dst)
	buf := bytes.NewBuffer(append(dst, make([]byte, frameHeader)...))
	// gob fails only on types it cannot encode, and layoutFile is not one.
	if err := gob.NewEncoder(buf).Encode(lf); err != nil {
		panic(err)
	}
	return sealFrame(buf.Bytes(), start)
}

// ReadLayout decodes a layout frame and builds the snapshot it describes
// (LoadLayout), asking segment for each named segment in AppendLayout's
// order.
func ReadLayout(data []byte, segment func(name, rel string, arity int) (*Segment, error)) (*Snapshot, error) {
	payload, err := openFrame(data, "layout")
	if err != nil {
		return nil, err
	}
	var lf layoutFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&lf); err != nil {
		return nil, fmt.Errorf("engine: decoding layout: %w", err)
	}
	if lf.Format != layoutFormat {
		return nil, fmt.Errorf("engine: unsupported layout format %d", lf.Format)
	}
	l := &Layout{NextSeq: lf.NextSeq, Relations: make([]RelationLayout, len(lf.Relations))}
	for i, lr := range lf.Relations {
		rl := &l.Relations[i]
		rl.Name, rl.IDPrefix, rl.Attrs, rl.NextID = lr.Name, lr.IDPrefix, lr.Attrs, lr.NextID
		for j, ls := range [2]*layoutSide{&lr.Base, &lr.Delta} {
			sl := [2]*SideLayout{&rl.Base, &rl.Delta}[j]
			sl.Tombs, sl.Warm = ls.Tombs, ls.Warm
			for _, name := range ls.Files {
				seg, err := segment(name, lr.Name, len(lr.Attrs))
				if err != nil {
					return nil, err
				}
				sl.Segments = append(sl.Segments, seg)
			}
		}
	}
	return LoadLayout(l)
}

// Save writes the database — schema, base and delta relations, tuple
// identities, so a repair session resumes with the record of what was
// already deleted — as one file: its layout frame naming the segments "1",
// "2", … followed by those segments' frames, in that order. Each relation side is at most
// one segment holding its live tuples in Tuples() order, with no
// tombstones, so a database saves to the same bytes whatever segments its
// content sits in. The indexed columns are recorded as the layout's warm
// columns, so LoadSnapshot restores them.
func (db *Database) Save(w io.Writer) error {
	lf := layoutFile{Format: layoutFormat, NextSeq: db.seq, Relations: make([]layoutRel, len(db.Schema.Relations))}
	var segs []byte
	n := 0
	for i, rs := range db.Schema.Relations {
		lr := &lf.Relations[i]
		lr.Name, lr.IDPrefix, lr.Attrs, lr.NextID = rs.Name, rs.IDPrefix, rs.Attrs, db.nextID[rs.Name]
		for j, rel := range [2]*Relation{db.base[rs.Name], db.delta[rs.Name]} {
			ls := [2]*layoutSide{&lr.Base, &lr.Delta}[j]
			ls.Warm = rel.IndexedColumns()
			if tuples := rel.Tuples(); len(tuples) > 0 {
				n++
				segs = appendSegment(segs, tuples, rs.Arity())
				ls.Files = []string{strconv.Itoa(n)}
			}
		}
	}
	if _, err := w.Write(lf.appendFrame(nil)); err != nil {
		return err
	}
	_, err := w.Write(segs)
	return err
}

// LoadSnapshot reconstructs a database from a Save stream: the layout
// frame through ReadLayout, each segment it names from the next frame
// through DecodeSegment. Tuple identifiers, sequence order, values (to the
// float bit) and delta contents round-trip exactly, and the indexes that
// existed at save time are built at once — restoring into the same steady
// state instead of paying a first-query latency spike while indexes
// rebuild lazily.
func LoadSnapshot(r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	layout, rest := cutFrame(data)
	n := 0
	s, err := ReadLayout(layout, func(name, rel string, arity int) (*Segment, error) {
		n++
		if name != strconv.Itoa(n) {
			return nil, fmt.Errorf("engine: snapshot names segment %q in place of %d", name, n)
		}
		var frame []byte
		frame, rest = cutFrame(rest)
		return DecodeSegment(frame, rel, arity)
	})
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: %d bytes after the snapshot's last segment", len(rest))
	}
	return s.mint(), nil
}

// sealFrame fills in the header reserved at dst[start:] for the payload
// that follows it.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, frameCRC))
	return dst
}

// openFrame checks that data is exactly one intact frame and returns its
// payload; what names the frame in errors.
func openFrame(data []byte, what string) ([]byte, error) {
	if len(data) < frameHeader {
		return nil, fmt.Errorf("engine: %s frame shorter than its header", what)
	}
	if length := binary.LittleEndian.Uint32(data[0:4]); int64(length) != int64(len(data)-frameHeader) {
		return nil, fmt.Errorf("engine: %s frame holds %d payload bytes, header says %d", what, len(data)-frameHeader, length)
	}
	payload := data[frameHeader:]
	if crc32.Checksum(payload, frameCRC) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, fmt.Errorf("engine: %s frame checksum mismatch", what)
	}
	return payload, nil
}

// cutFrame splits data after its first frame, at the length the frame's
// header gives. A frame that does not fit is all of data, for openFrame
// to reject.
func cutFrame(data []byte) (frame, rest []byte) {
	if len(data) >= frameHeader {
		if n := uint64(binary.LittleEndian.Uint32(data)) + frameHeader; n <= uint64(len(data)) {
			return data[:n:n], data[n:]
		}
	}
	return data, nil
}

// AppendSegment appends the segment's frame to dst. The column layout is
// encoded straight from the segment's rows and kept nowhere, so writing a
// segment does not grow what stays in memory.
func AppendSegment(dst []byte, s *Segment) []byte {
	return appendSegment(dst, s.order, s.arity)
}

// appendSegment appends the frame of a segment holding tuples of the given
// arity.
func appendSegment(dst []byte, tuples []*Tuple, arity int) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, segmentMagic...)
	dst = binary.AppendUvarint(dst, segmentFormat)
	dst = binary.AppendUvarint(dst, uint64(arity))
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	for _, t := range tuples {
		dst = binary.AppendUvarint(dst, uint64(len(t.ID)))
	}
	for _, t := range tuples {
		dst = append(dst, t.ID...)
	}
	prev := 0
	for _, t := range tuples {
		dst = binary.AppendVarint(dst, int64(t.Seq-prev))
		prev = t.Seq
	}
	// The string table holds each distinct string once, in the order a walk
	// column by column, row by row first meets it.
	strIdx := make(map[string]int64)
	var strs []string
	for c := 0; c < arity; c++ {
		for _, t := range tuples {
			if v := t.Vals[c]; v.Kind != KindInt && v.Kind != KindFloat {
				if _, ok := strIdx[v.Str]; !ok {
					strIdx[v.Str] = int64(len(strs))
					strs = append(strs, v.Str)
				}
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(strs)))
	for _, str := range strs {
		dst = binary.AppendUvarint(dst, uint64(len(str)))
	}
	for _, str := range strs {
		dst = append(dst, str...)
	}
	for c := 0; c < arity; c++ {
		var kind Kind
		uniform := byte(1)
		for i, t := range tuples {
			if i == 0 {
				kind = t.Vals[c].Kind
			} else if t.Vals[c].Kind != kind {
				uniform = 0
			}
		}
		dst = append(dst, byte(kind), uniform)
		if uniform == 0 {
			for _, t := range tuples {
				dst = append(dst, byte(t.Vals[c].Kind))
			}
		}
		for _, t := range tuples {
			switch v := t.Vals[c]; v.Kind {
			case KindInt:
				dst = binary.AppendVarint(dst, v.Int)
			case KindFloat:
				dst = binary.AppendVarint(dst, int64(math.Float64bits(v.Flt)))
			default:
				dst = binary.AppendVarint(dst, strIdx[v.Str])
			}
		}
	}
	return sealFrame(dst, start)
}

// DecodeSegment reads a segment frame of relation rel back as one sealed
// segment, through the same seal as LoadRows, with the stored IDs and
// Seqs. A bad checksum, a malformed payload, an arity other than the
// relation's, an empty segment, or content stored twice is an error.
func DecodeSegment(data []byte, rel string, arity int) (*Segment, error) {
	payload, err := openFrame(data, "segment")
	if err != nil {
		return nil, err
	}
	d := &segReader{buf: payload}
	if string(d.bytes(len(segmentMagic))) != segmentMagic || d.uvarint() != segmentFormat {
		return nil, errors.New("engine: not a segment file of this format")
	}
	if got := d.uvarint(); d.err == nil && got != uint64(arity) {
		return nil, fmt.Errorf("engine: segment of arity %d for relation %s of arity %d", got, rel, arity)
	}
	n := d.count()
	if d.err == nil && n == 0 {
		return nil, errors.New("engine: empty segment")
	}
	// One row takes at least arity+2 bytes (an ID length, a Seq and a cell
	// each), so the count cannot outrun the payload.
	if n > len(payload)/(arity+2) {
		return nil, errors.New("engine: segment row count exceeds its payload")
	}
	ids := d.strings(n)
	seqs := make([]int, n)
	prev := int64(0)
	for i := range seqs {
		prev += d.varint()
		seqs[i] = int(prev)
	}
	strs := d.strings(d.count())
	vals := make([]Value, n*arity)
	for c := 0; c < arity && d.err == nil; c++ {
		head := d.bytes(2)
		var kinds []byte
		switch {
		case head == nil:
		case head[1] == 0:
			kinds = d.bytes(n)
		case head[1] != 1:
			d.fail()
		}
		for i := 0; i < n && d.err == nil; i++ {
			kind, cell := Kind(head[0]), d.varint()
			if kinds != nil {
				kind = Kind(kinds[i])
			}
			v := &vals[i*arity+c]
			switch {
			case kind == KindInt:
				*v = Value{Kind: KindInt, Int: cell}
			case kind == KindFloat:
				*v = Value{Kind: KindFloat, Flt: math.Float64frombits(uint64(cell))}
			case kind == KindString && cell >= 0 && cell < int64(len(strs)):
				*v = Value{Kind: KindString, Str: strs[cell]}
			default:
				d.fail()
			}
		}
	}
	if len(d.buf) != 0 {
		d.fail()
	}
	if d.err != nil {
		return nil, fmt.Errorf("engine: malformed segment file: %w", d.err)
	}
	// dedupRows moves rows only past a duplicate, and then vals is dropped.
	if dedupRows(vals, arity, nil) != n {
		return nil, errors.New("engine: segment stores one content twice")
	}
	return sealRows(rel, arity, vals, ids, seqs, nil).segs[0], nil
}

// segReader decodes a segment payload; the first failure sticks and every
// later read returns zero values.
type segReader struct {
	buf []byte
	err error
}

func (d *segReader) fail() {
	if d.err == nil {
		d.err = errors.New("truncated or invalid encoding")
	}
	d.buf = nil
}

func (d *segReader) uvarint() uint64 {
	v, k := binary.Uvarint(d.buf)
	if k <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

func (d *segReader) varint() int64 {
	v, k := binary.Varint(d.buf)
	if k <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

// count reads a length that must not exceed the bytes left, so no read
// allocates more than the payload could describe.
func (d *segReader) count() int {
	v := d.uvarint()
	if v > uint64(len(d.buf)) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *segReader) bytes(n int) []byte {
	if n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// strings reads n uvarint lengths and then the strings' bytes, returned as
// substrings of one string.
func (d *segReader) strings(n int) []string {
	lens := make([]int, n)
	total := 0
	for i := range lens {
		lens[i] = d.count()
		total += lens[i]
	}
	raw := d.bytes(total)
	if d.err != nil {
		return make([]string, n)
	}
	all := string(raw)
	out := make([]string, n)
	for i, l := range lens {
		out[i], all = all[:l], all[l:]
	}
	return out
}
