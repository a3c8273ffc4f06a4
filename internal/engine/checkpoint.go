package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
)

// Checkpoints: a version's sealed storage written segment by segment.
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
// Segment file: uint32 payload length (LE), uint32 CRC-32C of the payload
// (LE), then the payload — the frozenCols image of the segment plus its
// tuple IDs and Seqs:
//
//	magic "DRSG", uvarint format, uvarint arity, uvarint rows n
//	IDs      n uvarint byte lengths, then the IDs' bytes back to back
//	Seqs     n varints, each the difference to the previous Seq (from 0)
//	strings  uvarint count m, m uvarint byte lengths, then the bytes
//	columns  per column: kind byte, uniform byte (1 or 0), the n per-row
//	         kind bytes when not uniform, then n varints of the int64 cells
//
// Cells are frozenCols' own encoding: integers inline, floats as IEEE-754
// bits, strings as indexes into the segment's string table.

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
	segmentMagic  = "DRSG"
	segmentFormat = 1
	segmentHeader = 8
)

var segmentCRC = crc32.MakeTable(crc32.Castagnoli)

// AppendSegment appends the segment's file bytes to dst. It encodes the
// segment's published columnar image when one exists and otherwise builds
// a transient one that is not published, so writing a segment does not
// grow what stays in memory.
func AppendSegment(dst []byte, s *Segment) []byte {
	fc := s.cols.Load()
	if fc == nil {
		fc = buildFrozenCols(s.order, s.arity)
	}
	start := len(dst)
	dst = append(dst, make([]byte, segmentHeader)...)
	dst = append(dst, segmentMagic...)
	dst = binary.AppendUvarint(dst, segmentFormat)
	dst = binary.AppendUvarint(dst, uint64(s.arity))
	dst = binary.AppendUvarint(dst, uint64(len(s.order)))
	for _, t := range s.order {
		dst = binary.AppendUvarint(dst, uint64(len(t.ID)))
	}
	for _, t := range s.order {
		dst = append(dst, t.ID...)
	}
	prev := 0
	for _, t := range s.order {
		dst = binary.AppendVarint(dst, int64(t.Seq-prev))
		prev = t.Seq
	}
	dst = binary.AppendUvarint(dst, uint64(len(fc.strs)))
	for _, str := range fc.strs {
		dst = binary.AppendUvarint(dst, uint64(len(str)))
	}
	for _, str := range fc.strs {
		dst = append(dst, str...)
	}
	for c := range fc.cols {
		cv := &fc.cols[c]
		if cv.kinds == nil {
			dst = append(dst, byte(cv.kind), 1)
		} else {
			dst = append(dst, byte(cv.kind), 0)
			for _, k := range cv.kinds {
				dst = append(dst, byte(k))
			}
		}
		for _, d := range cv.data {
			dst = binary.AppendVarint(dst, d)
		}
	}
	payload := dst[start+segmentHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, segmentCRC))
	return dst
}

// DecodeSegment reads a segment file of relation rel back as one sealed
// segment, through the same seal as LoadRows, with the stored IDs and
// Seqs. A bad checksum, a malformed payload, an arity other than the
// relation's, an empty segment, or content stored twice is an error.
func DecodeSegment(data []byte, rel string, arity int) (*Segment, error) {
	if len(data) < segmentHeader {
		return nil, errors.New("engine: segment file shorter than its header")
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if int64(length) != int64(len(data)-segmentHeader) {
		return nil, fmt.Errorf("engine: segment file holds %d payload bytes, header says %d", len(data)-segmentHeader, length)
	}
	payload := data[segmentHeader:]
	if crc32.Checksum(payload, segmentCRC) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, errors.New("engine: segment file checksum mismatch")
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
