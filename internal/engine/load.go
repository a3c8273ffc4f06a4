package engine

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
)

// Bulk loading: how a database is built from rows in bulk. Registration
// (LoadRows) and decoded segment frames (DecodeSegment: the segments of a
// Save file, and the checkpoint segment files crash recovery reads) both
// seal rows straight into one segment — tuples from one slab, their IDs
// from one string, their TIDs
// from one reservation of the interning counter — instead of inserting
// them one at a time into a flat relation that a later Freeze seals. The
// database returned is the pristine fork of its own snapshot, so its
// Freeze is O(relations). No content key is built: set semantics are kept
// by hashing the values, and each segment's intern map stays lazy until a
// key-based lookup (an update batch, say) asks for it.

// LoadRows builds a database over schema from row-major value blocks:
// blocks[i] holds the rows of schema.Relations[i] back to back, its length
// a multiple of the relation's arity (nil for an empty relation). The result is the state Insert-ing
// every row, relation by relation in schema order, and freezing would
// reach: the first occurrence of equal content wins and a duplicate
// consumes no ID and no Seq, IDs are minted prefix+ordinal, and Seqs run
// on across relations. The database takes ownership of the blocks: tuple
// values are capacity-clipped sub-slices of them, and duplicate rows are
// squeezed out in place.
func LoadRows(schema *Schema, blocks [][]Value) (*Database, error) {
	if len(blocks) != len(schema.Relations) {
		return nil, fmt.Errorf("engine: %d row blocks for %d relations", len(blocks), len(schema.Relations))
	}
	s := newSnapshot(schema)
	for i, rs := range schema.Relations {
		vals, arity := blocks[i], rs.Arity()
		if len(vals)%arity != 0 {
			return nil, fmt.Errorf("engine: %s rows have %d values each, got a block of %d", rs.Name, arity, len(vals))
		}
		n := dedupRows(vals, arity, nil)
		seqs := make([]int, n)
		for j := range seqs {
			seqs[j] = s.seq + 1 + j
		}
		s.base[rs.Name] = sealRows(rs.Name, arity, vals[:n*arity], mintIDs(rs.IDPrefix, n), seqs, nil)
		s.delta[rs.Name] = sealRows(rs.Name, arity, nil, nil, nil, nil)
		s.nextID[rs.Name] = n
		s.seq += n
	}
	return s.mint(), nil
}

// newSnapshot returns an empty snapshot over schema for a loader to fill.
func newSnapshot(schema *Schema) *Snapshot {
	n := len(schema.Relations)
	return &Snapshot{
		schema: schema,
		base:   make(map[string]*frozenRel, n),
		delta:  make(map[string]*frozenRel, n),
		nextID: make(map[string]int, n),
	}
}

// mintIDs returns prefix1 … prefixN, the IDs Insert mints for a relation's
// first n tuples, as substrings of one string.
func mintIDs(prefix string, n int) []string {
	buf := make([]byte, 0, n*(len(prefix)+len(strconv.Itoa(n))))
	for i := 1; i <= n; i++ {
		buf = strconv.AppendInt(append(buf, prefix...), int64(i), 10)
	}
	all := string(buf)
	ids := make([]string, n)
	pos, digits, next := 0, 1, 10
	for i := 1; i <= n; i++ {
		if i == next {
			digits, next = digits+1, next*10
		}
		end := pos + len(prefix) + digits
		ids[i-1], pos = all[pos:end], end
	}
	return ids
}

// sealRows seals len(ids) rows — arity values each, row-major in vals —
// into a frozen core of one segment (of none when there are no rows): row
// i becomes the tuple with ID ids[i] and Seq seqs[i], its Vals a
// capacity-clipped sub-slice of vals. The tuples come from one slab and
// their TIDs from one reservation of the interning counter, in row order;
// warm names the columns indexed at once.
func sealRows(rel string, arity int, vals []Value, ids []string, seqs []int, warm []int) *frozenRel {
	fz := &frozenRel{name: rel, arity: arity, n: len(ids)}
	if len(ids) == 0 {
		return fz
	}
	first := TupleID(nextTupleID.Add(uint64(len(ids))) - uint64(len(ids)))
	slab := make([]Tuple, len(ids))
	order := make([]*Tuple, len(ids))
	for i := range slab {
		end := (i + 1) * arity
		slab[i] = Tuple{ID: ids[i], Rel: rel, Vals: vals[i*arity : end : end], Seq: seqs[i], TID: first + TupleID(i) + 1}
		order[i] = &slab[i]
	}
	fz.segs = []*Segment{newSegment(arity, order, nil, nil, warm)}
	return fz
}

// dedupRows squeezes duplicate rows out of vals in place and returns how
// many rows it kept: the first occurrence of each content, in their
// original order. move, when non-nil, is told of every kept row that moves
// (to row dst from row src) so parallel arrays can follow. Rows are
// duplicates exactly when their content keys are equal (sameContent); the
// check hashes values instead of building keys.
func dedupRows(vals []Value, arity int, move func(dst, src int)) int {
	n := len(vals) / arity
	if n < 2 {
		return n
	}
	// Open addressing over kept row numbers plus one (0 is an empty slot),
	// at most half full. The hash is keyed per call, so request bodies
	// cannot be built to collide.
	size := 4
	for size < 2*n {
		size <<= 1
	}
	table := make([]int32, size)
	seed := maphash.MakeSeed()
	key := maphash.String(seed, "rows")
	kept := 0
	for i := 0; i < n; i++ {
		row := vals[i*arity : (i+1)*arity]
		slot := rowHash(seed, key, row) & uint64(size-1)
		dup := false
		for table[slot] != 0 {
			k := int(table[slot] - 1)
			if sameContent(vals[k*arity:(k+1)*arity], row) {
				dup = true
				break
			}
			slot = (slot + 1) & uint64(size-1)
		}
		if dup {
			continue
		}
		if kept != i {
			copy(vals[kept*arity:(kept+1)*arity], row)
			if move != nil {
				move(kept, i)
			}
		}
		table[slot] = int32(kept + 1)
		kept++
	}
	return kept
}

// nanBits is the one bit pattern every NaN hashes as: they all render
// "fNaN" in a content key.
const nanBits = 0x7FF8000000000001

// rowHash hashes a row so that rows sameContent calls equal hash equally.
func rowHash(seed maphash.Seed, key uint64, row []Value) uint64 {
	h := key
	for _, v := range row {
		var x uint64
		switch keyClass(v.Kind) {
		case KindInt:
			x = uint64(v.Int)
		case KindFloat:
			x = math.Float64bits(v.Flt)
			if v.Flt != v.Flt {
				x = nanBits
			}
		default:
			x = maphash.String(seed, v.Str)
		}
		hi, lo := bits.Mul64(h^x, 0x9E3779B97F4A7C15+uint64(keyClass(v.Kind)))
		h = hi ^ lo
	}
	return h
}

// keyClass is the kind a value renders as in a content key: every kind
// other than int and float renders as a quoted string.
func keyClass(k Kind) Kind {
	if k == KindInt || k == KindFloat {
		return k
	}
	return KindString
}

// sameContent reports whether two rows of one relation have equal content
// keys: per column the same key class and the same integer, the same
// float bits (every NaN equal — the key renders them all "NaN" — and
// -0.0 apart from 0.0), or the same string.
func sameContent(a, b []Value) bool {
	for i := range a {
		x, y := a[i], b[i]
		c := keyClass(x.Kind)
		if c != keyClass(y.Kind) {
			return false
		}
		switch c {
		case KindInt:
			if x.Int != y.Int {
				return false
			}
		case KindFloat:
			if math.Float64bits(x.Flt) != math.Float64bits(y.Flt) && (x.Flt == x.Flt || y.Flt == y.Flt) {
				return false
			}
		default:
			if x.Str != y.Str {
				return false
			}
		}
	}
	return true
}
