package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Snapshot persistence: a Database (schema, base relations, delta
// relations, tuple identities) serialized with encoding/gob. Snapshots let
// a repair session be saved and resumed — including the record of what was
// already deleted, which CSV export cannot carry.

// snapTuple is the serialized form of one tuple (format 1, and the decoded
// intermediate for every format).
type snapTuple struct {
	ID   string
	Seq  int
	Vals []Value
}

// snapVec is one serialized column vector (format 2), a sealed segment's
// colVec as written: integers inline, floats as IEEE-754 bits, strings as
// indexes into the relation's string table. Kinds is nil when the column is
// uniformly Kind — the schema-clean common case — so a typical column
// serializes as one flat []int64. (Kind is a uint8, so gob writes these
// fields exactly as it writes a byte and a []byte.)
type snapVec struct {
	Kind  Kind
	Kinds []Kind // per-row kinds; nil when uniform
	Data  []int64
}

// snapCols is the columnar serialized form of one relation side, mirroring
// the in-memory frozenCols layout: parallel ID/Seq slices, one vector per
// column, and the string intern table the string cells index into.
type snapCols struct {
	IDs  []string
	Seqs []int
	Cols []snapVec
	Strs []string
}

// snapRelation is the serialized form of one relation schema plus its base
// and delta contents — columnar (BaseC/DeltaC, format 2; what Save writes)
// or row-oriented (Base/Delta, format 1; read only). BaseIdx/DeltaIdx record which single-column
// hash indexes were built at save time so LoadSnapshot can pre-warm them —
// restoring into the same steady state instead of paying a first-query
// latency spike while indexes rebuild lazily. All content fields are
// optional (other-format snapshots decode them as nil).
type snapRelation struct {
	Name     string
	IDPrefix string
	Attrs    []string
	NextID   int
	Base     []snapTuple
	Delta    []snapTuple
	BaseC    *snapCols
	DeltaC   *snapCols
	BaseIdx  []int
	DeltaIdx []int
}

// snapshot is the full serialized database.
type snapshot struct {
	Format    int // version tag for forward compatibility
	Relations []snapRelation
	// NextSeq is the database's global sequence counter at save time.
	// Older snapshots lack it (gob decodes it as 0); LoadSnapshot then
	// falls back to the max stored Seq, which can under-count when the
	// highest-Seq tuples were deleted before the save. Persisting the
	// counter keeps Seq allocation identical across a save/load boundary —
	// a requirement for byte-identical crash recovery.
	NextSeq int
}

// snapshotFormat is the snapshot version Save writes: columnar relation
// contents. Format-1 (row-oriented) streams still load — existing data
// directories hold them — but are no longer written.
const snapshotFormat = 2

// encodeSnapCols converts one relation side to columnar serialized form:
// the sealed-segment image buildFrozenCols builds, plus IDs and Seqs.
func encodeSnapCols(tuples []*Tuple, arity int) *snapCols {
	fc := buildFrozenCols(tuples, arity)
	sc := &snapCols{
		IDs:  make([]string, len(tuples)),
		Seqs: make([]int, len(tuples)),
		Cols: make([]snapVec, arity),
		Strs: fc.strs,
	}
	for i, t := range tuples {
		sc.IDs[i], sc.Seqs[i] = t.ID, t.Seq
	}
	for c, cv := range fc.cols {
		sc.Cols[c] = snapVec{Kind: cv.kind, Kinds: cv.kinds, Data: cv.data}
	}
	return sc
}

// snapBlock is one decoded relation side in the form sealRows takes:
// parallel IDs and Seqs, and the rows' values row-major.
type snapBlock struct {
	ids  []string
	seqs []int
	vals []Value
}

// block decodes a columnar side into row-major form.
func (sc *snapCols) block(arity int) (*snapBlock, error) {
	if len(sc.Seqs) != len(sc.IDs) || len(sc.Cols) != arity {
		return nil, fmt.Errorf("engine: malformed columnar snapshot block")
	}
	for _, sv := range sc.Cols {
		if len(sv.Data) != len(sc.IDs) || (sv.Kinds != nil && len(sv.Kinds) != len(sc.IDs)) {
			return nil, fmt.Errorf("engine: malformed columnar snapshot vector")
		}
	}
	vals := make([]Value, len(sc.IDs)*arity)
	for c := range sc.Cols {
		sv := &sc.Cols[c]
		for i, d := range sv.Data {
			kind := sv.Kind
			if sv.Kinds != nil {
				kind = sv.Kinds[i]
			}
			v := &vals[i*arity+c]
			switch kind {
			case KindInt:
				*v = Value{Kind: KindInt, Int: d}
			case KindFloat:
				// -0.0 normalization happens in sanitize, shared with the
				// row decoding path.
				*v = Value{Kind: KindFloat, Flt: math.Float64frombits(uint64(d))}
			case KindString:
				if d < 0 || d >= int64(len(sc.Strs)) {
					return nil, fmt.Errorf("engine: columnar snapshot string index out of range")
				}
				*v = Value{Kind: KindString, Str: sc.Strs[d]}
			default:
				return nil, fmt.Errorf("engine: columnar snapshot has unknown value kind %d", kind)
			}
		}
	}
	return &snapBlock{ids: sc.IDs, seqs: sc.Seqs, vals: vals}, nil
}

// tupleBlock flattens a row-oriented (format 1) side into row-major form.
// gob decodes arbitrary bytes, so each tuple's arity is checked here.
func tupleBlock(tuples []snapTuple, sr *snapRelation) (*snapBlock, error) {
	arity := len(sr.Attrs)
	b := &snapBlock{
		ids:  make([]string, len(tuples)),
		seqs: make([]int, len(tuples)),
		vals: make([]Value, 0, len(tuples)*arity),
	}
	for i, st := range tuples {
		if len(st.Vals) != arity {
			return nil, fmt.Errorf("engine: snapshot tuple %q has %d values, relation %s has arity %d",
				st.ID, len(st.Vals), sr.Name, arity)
		}
		b.ids[i], b.seqs[i] = st.ID, st.Seq
		b.vals = append(b.vals, st.Vals...)
	}
	return b, nil
}

// Save serializes the database (schema, base and delta relations, tuple
// identifiers and order) to w.
func (db *Database) Save(w io.Writer) error {
	snap := snapshot{Format: snapshotFormat, NextSeq: db.seq}
	for _, rs := range db.Schema.Relations {
		snap.Relations = append(snap.Relations, snapRelation{
			Name:     rs.Name,
			IDPrefix: rs.IDPrefix,
			Attrs:    rs.Attrs,
			NextID:   db.nextID[rs.Name],
			BaseC:    encodeSnapCols(db.base[rs.Name].Tuples(), len(rs.Attrs)),
			DeltaC:   encodeSnapCols(db.delta[rs.Name].Tuples(), len(rs.Attrs)),
			BaseIdx:  db.base[rs.Name].IndexedColumns(),
			DeltaIdx: db.delta[rs.Name].IndexedColumns(),
		})
	}
	return gob.NewEncoder(w).Encode(snap)
}

// SaveFile is Save writing to a file path.
func (db *Database) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Save(f)
}

// sanitize validates a decoded side's values before they are sealed: gob
// decodes arbitrary bytes, so value kinds cannot be trusted. Float zeros
// are normalized to +0.0 — gob omits zero-valued struct fields, so -0.0
// cannot survive a re-save, and load-time normalization keeps save/load a
// fixpoint.
func (b *snapBlock) sanitize(arity int) error {
	for i := range b.vals {
		v := &b.vals[i]
		switch v.Kind {
		case KindInt, KindString:
		case KindFloat:
			if v.Flt == 0 {
				v.Flt = 0
			}
		default:
			return fmt.Errorf("engine: snapshot tuple %q has unknown value kind %d", b.ids[i/arity], v.Kind)
		}
	}
	return nil
}

// LoadSnapshot reconstructs a database from a Save stream. Tuple
// identifiers, sequence order, and delta contents round-trip exactly. Each
// relation side is sealed straight into one segment (see LoadRows), with
// the stored IDs and Seqs, and the indexes that existed at save time built
// at once — restoring into the same steady state instead of paying a
// first-query latency spike while indexes rebuild lazily. Content stored
// twice in one side keeps its first row, as inserting the rows would.
func LoadSnapshot(r io.Reader) (*Database, error) {
	var in snapshot
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if in.Format != 1 && in.Format != snapshotFormat {
		return nil, fmt.Errorf("engine: unsupported snapshot format %d", in.Format)
	}
	schema := NewSchema()
	for _, sr := range in.Relations {
		if _, err := schema.AddRelation(sr.Name, sr.IDPrefix, sr.Attrs...); err != nil {
			return nil, err
		}
	}
	s := newSnapshot(schema)
	for i := range in.Relations {
		sr := &in.Relations[i]
		arity := len(sr.Attrs)
		for _, side := range []struct {
			cols *snapCols
			rows []snapTuple
			idx  []int
			into map[string]*frozenRel
		}{{sr.BaseC, sr.Base, sr.BaseIdx, s.base}, {sr.DeltaC, sr.Delta, sr.DeltaIdx, s.delta}} {
			var b *snapBlock
			var err error
			if side.cols != nil {
				b, err = side.cols.block(arity)
			} else {
				b, err = tupleBlock(side.rows, sr)
			}
			if err == nil {
				err = b.sanitize(arity)
			}
			if err != nil {
				return nil, err
			}
			for _, q := range b.seqs {
				s.seq = max(s.seq, q)
			}
			n := dedupRows(b.vals, arity, func(dst, src int) {
				b.ids[dst], b.seqs[dst] = b.ids[src], b.seqs[src]
			})
			warm := slices.DeleteFunc(side.idx, func(col int) bool { return col < 0 || col >= arity })
			side.into[sr.Name] = sealRows(sr.Name, arity, b.vals[:n*arity], b.ids[:n], b.seqs[:n], warm)
		}
		s.nextID[sr.Name] = sr.NextID
	}
	s.seq = max(s.seq, in.NextSeq)
	return s.mint(), nil
}

// LoadSnapshotFile is LoadSnapshot reading from a file path.
func LoadSnapshotFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}
