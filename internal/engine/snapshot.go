package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
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

// snapVec is one serialized column vector (format 2): integers inline,
// floats as IEEE-754 bits, strings as indexes into the relation's string
// table. Kinds is nil when the column is uniformly Kind — the schema-clean
// common case — so a typical column serializes as one flat []int64.
type snapVec struct {
	Kind  byte
	Kinds []byte // per-row kinds; nil when uniform
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

// encodeSnapCols converts one relation side to columnar serialized form.
func encodeSnapCols(tuples []*Tuple, arity int) *snapCols {
	n := len(tuples)
	sc := &snapCols{
		IDs:  make([]string, n),
		Seqs: make([]int, n),
		Cols: make([]snapVec, arity),
	}
	strIdx := make(map[string]int64)
	for i, t := range tuples {
		sc.IDs[i], sc.Seqs[i] = t.ID, t.Seq
	}
	for col := range sc.Cols {
		sv := &sc.Cols[col]
		sv.Data = make([]int64, n)
		uniform := true
		for i, t := range tuples {
			v := t.Vals[col]
			if i == 0 {
				sv.Kind = byte(v.Kind)
			} else if byte(v.Kind) != sv.Kind {
				uniform = false
			}
			switch v.Kind {
			case KindInt:
				sv.Data[i] = v.Int
			case KindFloat:
				sv.Data[i] = int64(math.Float64bits(v.Flt))
			default:
				idx, ok := strIdx[v.Str]
				if !ok {
					idx = int64(len(sc.Strs))
					sc.Strs = append(sc.Strs, v.Str)
					strIdx[v.Str] = idx
				}
				sv.Data[i] = idx
			}
		}
		if !uniform {
			sv.Kinds = make([]byte, n)
			for i, t := range tuples {
				sv.Kinds[i] = byte(t.Vals[col].Kind)
			}
		}
	}
	return sc
}

// rows flattens a columnar side back into row-oriented snapTuples.
func (sc *snapCols) rows(arity int) ([]snapTuple, error) {
	out := make([]snapTuple, len(sc.IDs))
	if len(sc.Seqs) != len(sc.IDs) || len(sc.Cols) != arity {
		return nil, fmt.Errorf("engine: malformed columnar snapshot block")
	}
	for _, sv := range sc.Cols {
		if len(sv.Data) != len(sc.IDs) || (sv.Kinds != nil && len(sv.Kinds) != len(sc.IDs)) {
			return nil, fmt.Errorf("engine: malformed columnar snapshot vector")
		}
	}
	for i := range out {
		vals := make([]Value, arity)
		for c := range vals {
			sv := &sc.Cols[c]
			kind := Kind(sv.Kind)
			if sv.Kinds != nil {
				kind = Kind(sv.Kinds[i])
			}
			switch kind {
			case KindInt:
				vals[c] = Value{Kind: KindInt, Int: sv.Data[i]}
			case KindFloat:
				// -0.0 normalization happens in sanitizeSnapTuple, shared
				// with the row decoding path.
				vals[c] = Value{Kind: KindFloat, Flt: math.Float64frombits(uint64(sv.Data[i]))}
			case KindString:
				d := sv.Data[i]
				if d < 0 || d >= int64(len(sc.Strs)) {
					return nil, fmt.Errorf("engine: columnar snapshot string index out of range")
				}
				vals[c] = Value{Kind: KindString, Str: sc.Strs[d]}
			default:
				return nil, fmt.Errorf("engine: columnar snapshot has unknown value kind %d", kind)
			}
		}
		out[i] = snapTuple{ID: sc.IDs[i], Seq: sc.Seqs[i], Vals: vals}
	}
	return out, nil
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

// sanitizeSnapTuple validates one decoded tuple against its relation
// schema before insertion: gob decodes arbitrary bytes, so arity and
// value kinds cannot be trusted (Relation.Insert panics on arity
// mismatches by contract). Float zeros are normalized to +0.0 — gob
// omits zero-valued struct fields, so -0.0 cannot survive a re-save,
// and load-time normalization keeps save/load a fixpoint.
func sanitizeSnapTuple(st *snapTuple, sr *snapRelation) error {
	if len(st.Vals) != len(sr.Attrs) {
		return fmt.Errorf("engine: snapshot tuple %q has %d values, relation %s has arity %d",
			st.ID, len(st.Vals), sr.Name, len(sr.Attrs))
	}
	for i := range st.Vals {
		switch st.Vals[i].Kind {
		case KindInt, KindString:
		case KindFloat:
			if st.Vals[i].Flt == 0 {
				st.Vals[i].Flt = 0
			}
		default:
			return fmt.Errorf("engine: snapshot tuple %q has unknown value kind %d", st.ID, st.Vals[i].Kind)
		}
	}
	return nil
}

// LoadSnapshot reconstructs a database from a Save stream. Tuple
// identifiers, sequence order, and delta contents round-trip exactly.
func LoadSnapshot(r io.Reader) (*Database, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if snap.Format != 1 && snap.Format != snapshotFormat {
		return nil, fmt.Errorf("engine: unsupported snapshot format %d", snap.Format)
	}
	schema := NewSchema()
	for _, sr := range snap.Relations {
		if _, err := schema.AddRelation(sr.Name, sr.IDPrefix, sr.Attrs...); err != nil {
			return nil, err
		}
	}
	db := NewDatabase(schema)
	maxSeq := 0
	for i := range snap.Relations {
		sr := &snap.Relations[i]
		// A columnar (format 2) relation flattens back to rows up front;
		// the insertion path below is shared by both formats.
		if sr.BaseC != nil {
			rows, err := sr.BaseC.rows(len(sr.Attrs))
			if err != nil {
				return nil, err
			}
			sr.Base = rows
		}
		if sr.DeltaC != nil {
			rows, err := sr.DeltaC.rows(len(sr.Attrs))
			if err != nil {
				return nil, err
			}
			sr.Delta = rows
		}
	}
	for _, sr := range snap.Relations {
		for _, st := range sr.Base {
			if err := sanitizeSnapTuple(&st, &sr); err != nil {
				return nil, err
			}
			t := &Tuple{ID: st.ID, Rel: sr.Name, Vals: st.Vals, Seq: st.Seq}
			db.base[sr.Name].Insert(t)
			if st.Seq > maxSeq {
				maxSeq = st.Seq
			}
		}
		for _, st := range sr.Delta {
			if err := sanitizeSnapTuple(&st, &sr); err != nil {
				return nil, err
			}
			t := &Tuple{ID: st.ID, Rel: sr.Name, Vals: st.Vals, Seq: st.Seq}
			db.delta[sr.Name].Insert(t)
			if st.Seq > maxSeq {
				maxSeq = st.Seq
			}
		}
		db.nextID[sr.Name] = sr.NextID
		// Pre-warm the indexes that existed at save time: building them now,
		// while the data is hot, avoids a lazy rebuild on the first query.
		for _, col := range sr.BaseIdx {
			db.base[sr.Name].EnsureIndex(col)
		}
		for _, col := range sr.DeltaIdx {
			db.delta[sr.Name].EnsureIndex(col)
		}
	}
	if snap.NextSeq > maxSeq {
		maxSeq = snap.NextSeq
	}
	db.seq = maxSeq
	return db, nil
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
