package engine

import (
	"strings"
	"sync/atomic"
)

// TupleID is a dense integer tuple identity, assigned once when a tuple is
// first inserted into a relation (interned). It is the identity used on
// every hot path — relation storage, index buckets, join dedup, provenance
// clauses, and SAT variables — replacing the string content key, which is
// now computed only for human-readable reports.
//
// The zero value means "not yet interned". IDs are unique process-wide
// (assigned from one atomic 64-bit counter — effectively inexhaustible, and
// never reclaimed), so tuples can move freely between a database, its
// clones, and derived scratch relations without re-keying, and long-lived
// processes that create many databases cannot wrap the ID space.
type TupleID uint64

// nextTupleID is the global interning counter; see assignTupleID.
var nextTupleID atomic.Uint64

// assignTupleID interns the tuple, giving it a fresh TupleID unless it
// already has one. Safe for concurrent use.
func assignTupleID(t *Tuple) TupleID {
	if t.TID == 0 {
		t.TID = TupleID(nextTupleID.Add(1))
	}
	return t.TID
}

// Tuple is an immutable row of a relation. Tuples carry a stable external
// identifier (ID, e.g. "a2" for the second Author tuple) used in repair
// reports and in the paper's figures, an interned integer identity (TID)
// used for set semantics everywhere inside the engine, and a sequence
// number fixing a deterministic global order.
//
// Tuples are shared by pointer between a database, its clones, and its delta
// relations; they must never be mutated after insertion.
type Tuple struct {
	// ID is the stable human-readable identifier, assigned at insertion
	// (relation prefix + ordinal) or provided by the caller.
	ID string
	// Rel is the relation name the tuple belongs to.
	Rel string
	// Vals holds the attribute values, in schema order.
	Vals []Value
	// Seq is a database-global insertion sequence number; it defines the
	// deterministic iteration and tie-breaking order everywhere.
	Seq int
	// TID is the interned integer identity, assigned at first insertion
	// (0 until then). Two stored tuples share a TID iff they are the same
	// tuple object.
	TID TupleID

	key string // cached content key, built lazily for reporting
}

// Key returns the injective content key "Rel(v1,v2,...)". Two tuples with
// the same relation and values share the same key. The key exists for
// human-readable reports, explanations, and key-based lookups at API
// boundaries; engine-internal identity is TID.
func (t *Tuple) Key() string {
	if t.key == "" {
		t.key = ContentKey(t.Rel, t.Vals)
	}
	return t.key
}

// ContentKey computes the content key for a relation name and value list
// without materializing a tuple.
func ContentKey(rel string, vals []Value) string {
	var b strings.Builder
	b.Grow(len(rel) + 2 + len(vals)*8)
	b.WriteString(rel)
	b.WriteByte('(')
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.keyString())
	}
	b.WriteByte(')')
	return b.String()
}

// Arity returns the number of attributes.
func (t *Tuple) Arity() int { return len(t.Vals) }

// String renders the tuple as "id: Rel(v1, v2)".
func (t *Tuple) String() string {
	var b strings.Builder
	if t.ID != "" {
		b.WriteString(t.ID)
		b.WriteString(": ")
	}
	b.WriteString(t.Rel)
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
