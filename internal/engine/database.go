package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Database is an instance over a schema: one base relation R_i and one delta
// relation ∆_i per relation schema. Per §3.1 of the paper, ∆_i records the
// tuples deleted from R_i; a tuple moves from base to delta, it is never
// destroyed, so provenance and reporting can always resolve tuple IDs.
type Database struct {
	Schema *Schema

	base   map[string]*Relation
	delta  map[string]*Relation
	nextID map[string]int // per-relation ordinal for minted tuple IDs
	seq    int            // global insertion sequence

	// snap caches the snapshot this database was frozen into (or forked
	// from), so Freeze on an unmodified database is O(relations) instead
	// of re-freezing; freezeMu serializes Freeze calls. See cow.go.
	snap     *Snapshot
	freezeMu sync.Mutex
}

// NewDatabase creates an empty database over the schema.
func NewDatabase(schema *Schema) *Database {
	db := &Database{
		Schema: schema,
		base:   make(map[string]*Relation, len(schema.Relations)),
		delta:  make(map[string]*Relation, len(schema.Relations)),
		nextID: make(map[string]int, len(schema.Relations)),
	}
	for _, rs := range schema.Relations {
		db.base[rs.Name] = NewRelation(rs.Name, rs.Arity())
		// Delta relations keep full content dedup (not scratch): deleting a
		// tuple and re-inserting equal content mints a fresh identity, so a
		// second deletion would hand the delta a distinct object with
		// duplicate content — the content check is what preserves the
		// delta's set semantics. Cost: one cached-key hash per deletion.
		db.delta[rs.Name] = NewRelation(rs.Name, rs.Arity())
	}
	return db
}

// Relation returns the base relation R named rel, or nil if not in schema.
func (db *Database) Relation(rel string) *Relation { return db.base[rel] }

// Delta returns the delta relation ∆_rel, or nil if not in schema.
func (db *Database) Delta(rel string) *Relation { return db.delta[rel] }

// Insert adds a new tuple to the base relation, minting an identifier from
// the relation's ID prefix and interning the tuple (assigning its TupleID).
// It returns the stored tuple; re-inserting existing content returns the
// already-stored tuple. This is the insert/dedup boundary: the one hot-ish
// place a content key is computed, to intern content exactly once.
func (db *Database) Insert(rel string, vals ...Value) (*Tuple, error) {
	rs := db.Schema.Relation(rel)
	if rs == nil {
		return nil, fmt.Errorf("engine: unknown relation %q", rel)
	}
	if len(vals) != rs.Arity() {
		return nil, fmt.Errorf("engine: %s expects %d values, got %d", rel, rs.Arity(), len(vals))
	}
	r := db.base[rel]
	key := ContentKey(rel, vals)
	if t := r.Get(key); t != nil {
		return t, nil
	}
	db.nextID[rel]++
	db.seq++
	t := &Tuple{
		ID:   fmt.Sprintf("%s%d", rs.IDPrefix, db.nextID[rel]),
		Rel:  rel,
		Vals: append([]Value(nil), vals...),
		Seq:  db.seq,
		key:  key, // already computed; cache for reporting
	}
	r.Insert(t)
	return t, nil
}

// MustInsert is Insert that panics on error; for generators and tests.
func (db *Database) MustInsert(rel string, vals ...Value) *Tuple {
	t, err := db.Insert(rel, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// DeleteTupleToDelta moves a tuple from its base relation into its delta
// relation, implementing ∆(S) bookkeeping: deleting t from R_i adds it to
// ∆_i. It reports whether the tuple was live in base. This is the hot-path
// deletion primitive — pure integer-identity work, no keys built or parsed.
func (db *Database) DeleteTupleToDelta(t *Tuple) bool {
	r := db.base[t.Rel]
	d := db.delta[t.Rel]
	if r == nil || d == nil {
		return false
	}
	if !r.DeleteTuple(t) {
		return false
	}
	d.Insert(t)
	return true
}

// DeleteToDelta is DeleteTupleToDelta addressed by content key, for API
// boundaries (REPL commands, user-supplied deletion sets).
func (db *Database) DeleteToDelta(key string) bool {
	rel, ok := relOfKey(key)
	if !ok {
		return false
	}
	r := db.base[rel]
	if r == nil {
		return false
	}
	t := r.Get(key)
	if t == nil {
		return false
	}
	return db.DeleteTupleToDelta(t)
}

// relOfKey extracts the relation name from a content key "Rel(...)".
func relOfKey(key string) (string, bool) {
	i := strings.IndexByte(key, '(')
	if i <= 0 {
		return "", false
	}
	return key[:i], true
}

// Lookup finds the live base tuple with the given content key across all
// relations, or the delta tuple if it has been deleted, or nil.
func (db *Database) Lookup(key string) *Tuple {
	rel, ok := relOfKey(key)
	if !ok {
		return nil
	}
	if r := db.base[rel]; r != nil {
		if t := r.Get(key); t != nil {
			return t
		}
	}
	if d := db.delta[rel]; d != nil {
		if t := d.Get(key); t != nil {
			return t
		}
	}
	return nil
}

// LookupID finds the tuple with the given interned ID, live or deleted, or
// nil. Tuples move between base and delta but are never destroyed, so every
// ID ever handed out by this database (or its ancestors, for clones)
// resolves.
func (db *Database) LookupID(id TupleID) *Tuple {
	for _, r := range db.base {
		if t := r.GetID(id); t != nil {
			return t
		}
	}
	for _, d := range db.delta {
		if t := d.GetID(id); t != nil {
			return t
		}
	}
	return nil
}

// DisplayKey renders a tuple ID as its human-readable content key, falling
// back to "t<id>" for IDs this database cannot resolve. Reporting only.
func (db *Database) DisplayKey(id TupleID) string {
	if t := db.LookupID(id); t != nil {
		return t.Key()
	}
	return fmt.Sprintf("t%d", id)
}

// TotalTuples returns the number of live base tuples across all relations.
func (db *Database) TotalTuples() int {
	n := 0
	for _, r := range db.base {
		n += r.Len()
	}
	return n
}

// TotalDeltaTuples returns the number of delta tuples across all relations.
func (db *Database) TotalDeltaTuples() int {
	n := 0
	for _, d := range db.delta {
		n += d.Len()
	}
	return n
}

// Clone returns a deep structural copy sharing immutable tuples; overlays
// flatten, so the clone owns plain storage with no frozen base attached.
// No production code calls it: executors use the O(changes) Fork (see
// cow.go). Clone is the reference the copy-on-write fork is checked against
// (TestForkVsCloneAllPrograms) and measured against (BenchmarkForkVsClone).
func (db *Database) Clone() *Database {
	c := &Database{
		Schema: db.Schema,
		base:   make(map[string]*Relation, len(db.base)),
		delta:  make(map[string]*Relation, len(db.delta)),
		nextID: make(map[string]int, len(db.nextID)),
		seq:    db.seq,
	}
	for name, r := range db.base {
		c.base[name] = r.Clone()
	}
	for name, d := range db.delta {
		c.delta[name] = d.Clone()
	}
	for name, n := range db.nextID {
		c.nextID[name] = n
	}
	return c
}

// Stats returns per-relation live/deleted counts, ordered by schema.
func (db *Database) Stats() []RelationStat {
	out := make([]RelationStat, 0, len(db.Schema.Relations))
	for _, rs := range db.Schema.Relations {
		out = append(out, RelationStat{
			Name:    rs.Name,
			Live:    db.base[rs.Name].Len(),
			Deleted: db.delta[rs.Name].Len(),
		})
	}
	return out
}

// RelationStat summarizes one relation's live and deleted tuple counts.
type RelationStat struct {
	Name    string
	Live    int
	Deleted int
}

// String renders a compact multi-line dump of the database suitable for
// small examples and debugging; large relations are summarized.
func (db *Database) String() string {
	var b strings.Builder
	for _, rs := range db.Schema.Relations {
		r := db.base[rs.Name]
		d := db.delta[rs.Name]
		fmt.Fprintf(&b, "%s: %d live, %d deleted\n", rs.Name, r.Len(), d.Len())
		if r.Len() <= 20 {
			tuples := r.Tuples()
			sort.Slice(tuples, func(i, j int) bool { return tuples[i].Seq < tuples[j].Seq })
			for _, t := range tuples {
				fmt.Fprintf(&b, "  %s\n", t)
			}
		}
	}
	return b.String()
}
