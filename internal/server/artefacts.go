package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
)

// maxArtefactBytes bounds the encoded bytes one session's artefact store
// holds. Query bodies are keyed by client text and independent repairs by
// a client-chosen budget, so the version window alone does not bound them;
// an answer that would take the store past this is served but not stored.
const maxArtefactBytes = 8 << 20

// artefactStore is a session's record of what it has computed from its
// snapshot versions: repair results with their encoded /repair fields,
// stability verdicts, repair spaces and encoded /query bodies. Every
// artefact is a deterministic function of an immutable snapshot version
// and its request key, so an entry never goes stale; it goes when its
// version leaves the retention ring (prune), which bounds the store by the
// ring's window. Stored values are never mutated: readers keep them after
// the lock is released.
type artefactStore struct {
	ring *engine.SnapshotRing

	mu    sync.Mutex
	items map[artefactKey]artefact
	bytes int // encoded bytes held: bodies, and the query sources keying them
}

// artefactKind names what an artefact holds.
type artefactKind uint8

const (
	repairArtefact artefactKind = iota // res, and body: the /repair fields
	stableArtefact                     // stable
	spaceArtefact                      // space
	queryArtefact                      // body: the /query body
)

// artefactKey identifies one artefact: the version it was computed from,
// its kind, and the request fields that kind depends on (zero otherwise).
type artefactKey struct {
	version uint64
	kind    artefactKind
	sem     core.Semantics
	// nodes is the effective solver budget. Spaces and queries depend on
	// it, repairs only under independent semantics: a truncated search
	// under a small budget can return a non-minimal repair, which must
	// never answer another budget's request.
	nodes    int64
	k        int    // the clamped k of a space or query
	cardOnly bool   // the minimality mode of a space or query
	src      string // the query source as the client sent it
}

// artefact is one stored value; which fields are set depends on the kind.
type artefact struct {
	res    *core.Result
	stable bool
	space  *core.RepairSpace
	body   []byte
}

// repairKey is the key of sem's repair at version under the solver budget
// nodes.
func repairKey(version uint64, sem core.Semantics, nodes int64) artefactKey {
	key := artefactKey{version: version, kind: repairArtefact, sem: sem}
	if sem == core.SemIndependent {
		key.nodes = nodes
	}
	return key
}

// spaceKey is the key of the repair space eopts asks for at version under
// the solver budget nodes.
func spaceKey(version uint64, eopts core.EnumerateOptions, nodes int64) artefactKey {
	return artefactKey{version: version, kind: spaceArtefact, nodes: nodes,
		k: core.ClampEnumK(eopts.K), cardOnly: eopts.CardinalityOnly}
}

// queryKey is the key of src's /query body over that space.
func queryKey(version uint64, src string, eopts core.EnumerateOptions, nodes int64) artefactKey {
	key := spaceKey(version, eopts, nodes)
	key.kind, key.src = queryArtefact, src
	return key
}

func newArtefactStore(ring *engine.SnapshotRing) *artefactStore {
	return &artefactStore{ring: ring, items: make(map[artefactKey]artefact)}
}

// get returns the artefact stored under key.
func (st *artefactStore) get(key artefactKey) (artefact, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.items[key]
	return a, ok
}

// put stores a under key. An artefact already stored there keeps its
// values (both answer the same immutable version) and gains a's body if it
// has none. A body is stored only while the store stays within
// maxArtefactBytes, and a query, which is nothing but its body, not at all
// past it. Nothing is stored for a version already evicted: reading Oldest
// under the lock orders every put after the prune that follows an
// eviction, or before it.
func (st *artefactStore) put(key artefactKey, a artefact) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if key.version < st.ring.Oldest() {
		return
	}
	cur, ok := st.items[key]
	if !ok {
		cur = a
		cur.body = nil
	}
	if n := len(key.src) + len(a.body); cur.body == nil && a.body != nil && st.bytes+n <= maxArtefactBytes {
		cur.body = a.body
		st.bytes += n
	}
	if key.kind == queryArtefact && cur.body == nil {
		return
	}
	st.items[key] = cur
}

// latest returns the artefact stored under key's fields at the newest
// version ≤ key.version, and that version.
func (st *artefactStore) latest(key artefactKey) (artefact, uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var (
		best  artefact
		from  uint64
		found bool
	)
	for k, a := range st.items {
		v := k.version
		k.version = key.version
		if k != key || v > key.version || found && v <= from {
			continue
		}
		best, from, found = a, v, true
	}
	return best, from, found
}

// prune drops every artefact of a version older than the ring's oldest.
func (st *artefactStore) prune() {
	oldest := st.ring.Oldest()
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, a := range st.items {
		if k.version < oldest {
			if a.body != nil {
				st.bytes -= len(k.src) + len(a.body)
			}
			delete(st.items, k)
		}
	}
}

// held reports the encoded bytes the store holds.
func (st *artefactStore) held() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}
