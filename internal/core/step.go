package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// StepGreedyOptions configures Algorithm 2.
type StepGreedyOptions struct {
	// IgnoreBenefits disables the benefit-ordered selection: tuples are
	// picked in derivation order within each layer instead. Exists for the
	// benefit-heuristic ablation; the output is still a valid stabilizing
	// set, typically larger.
	IgnoreBenefits bool
}

// runStep computes a step-semantics stabilizing set with Algorithm 2: take
// the provenance graph of the end-semantics derivation (read off Algorithm
// 1's closure formula; the lemma is on closureArtefact), compute each tuple's
// benefit (assignments it participates in minus assignments its delta
// participates in), then traverse the graph layer by layer greedily adding
// the highest-benefit tuple and pruning delta tuples that can no longer be
// derived.
//
// Finding Step(P, D) — the minimum over all step executions — is NP-hard
// (Prop. 4.2); the greedy output is a stabilizing set realizable by a step
// execution, matching the paper's heuristic.
func (d *Derivation) runStep(opts Options) (*Result, error) {
	ctx := opts.Ctx
	// Phase 1 (Eval): the closure formula, shared with independent and
	// charged here only if nobody built it before.
	prov, evalDur, err := d.closureArtefact(ctx, DefaultMaxClauses)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Phase 2 (ProcessProv): the graph projection, then benefits, and the
	// heads ordered layer by layer — by benefit (desc), then derivation
	// order, within a layer. Clauses are the formula's, reached through its
	// occurrence index; heads and tuples are its variables (a head is bound
	// at its self atom, a Pos tuple, so it has one). No content keys exist
	// on this path.
	ppStart := time.Now()
	graph, err := d.endGraph(ctx, prov)
	if err != nil {
		return nil, err
	}
	f := graph.Formula
	occ := f.Occurrences()
	benefits := graph.Benefits()
	heads := slices.Clone(graph.Heads)
	sort.SliceStable(heads, func(i, j int) bool {
		a, b := heads[i], heads[j]
		if la, lb := graph.Layer[a], graph.Layer[b]; la != lb {
			return la < lb
		}
		return !opts.Step.IgnoreBenefits && benefits[f.Var(a)] > benefits[f.Var(b)]
	})
	// A clause outside the graph starts void: it never fired, so no head
	// counts on it.
	void := slices.Repeat([]bool{true}, f.Len())
	live := make([]int, len(f.TupleIDs())+1) // head variable -> its clauses not yet void
	assignments := 0
	for h, cs := range graph.Assignments {
		live[f.Var(h)] = len(cs)
		assignments += len(cs)
		for _, ci := range cs {
			void[ci] = false
		}
	}
	ppDur := time.Since(ppStart)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Phase 3 (Traverse): greedy selection with cascading pruning.
	trStart := time.Now()
	settled := make([]bool, len(live)) // head variable -> deleted, or underivable and not deleted
	var order []engine.TupleID

	var voidClause func(ci int32)
	voidClause = func(ci int32) {
		if void[ci] {
			return
		}
		void[ci] = true
		v := f.Var(f.Heads[ci])
		if live[v]--; live[v] > 0 || settled[v] {
			return
		}
		// ∆(h) was not deleted and can no longer be derived: the clauses
		// requiring it as a delta dependency are void.
		settled[v] = true
		_, neg := occ.Of(int32(v))
		for _, ci := range neg {
			voidClause(ci)
		}
	}
	for _, h := range heads {
		v := f.Var(h)
		if settled[v] {
			continue
		}
		settled[v] = true
		order = append(order, h)
		// Deleting h voids every assignment using h positively (other than
		// deriving ∆(h) itself).
		pos, _ := occ.Of(int32(v))
		for _, ci := range pos {
			if f.Heads[ci] != h {
				voidClause(ci)
			}
		}
	}
	trDur := time.Since(trStart)

	res, err := d.finishIDs(SemStep, prov, order)
	if err != nil {
		return nil, err
	}
	res.Rounds = graph.NumLayers
	res.GraphAssignments = assignments
	res.Timing.Eval = evalDur
	res.Timing.ProcessProv = ppDur
	res.Timing.Traverse = trDur
	return res, nil
}

// StepExhaustiveOptions bounds the exhaustive search.
type StepExhaustiveOptions struct {
	// MaxStates caps the number of distinct deletion states explored;
	// 0 means DefaultMaxStepStates. Exceeding the cap returns an error.
	MaxStates int
	// Ctx, when non-nil, cancels the search: it is checked once per
	// explored state.
	Ctx context.Context
}

// DefaultMaxStepStates is the exhaustive search's default state budget.
const DefaultMaxStepStates = 250_000

// stateSig condenses a sorted deletion set into a 64-bit signature for
// visited-state dedup, mixing each tuple ID through an FNV-1a/avalanche
// round. Compared with the former binary-string key this removes the
// per-candidate string allocation and shrinks the visited set by ~an order
// of magnitude. The signature is a hash, not an exact key: two distinct
// states collide with probability ~n²/2⁶⁴ — about 10⁻⁹ at the default
// 250 000-state budget — which is negligible for the small validation
// instances the exhaustive search exists for.
func stateSig(tuples []*engine.Tuple) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, t := range tuples {
		h ^= uint64(t.TID)
		h *= 1099511628211 // FNV-1a prime
	}
	// Final avalanche (splitmix64 tail) so near-identical sets spread.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RunStepExhaustive computes the true Step(P, D): the minimum-size deletion
// set over all step executions (Def. 3.5), by breadth-first search over
// deletion states. Exponential — only usable on small databases; it exists
// to validate the greedy Algorithm 2 and for the paper's small examples.
func RunStepExhaustive(db *engine.Database, p *datalog.Program, opts StepExhaustiveOptions) (*Result, *engine.Database, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStepStates
	}
	prep, err := resolvePlan(db, p, nil)
	if err != nil {
		return nil, nil, err
	}
	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)

	type state struct {
		tuples []*engine.Tuple // deletion set, sorted by TupleID
	}

	start := time.Now()
	// Freeze the input once; each explored state then forks the shared
	// frozen base and replays its deletion set, costing O(deletions so
	// far) instead of the former O(database) deep clone per state — the
	// per-state indexes are the snapshot's warm ones, built once.
	snap := db.Freeze()
	visited := map[uint64]bool{stateSig(nil): true}
	frontier := []state{{}}

	for len(frontier) > 0 {
		var next []state
		for _, st := range frontier {
			if err := ctxErr(opts.Ctx); err != nil {
				return nil, nil, err
			}
			// Rebuild the database at this state. Tuple pointers are shared
			// between db and its forks, so the set applies to any fork.
			work := snap.Fork()
			for _, t := range st.tuples {
				work.DeleteTupleToDelta(t)
			}
			// Enumerate all current assignments; collect candidate heads.
			headSet := make(map[engine.TupleID]bool)
			var heads []*engine.Tuple
			for _, pr := range prep.Rules {
				err := pr.EvalOperational(work, ctx, func(a *datalog.Assignment) bool {
					h := a.Head()
					if !headSet[h.TID] {
						headSet[h.TID] = true
						heads = append(heads, h)
					}
					return true
				})
				if err != nil {
					return nil, nil, err
				}
			}
			if len(heads) == 0 {
				// Stable: BFS guarantees minimal |S| among step executions.
				res := newResult(SemStep, append([]*engine.Tuple(nil), st.tuples...))
				res.Optimal = true
				res.Rounds = len(st.tuples)
				res.Timing = Breakdown{Eval: time.Since(start)}
				return res, work, nil
			}
			for _, h := range heads {
				tuples := make([]*engine.Tuple, 0, len(st.tuples)+1)
				tuples = append(tuples, st.tuples...)
				tuples = append(tuples, h)
				slices.SortFunc(tuples, func(a, b *engine.Tuple) int {
					return cmp.Compare(a.TID, b.TID)
				})
				cand := state{tuples: tuples}
				sk := stateSig(cand.tuples)
				if visited[sk] {
					continue
				}
				if len(visited) >= maxStates {
					return nil, nil, fmt.Errorf("core: exhaustive step search exceeded %d states", maxStates)
				}
				visited[sk] = true
				next = append(next, cand)
			}
		}
		frontier = next
	}
	return nil, nil, fmt.Errorf("core: exhaustive step search exhausted without finding a stable state")
}

// RunStepRandom simulates one nondeterministic step execution (Def. 3.5):
// repeatedly pick a uniformly random satisfying assignment, delete its head,
// update the database, and continue until stable. Models what an arbitrary
// trigger-firing order can produce; the result is a stabilizing set but not
// necessarily a small one.
func RunStepRandom(db *engine.Database, p *datalog.Program, seed int64) (*Result, *engine.Database, error) {
	prep, err := resolvePlan(db, p, nil)
	if err != nil {
		return nil, nil, err
	}
	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)
	rng := rand.New(rand.NewSource(seed))
	work := db.Fork()
	start := time.Now()
	var deleted []*engine.Tuple
	for steps := 0; ; steps++ {
		if steps > db.TotalTuples()+1 {
			return nil, nil, fmt.Errorf("core: random step execution did not terminate")
		}
		var heads []*engine.Tuple
		headSet := make(map[engine.TupleID]bool)
		for _, pr := range prep.Rules {
			err := pr.EvalOperational(work, ctx, func(a *datalog.Assignment) bool {
				h := a.Head()
				if !headSet[h.TID] {
					headSet[h.TID] = true
					heads = append(heads, h)
				}
				return true
			})
			if err != nil {
				return nil, nil, err
			}
		}
		if len(heads) == 0 {
			break
		}
		h := heads[rng.Intn(len(heads))]
		deleted = append(deleted, h)
		work.DeleteTupleToDelta(h)
	}
	res := newResult(SemStep, deleted)
	res.Rounds = len(deleted)
	res.Timing = Breakdown{Eval: time.Since(start)}
	return res, work, nil
}
