package datalog

import (
	"fmt"
	"sync"

	"repro/internal/engine"
)

// This file implements the prepared-execution layer: Prepare compiles a
// validated program once — per rule, a static join-order plan for every
// source shape evaluation can run under, plus the set of (relation, column)
// index requirements those plans probe — so server-style callers can
// amortize planning across millions of repair requests. Execution state
// (binding buffers, seminaive scratch relations) is pooled on the Prepared
// so repeated runs allocate near-zero.

// IndexTarget says which concrete relation an index requirement applies to.
type IndexTarget int

// Index requirement targets.
const (
	// TargetBase is the live base relation R_i.
	TargetBase IndexTarget = iota
	// TargetDelta is the delta relation ∆_i.
	TargetDelta
	// TargetScratch is evaluation-internal scratch (the seminaive old and
	// frontier relations a derivation loop maintains per delta relation).
	TargetScratch
)

// IndexReq declares one single-column hash index a prepared plan probes.
type IndexReq struct {
	Rel    string
	Col    int
	Target IndexTarget
}

// PreparedRule is one rule with its compiled form and per-shape plans.
type PreparedRule struct {
	// Rule is the underlying validated rule.
	Rule *Rule

	cr *compiledRule

	// operational: delta atoms read ∆_i (the live deltas) — stability
	// checks, step executions, trigger statements — or, under EvalNaive, the
	// full seminaive delta contents (old ∪ frontier): the same weights, so
	// the same plan.
	operational *plan
	// fromBase: delta atoms read base content — view witnesses and
	// stability formulas over one database state.
	fromBase *plan
	// passes[p]: seminaive pass p — the p-th delta atom reads the frontier,
	// earlier delta atoms read old deltas, later ones old ∪ frontier.
	passes []*plan
	// insertPasses[i]: base atom baseIdx[i] reads only a caller-supplied
	// seed of changed tuples, the other atoms read what the caller supplies
	// (EvalChangeSeeded's base-atom passes).
	insertPasses []*plan

	// deltaIdx holds the body indexes of the rule's delta atoms, in order.
	deltaIdx []int
	// baseIdx holds the body indexes of the rule's base atoms, in order.
	baseIdx []int
}

// NumDeltaBody returns the number of ∆-atoms in the rule body (the number
// of seminaive passes).
func (pr *PreparedRule) NumDeltaBody() int { return len(pr.deltaIdx) }

// Prepared is a program compiled for repeated execution: validated rules,
// static join plans per source shape, declared index requirements, and
// pooled execution state. A Prepared is immutable after construction and
// safe for concurrent use.
type Prepared struct {
	// Program is the prepared program.
	Program *Program
	// Schema is the schema the program was prepared against.
	Schema *engine.Schema
	// Rules holds one PreparedRule per program rule, in program order.
	Rules []*PreparedRule

	// Declared index requirements. Execution leaves index construction lazy
	// (only columns a run actually probes get built — cheaper when rules
	// never fire); WarmIndexes pre-builds the union on request.
	reqs          []IndexReq // union of all shapes, deduplicated
	seminaiveReqs []IndexReq // pass/naive plans: base + scratch targets

	ctxPool     sync.Pool
	scratchPool sync.Pool
}

// Prepare compiles the program against the schema for repeated execution.
// Every rule must already be validated (ParseAndValidate or
// Program.Validate); Prepare fails otherwise rather than guessing at
// semantics.
func Prepare(p *Program, schema *engine.Schema) (*Prepared, error) {
	if p == nil || len(p.Rules) == 0 {
		return nil, fmt.Errorf("datalog: cannot prepare an empty program")
	}
	if schema == nil {
		return nil, fmt.Errorf("datalog: cannot prepare without a schema")
	}
	pp := &Prepared{Program: p, Schema: schema, Rules: make([]*PreparedRule, len(p.Rules))}
	seen := make(map[IndexReq]bool)
	addReq := func(list *[]IndexReq, rq IndexReq) {
		for _, have := range *list {
			if have == rq {
				return
			}
		}
		*list = append(*list, rq)
		if !seen[rq] {
			seen[rq] = true
			pp.reqs = append(pp.reqs, rq)
		}
	}
	for i, r := range p.Rules {
		if r.SelfIdx < 0 {
			return nil, fmt.Errorf("datalog: rule %s not validated", ruleName(r))
		}
		pr := &PreparedRule{Rule: r, cr: r.compile()}
		for bi, a := range r.Body {
			if a.Delta {
				pr.deltaIdx = append(pr.deltaIdx, bi)
			} else {
				pr.baseIdx = append(pr.baseIdx, bi)
			}
		}

		// Static plans per source shape. The greedy planner breaks bound-
		// score ties by weight; without live cardinalities, weights rank the
		// shapes' typical sizes: frontier (one round's derivations) < deltas
		// (all deletions so far) < base relations.
		isDelta := func(bi int) bool { return r.Body[bi].Delta }
		pr.operational = planFor(pr.cr, func(bi int) int {
			if isDelta(bi) {
				return 0 // live deltas are usually far smaller than bases
			}
			return 1
		})
		pr.fromBase = planFor(pr.cr, func(bi int) int {
			if isDelta(bi) {
				return 1 // as large as a base atom; ties go to the base atoms
			}
			return 0
		})
		pr.passes = make([]*plan, len(pr.deltaIdx))
		for pass := range pr.deltaIdx {
			frontierAtom := pr.deltaIdx[pass]
			pr.passes[pass] = planFor(pr.cr, func(bi int) int {
				switch {
				case bi == frontierAtom:
					return 0 // the frontier seeds the join
				case isDelta(bi):
					return 1
				default:
					return 2
				}
			})
		}
		pr.insertPasses = make([]*plan, len(pr.baseIdx))
		for i := range pr.baseIdx {
			seedAtom := pr.baseIdx[i]
			pr.insertPasses[i] = planFor(pr.cr, func(bi int) int {
				switch {
				case bi == seedAtom:
					return 0 // the changed-tuple seed drives the join
				case isDelta(bi):
					return 1
				default:
					return 2
				}
			})
		}

		// Collect the index requirements each plan's probes imply.
		collect := func(list *[]IndexReq, pl *plan, deltaTargets ...IndexTarget) {
			for d, bi := range pl.order {
				col := pl.lookup[d]
				if col < 0 {
					continue
				}
				a := r.Body[bi]
				if !a.Delta {
					addReq(list, IndexReq{Rel: a.Rel, Col: col, Target: TargetBase})
					continue
				}
				for _, tg := range deltaTargets {
					addReq(list, IndexReq{Rel: a.Rel, Col: col, Target: tg})
				}
			}
		}
		// Probes over ∆_i and R_i fold into the union only; EvalNaive's probes
		// over old ∪ frontier are seminaive scratch requirements.
		var unionOnly []IndexReq
		collect(&unionOnly, pr.operational, TargetDelta)
		collect(&unionOnly, pr.fromBase, TargetBase)
		collect(&pp.seminaiveReqs, pr.operational, TargetScratch)
		for _, pl := range pr.passes {
			collect(&pp.seminaiveReqs, pl, TargetScratch)
		}

		pp.Rules[i] = pr
	}
	pp.ctxPool.New = func() any { return NewExecContext() }
	pp.scratchPool.New = func() any { return pp.newScratch() }
	return pp, nil
}

// IndexReqs returns the declared index requirements, deduplicated, in
// first-use order.
func (pp *Prepared) IndexReqs() []IndexReq { return pp.reqs }

// CompatibleWith reports whether databases over the given schema can be
// executed against these prepared plans: both schemas must declare the
// same relation names with the same arities. Distinct but structurally
// equal schema objects (e.g. a snapshot-restored database) are compatible;
// a genuinely different schema yields an error instead of a mid-derivation
// panic on a missing relation.
func (pp *Prepared) CompatibleWith(schema *engine.Schema) error {
	if schema == pp.Schema {
		return nil
	}
	if schema == nil {
		return fmt.Errorf("datalog: prepared plans executed without a schema")
	}
	if len(schema.Relations) != len(pp.Schema.Relations) {
		return fmt.Errorf("datalog: prepared plans built for a %d-relation schema, database has %d",
			len(pp.Schema.Relations), len(schema.Relations))
	}
	for _, rs := range pp.Schema.Relations {
		have := schema.Relation(rs.Name)
		if have == nil {
			return fmt.Errorf("datalog: prepared plans reference relation %s, absent from the database schema", rs.Name)
		}
		if have.Arity() != rs.Arity() {
			return fmt.Errorf("datalog: relation %s prepared with arity %d, database schema has %d",
				rs.Name, rs.Arity(), have.Arity())
		}
	}
	return nil
}

// WarmIndexes pre-builds every base- and delta-relation index any prepared
// plan probes, so no lazy index construction happens on the evaluation hot
// path. Use it on long-lived databases that serve repeated requests; for
// one-shot runs lazy building is cheaper (columns of rules that never fire
// are never built), so the executors do not call it.
func (pp *Prepared) WarmIndexes(db *engine.Database) {
	for _, rq := range pp.reqs {
		switch rq.Target {
		case TargetBase:
			if r := db.Relation(rq.Rel); r != nil {
				r.EnsureIndex(rq.Col)
			}
		case TargetDelta:
			if d := db.Delta(rq.Rel); d != nil {
				d.EnsureIndex(rq.Col)
			}
		}
	}
}

// AcquireContext returns a pooled execution context for use with the
// prepared Eval* methods. Contexts are not safe for concurrent use; acquire
// one per goroutine and release it when done.
func (pp *Prepared) AcquireContext() *ExecContext { return pp.ctxPool.Get().(*ExecContext) }

// ReleaseContext returns a context to the pool.
func (pp *Prepared) ReleaseContext(ctx *ExecContext) { pp.ctxPool.Put(ctx) }

// Scratch is the recycled per-derivation state of one seminaive fixpoint:
// the old/frontier relation pair per schema relation (with the plans'
// scratch index requirements pre-registered so inserts maintain them
// incrementally), plus the round-recycled dedup sets and buffers the
// derivation loop needs. Pooling the whole bundle means repeated
// derivations allocate near-zero.
type Scratch struct {
	// Old and Frontier are the seminaive scratch relations, keyed by
	// relation name: Old holds deltas from completed rounds, Frontier the
	// current round's.
	Old, Frontier map[string]*engine.Relation
	// Derived dedups heads across rounds; Fresh dedups within one round.
	Derived, Fresh map[engine.TupleID]bool
	// Heads buffers one round's newly derived head tuples.
	Heads []*engine.Tuple
}

func (pp *Prepared) newScratch() *Scratch {
	s := &Scratch{
		Old:      make(map[string]*engine.Relation, len(pp.Schema.Relations)),
		Frontier: make(map[string]*engine.Relation, len(pp.Schema.Relations)),
		Derived:  make(map[engine.TupleID]bool),
		Fresh:    make(map[engine.TupleID]bool),
	}
	for _, rs := range pp.Schema.Relations {
		s.Old[rs.Name] = engine.NewScratchRelation(rs.Name, rs.Arity())
		s.Frontier[rs.Name] = engine.NewScratchRelation(rs.Name, rs.Arity())
	}
	for _, rq := range pp.seminaiveReqs {
		if rq.Target != TargetScratch {
			continue
		}
		if r := s.Old[rq.Rel]; r != nil {
			r.EnsureIndex(rq.Col)
			s.Frontier[rq.Rel].EnsureIndex(rq.Col)
		}
	}
	return s
}

// AcquireScratch returns pooled seminaive scratch state, empty, with
// scratch index requirements registered. Release with ReleaseScratch so
// repeated derivations reuse the allocations.
func (pp *Prepared) AcquireScratch() *Scratch {
	return pp.scratchPool.Get().(*Scratch)
}

// ReleaseScratch resets and pools scratch obtained from AcquireScratch.
func (pp *Prepared) ReleaseScratch(s *Scratch) {
	for _, r := range s.Old {
		r.Reset()
	}
	for _, r := range s.Frontier {
		r.Reset()
	}
	clear(s.Derived)
	clear(s.Fresh)
	s.Heads = s.Heads[:0]
	pp.scratchPool.Put(s)
}

// ---------- prepared evaluation entry points ----------

// evalWith runs one plan; a nil ctx gets a transient context.
func (pr *PreparedRule) evalWith(pl *plan, sources []AtomSource, ctx *ExecContext, emit func(*Assignment) bool) error {
	if ctx == nil {
		ctx = NewExecContext()
	}
	return evalPlan(pr.Rule, pr.cr, pl, sources, ctx, emit)
}

// EvalOperational enumerates the rule's assignments with operational
// sources: base atoms read live base relations, delta atoms read ∆_i.
func (pr *PreparedRule) EvalOperational(db *engine.Database, ctx *ExecContext, emit func(*Assignment) bool) error {
	return pr.evalWith(pr.operational, SourcesFor(db, pr.Rule, DeltaFromDelta), ctx, emit)
}

// EvalFromBase enumerates assignments with every atom, delta atoms
// included, ranging over the live base relation: the shape of a view body
// or a stability formula evaluated against one database state (the
// side-effect solver's witness and violation enumeration).
func (pr *PreparedRule) EvalFromBase(db *engine.Database, ctx *ExecContext, emit func(*Assignment) bool) error {
	return pr.evalWith(pr.fromBase, SourcesFor(db, pr.Rule, DeltaFromBase), ctx, emit)
}

// EvalChangeSeeded enumerates the rule's assignments that bind at least
// one changed tuple: for each body atom in turn — base atoms via the
// insert-pass plans, delta atoms via the seminaive pass plans — that atom
// reads only the matching seed relation while every other atom reads the
// sources src supplies for its body position. Because rule bodies are
// positive conjunctions, an assignment present in one of two database
// states but not the other must bind a changed tuple at some atom, so as
// long as src covers both states at every position, the union over these
// passes covers every assignment the change created or invalidated (an
// assignment binding several changed tuples is emitted once per such
// atom; dedup if that matters). Its one caller is the warm change probe
// (core's probe replay), which seeds the deletes and the inserts over a
// superset of both versions.
func (pr *PreparedRule) EvalChangeSeeded(seeds map[string]*engine.Relation, src func(bi int) AtomSource, ctx *ExecContext, emit func(*Assignment) bool) error {
	evalAt := func(pl *plan, seedAt int, seed *engine.Relation) error {
		sources := make([]AtomSource, len(pr.Rule.Body))
		for j := range pr.Rule.Body {
			if j == seedAt {
				sources[j] = AtomSource{seed}
			} else {
				sources[j] = src(j)
			}
		}
		return pr.evalWith(pl, sources, ctx, emit)
	}
	for i, bi := range pr.baseIdx {
		seed := seeds[pr.Rule.Body[bi].Rel]
		if seed == nil || seed.Len() == 0 {
			continue
		}
		if err := evalAt(pr.insertPasses[i], bi, seed); err != nil {
			return err
		}
	}
	for p, bi := range pr.deltaIdx {
		seed := seeds[pr.Rule.Body[bi].Rel]
		if seed == nil || seed.Len() == 0 {
			continue
		}
		if err := evalAt(pr.passes[p], bi, seed); err != nil {
			return err
		}
	}
	return nil
}

// EvalPass enumerates assignments for one seminaive pass over
// caller-supplied sources (built to the pass shape: the pass-th delta atom
// reads the frontier, earlier delta atoms old deltas, later ones
// old ∪ frontier).
func (pr *PreparedRule) EvalPass(pass int, sources []AtomSource, ctx *ExecContext, emit func(*Assignment) bool) error {
	return pr.evalWith(pr.passes[pass], sources, ctx, emit)
}

// EvalNaive enumerates assignments with every delta atom reading the full
// delta contents, over caller-supplied sources.
func (pr *PreparedRule) EvalNaive(sources []AtomSource, ctx *ExecContext, emit func(*Assignment) bool) error {
	return pr.evalWith(pr.operational, sources, ctx, emit)
}
