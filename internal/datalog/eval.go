package datalog

import (
	"math"
	"slices"

	"repro/internal/engine"
)

// Assignment is a satisfying assignment α : body(r) → D (§2): one tuple per
// body atom, respecting relation names, repeated variables, constants, and
// the rule's comparisons. Tuples bound to delta atoms are the deleted base
// tuples themselves (delta relations share tuple pointers with base).
type Assignment struct {
	Rule   *Rule
	Tuples []*engine.Tuple
}

// Head returns α(head(r)): the tuple the rule derives a delta for. By
// Def. 3.1 the head's term vector equals the self atom R_i(X), so the head
// tuple is the tuple bound at SelfIdx.
func (a *Assignment) Head() *engine.Tuple {
	return a.Tuples[a.Rule.SelfIdx]
}

// String renders the assignment as "rule-label: [t1, t2, ...]".
func (a *Assignment) String() string {
	s := "["
	for i, t := range a.Tuples {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return ruleName(a.Rule) + " " + s + "]"
}

// AtomSource lists the relations an atom ranges over during evaluation.
// Multiple relations act as a disjoint union (used by seminaive passes where
// a delta atom reads old ∪ frontier).
type AtomSource []*engine.Relation

// SourcesFor builds the operational per-atom sources for evaluating rule
// against db: base atoms read the live base relation, delta atoms ∆_i.
func SourcesFor(db *engine.Database, rule *Rule) []AtomSource {
	out := make([]AtomSource, len(rule.Body))
	for i, a := range rule.Body {
		if a.Delta {
			out[i] = AtomSource{db.Delta(a.Rel)}
		} else {
			out[i] = AtomSource{db.Relation(a.Rel)}
		}
	}
	return out
}

// ---------- rule compilation ----------

// cTerm is a compiled term: a variable index or an inline constant.
type cTerm struct {
	varID    int // -1 for constants
	constVal engine.Value
}

type compiledAtom struct {
	terms []cTerm
}

type compiledComp struct {
	left, right cTerm
	op          CompOp
}

type compiledRule struct {
	nvars int
	atoms []compiledAtom
	comps []compiledComp
	// constFalse marks a rule gated off by a constant-only comparison that
	// evaluates to false: the rule can never have an assignment.
	constFalse bool
}

// compile numbers the rule's variables and inlines constants; the result
// is cached on the rule under a sync.Once so concurrent evaluations (e.g.
// two requests on one session) share one plan safely.
func (r *Rule) compile() *compiledRule {
	r.compileOnce.Do(r.doCompile)
	return r.compiled
}

func (r *Rule) doCompile() {
	ids := make(map[string]int)
	intern := func(t Term) cTerm {
		if !t.IsVar() {
			return cTerm{varID: -1, constVal: t.Const}
		}
		id, ok := ids[t.Var]
		if !ok {
			id = len(ids)
			ids[t.Var] = id
		}
		return cTerm{varID: id}
	}
	cr := &compiledRule{}
	cr.atoms = make([]compiledAtom, len(r.Body))
	for i, a := range r.Body {
		ts := make([]cTerm, len(a.Terms))
		for j, t := range a.Terms {
			ts[j] = intern(t)
		}
		cr.atoms[i] = compiledAtom{terms: ts}
	}
	cr.comps = make([]compiledComp, len(r.Comps))
	for i, c := range r.Comps {
		cr.comps[i] = compiledComp{left: intern(c.Left), right: intern(c.Right), op: c.Op}
	}
	cr.nvars = len(ids)
	cr.propagateConsts()
	r.compiled = cr
}

// indexExact reports whether an equality against v can probe a hash index
// without losing a row Value.Equal accepts: strings, and numbers of
// magnitude below 2^53, where every value that compares equal to v shares
// its index key. (Past 2^53 an int64 and a float64 can be Equal through
// rounding yet hash apart.)
func indexExact(v engine.Value) bool {
	switch v.Kind {
	case engine.KindString:
		return true
	case engine.KindInt:
		return v.Int > -1<<53 && v.Int < 1<<53
	default:
		return math.Abs(v.Flt) < 1<<53
	}
}

// propagateConsts folds each comparison "v = c" (or "c = v") with an
// index-exact constant into the rule: c replaces v in every atom and
// comparison and the comparison goes, so the planner counts c as a bound
// term and probes its index or pushes it down as a check. This is exact:
// a row whose value at v's columns is Equal to c is exactly a row the
// comparison accepted, and every other comparison on v reads the same
// answer from c (Equal to an index-exact c implies equal Compare too).
// Comparisons left with constants on both sides are decided here:
// a false one gates the rule off (constFalse), a true one is dropped.
// Rule.Comps, the AST, is untouched.
func (cr *compiledRule) propagateConsts() {
	subst := func(t *cTerm, id int, c engine.Value) {
		if t.varID == id {
			*t = cTerm{varID: -1, constVal: c}
		}
	}
	for i := 0; i < len(cr.comps); {
		c := cr.comps[i]
		if c.op != OpEQ || (c.left.varID < 0) == (c.right.varID < 0) {
			i++
			continue
		}
		v, k := c.left, c.right
		if v.varID < 0 {
			v, k = k, v
		}
		if !indexExact(k.constVal) {
			i++
			continue
		}
		cr.comps = slices.Delete(cr.comps, i, i+1)
		for _, a := range cr.atoms {
			for j := range a.terms {
				subst(&a.terms[j], v.varID, k.constVal)
			}
		}
		for j := range cr.comps {
			subst(&cr.comps[j].left, v.varID, k.constVal)
			subst(&cr.comps[j].right, v.varID, k.constVal)
		}
		i = 0 // a substitution can turn an earlier "v = w" into "c = w"
	}
	kept := cr.comps[:0]
	for _, c := range cr.comps {
		if c.left.varID < 0 && c.right.varID < 0 {
			if !c.op.Eval(c.left.constVal, c.right.constVal) {
				cr.constFalse = true
			}
			continue
		}
		kept = append(kept, c)
	}
	cr.comps = kept
}

// ---------- join planning ----------

// plan is a static join strategy for one rule under one source shape: the
// join order, the per-depth index-probe column, and the comparison
// schedule. Plans are immutable once built and shared freely between
// concurrent evaluations; Prepare builds one per (rule, source shape) up
// front.
type plan struct {
	order  []int   // body atom indexes in join order
	lookup []int   // per depth: column probed via index, -1 = full scan
	compAt [][]int // comparisons runnable after each depth
}

// planFor computes the greedy join order: repeatedly select the atom with
// the most bound terms (constants + already-bound variables), breaking ties
// by smaller weight (live cardinality for per-call plans, a static
// source-shape rank for prepared plans), then by original position.
// Comparisons are scheduled at the first depth where both sides are bound,
// and the index-probe column of each depth — the first column whose term is
// a constant or a variable bound at an earlier depth — is fixed statically.
// Every other bound column is checked by run's term match on each
// candidate the probe yields.
func planFor(cr *compiledRule, weight func(atom int) int) *plan {
	n := len(cr.atoms)
	used := make([]bool, n)
	varBound := make([]bool, cr.nvars)
	pl := &plan{order: make([]int, 0, n), lookup: make([]int, n)}

	for len(pl.order) < n {
		best, bestScore, bestWeight := -1, -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range cr.atoms[i].terms {
				if t.varID < 0 || varBound[t.varID] {
					score++
				}
			}
			w := weight(i)
			if best == -1 || score > bestScore || (score == bestScore && w < bestWeight) {
				best, bestScore, bestWeight = i, score, w
			}
		}
		used[best] = true
		// Fix the probe column before the atom's own variables bind: the
		// first bound column probes the index.
		d := len(pl.order)
		pl.lookup[d] = -1
		for col, t := range cr.atoms[best].terms {
			if t.varID < 0 || varBound[t.varID] {
				pl.lookup[d] = col
				break
			}
		}
		pl.order = append(pl.order, best)
		for _, t := range cr.atoms[best].terms {
			if t.varID >= 0 {
				varBound[t.varID] = true
			}
		}
	}

	// Schedule comparisons.
	pl.compAt = make([][]int, n)
	varDepth := make([]int, cr.nvars)
	for i := range varDepth {
		varDepth[i] = -1
	}
	for d, ai := range pl.order {
		for _, t := range cr.atoms[ai].terms {
			if t.varID >= 0 && varDepth[t.varID] < 0 {
				varDepth[t.varID] = d
			}
		}
	}
	for ci, c := range cr.comps {
		d := -1
		for _, t := range []cTerm{c.left, c.right} {
			if t.varID >= 0 {
				if varDepth[t.varID] < 0 {
					d = -2 // unreachable: validation guarantees boundness
					break
				}
				if varDepth[t.varID] > d {
					d = varDepth[t.varID]
				}
			}
		}
		if d >= 0 {
			pl.compAt[d] = append(pl.compAt[d], ci)
		}
	}
	return pl
}

// ---------- evaluation ----------

// ExecContext is the reusable per-evaluation state: variable bindings,
// bound flags, the per-atom tuple vector, and per-depth undo scratch. A
// context is private to one evaluation at a time but can be reused across
// any number of sequential evaluations (of different rules) without
// reallocating; Prepared pools them so repeated runs allocate near-zero.
type ExecContext struct {
	bindings []engine.Value
	bound    []bool
	tuples   []*engine.Tuple
	fresh    [][]int

	// asnChunk/tupChunk are bump allocators for emitted assignments: each
	// emit hands out the next slot of a chunk instead of allocating, cutting
	// per-assignment allocations to ~2 per chunk. Handed-out slots are never
	// reused — the chunks are abandoned to the GC as they fill — so callers
	// may retain emitted Assignments indefinitely, exactly as before.
	asnChunk []Assignment
	tupChunk []*engine.Tuple
}

// NewExecContext returns an empty context; it grows to fit each rule it
// evaluates.
func NewExecContext() *ExecContext { return &ExecContext{} }

// assignment chunk sizes: amortize the two allocations per emitted
// assignment over whole chunks.
const (
	asnChunkLen = 64
	tupChunkLen = 256
)

// newAssignment builds an emitted assignment from the current tuple vector
// using the context's bump allocator.
func (ctx *ExecContext) newAssignment(rule *Rule, tuples []*engine.Tuple) *Assignment {
	if len(ctx.asnChunk) == 0 {
		ctx.asnChunk = make([]Assignment, asnChunkLen)
	}
	asn := &ctx.asnChunk[0]
	ctx.asnChunk = ctx.asnChunk[1:]
	n := len(tuples)
	if len(ctx.tupChunk) < n {
		size := tupChunkLen
		if n > size {
			size = n
		}
		ctx.tupChunk = make([]*engine.Tuple, size)
	}
	buf := ctx.tupChunk[:n:n]
	ctx.tupChunk = ctx.tupChunk[n:]
	copy(buf, tuples)
	asn.Rule = rule
	asn.Tuples = buf
	return asn
}

// ensure sizes the context for a rule with nvars variables and natoms body
// atoms and clears the bound flags (cheap, and it keeps a context that was
// abandoned mid-join — an early stop or a panicking emit callback — from
// poisoning its next evaluation).
func (ctx *ExecContext) ensure(nvars, natoms int) {
	if cap(ctx.bindings) < nvars {
		ctx.bindings = make([]engine.Value, nvars)
		ctx.bound = make([]bool, nvars)
	}
	ctx.bindings = ctx.bindings[:nvars]
	ctx.bound = ctx.bound[:nvars]
	for i := range ctx.bound {
		ctx.bound[i] = false
	}
	if cap(ctx.tuples) < natoms {
		ctx.tuples = make([]*engine.Tuple, natoms)
	}
	ctx.tuples = ctx.tuples[:natoms]
	for len(ctx.fresh) < natoms {
		ctx.fresh = append(ctx.fresh, nil)
	}
}

type evaluator struct {
	rule    *Rule
	cr      *compiledRule
	pl      *plan
	sources []AtomSource
	ctx     *ExecContext
	emit    func(*Assignment) bool
	stopped bool
}

// evalPlan enumerates the rule's assignments following the given plan,
// using ctx for all mutable state. The sources must match the plan's shape
// (same per-atom indexing as rule.Body).
func evalPlan(rule *Rule, cr *compiledRule, pl *plan, sources []AtomSource, ctx *ExecContext, emit func(*Assignment) bool) error {
	if cr.constFalse {
		return nil // gated off by a constant-only comparison
	}
	ctx.ensure(cr.nvars, len(cr.atoms))
	ev := &evaluator{rule: rule, cr: cr, pl: pl, sources: sources, ctx: ctx, emit: emit}
	ev.run(0)
	if ev.stopped {
		// Early stop leaves bindings mid-join; scrub so the context can be
		// reused (normal completion unwinds every binding on its own).
		for i := range ctx.bound {
			ctx.bound[i] = false
		}
	}
	return nil
}

func (ev *evaluator) termValue(t cTerm) (engine.Value, bool) {
	if t.varID < 0 {
		return t.constVal, true
	}
	if ev.ctx.bound[t.varID] {
		return ev.ctx.bindings[t.varID], true
	}
	return engine.Value{}, false
}

// run enumerates candidates for the atom at the given join depth: it
// probes the plan's index column with LookupEach, or scans, and its term
// match rejects every candidate whose other bound columns differ
// (Value.Equal) — the only check those columns get.
func (ev *evaluator) run(depth int) {
	if ev.stopped {
		return
	}
	ctx := ev.ctx
	if depth == len(ev.pl.order) {
		if !ev.emit(ctx.newAssignment(ev.rule, ctx.tuples)) {
			ev.stopped = true
		}
		return
	}
	ai := ev.pl.order[depth]
	atom := ev.cr.atoms[ai]

	// The probe column is fixed by the plan; resolve its value now. Every
	// other bound column is checked on each candidate by the term match.
	lookupCol := ev.pl.lookup[depth]
	var lookupVal engine.Value
	if lookupCol >= 0 {
		lookupVal, _ = ev.termValue(atom.terms[lookupCol])
	}

	tryTuple := func(tp *engine.Tuple) bool {
		if ev.stopped {
			return false
		}
		// Match terms; record fresh bindings for undo.
		fresh := ctx.fresh[depth][:0]
		ok := true
		for col, t := range atom.terms {
			v := tp.Vals[col]
			if t.varID < 0 {
				if !t.constVal.Equal(v) {
					ok = false
					break
				}
				continue
			}
			if ctx.bound[t.varID] {
				if !ctx.bindings[t.varID].Equal(v) {
					ok = false
					break
				}
				continue
			}
			ctx.bound[t.varID] = true
			ctx.bindings[t.varID] = v
			fresh = append(fresh, t.varID)
		}
		ctx.fresh[depth] = fresh
		undo := func() {
			for _, id := range fresh {
				ctx.bound[id] = false
			}
		}
		if !ok {
			undo()
			return true
		}
		// Run comparisons that just became fully bound.
		for _, ci := range ev.pl.compAt[depth] {
			c := ev.cr.comps[ci]
			lv, _ := ev.termValue(c.left)
			rv, _ := ev.termValue(c.right)
			if !c.op.Eval(lv, rv) {
				undo()
				return true
			}
		}
		ctx.tuples[ai] = tp
		ev.run(depth + 1)
		ctx.tuples[ai] = nil
		undo()
		return !ev.stopped
	}

	for _, rel := range ev.sources[ai] {
		if rel == nil {
			continue
		}
		if lookupCol >= 0 {
			rel.LookupEach(lookupCol, lookupVal, tryTuple)
		} else {
			rel.Scan(tryTuple)
		}
		if ev.stopped {
			return
		}
	}
}
