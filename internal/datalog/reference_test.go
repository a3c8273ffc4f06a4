package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

// referenceEval enumerates assignments by brute-force nested loops over the
// cross product of all atom sources, checking every constraint at the end.
// It is the executable specification the optimized join is tested against.
func referenceEval(rule *Rule, sources []AtomSource) []string {
	var results []string
	tuples := make([]*engine.Tuple, len(rule.Body))

	var rec func(i int)
	rec = func(i int) {
		if i == len(rule.Body) {
			if asn := checkAssignment(rule, tuples); asn != "" {
				results = append(results, asn)
			}
			return
		}
		for _, rel := range sources[i] {
			if rel == nil {
				continue
			}
			for _, tp := range rel.Tuples() {
				tuples[i] = tp
				rec(i + 1)
			}
		}
		tuples[i] = nil
	}
	rec(0)
	sort.Strings(results)
	return results
}

// checkAssignment validates a candidate tuple vector against the rule's
// constants, repeated variables, and comparisons; it returns a canonical
// string for comparison or "" if invalid.
func checkAssignment(rule *Rule, tuples []*engine.Tuple) string {
	bind := make(map[string]engine.Value)
	for i, a := range rule.Body {
		for col, term := range a.Terms {
			v := tuples[i].Vals[col]
			if !term.IsVar() {
				if !term.Const.Equal(v) {
					return ""
				}
				continue
			}
			if prev, ok := bind[term.Var]; ok {
				if !prev.Equal(v) {
					return ""
				}
			} else {
				bind[term.Var] = v
			}
		}
	}
	for _, c := range rule.Comps {
		l, r := c.Left.Const, c.Right.Const
		if c.Left.IsVar() {
			l = bind[c.Left.Var]
		}
		if c.Right.IsVar() {
			r = bind[c.Right.Var]
		}
		if !c.Op.Eval(l, r) {
			return ""
		}
	}
	key := ""
	for _, tp := range tuples {
		key += tp.Key() + "|"
	}
	return key
}

// randomEvalInstance builds a random database and rule for the equivalence
// property. Cells are mostly ints, sometimes the integral float or the
// string of the same number, so cross-kind equality is exercised. The rule
// may carry comparisons of either orientation against int, integral-float,
// non-integral-float and string constants, on head and non-head
// variables, including a second equality on one variable (consistent or
// contradictory) and variable-variable equalities: the shapes the compiler
// folds into index probes. Half the databases are frozen, so both sealed
// segments and the row tail are probed; half of those take a second round
// — deletions, more rows, a second freeze — and then a tail, so a probe
// crosses tombstones, two segments and a tail before the term match
// rejects a candidate on its further bound columns.
func randomEvalInstance(seed int64) (*engine.Database, *Rule, error) {
	rng := rand.New(rand.NewSource(seed))
	s := engine.NewSchema()
	s.MustAddRelation("A", "a", "x", "y")
	s.MustAddRelation("B", "b", "x")
	s.MustAddRelation("C", "c", "x", "y", "z")

	db := engine.NewDatabase(s)
	dom := 1 + rng.Intn(4)
	// cell draws a stored value: the number k as an int, or now and then
	// as the equal float or as a (never equal) string.
	cell := func() engine.Value {
		k := rng.Intn(dom)
		switch rng.Intn(8) {
		case 0:
			return engine.Float(float64(k))
		case 1:
			return engine.Str(fmt.Sprint("s", k))
		default:
			return engine.Int(k)
		}
	}
	// constant draws a rule constant over the same numbers, in every kind.
	constant := func() engine.Value {
		k := rng.Intn(dom)
		switch rng.Intn(6) {
		case 0:
			return engine.Float(float64(k))
		case 1:
			return engine.Str(fmt.Sprint("s", k))
		case 2:
			return engine.Float(float64(k) + 0.5)
		default:
			return engine.Int(k)
		}
	}
	fill := func() {
		for i, n := 0, rng.Intn(7); i < n; i++ {
			db.MustInsert("A", cell(), cell())
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			db.MustInsert("B", cell())
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			db.MustInsert("C", cell(), cell(), cell())
		}
	}
	fill()
	if rng.Intn(2) == 0 {
		db.Freeze()
		if rng.Intn(2) == 0 {
			for _, name := range []string{"A", "B", "C"} {
				rel := db.Relation(name)
				for _, tp := range rel.Tuples() {
					if rng.Intn(3) == 0 {
						rel.DeleteTuple(tp)
					}
				}
			}
			fill()
			db.Freeze()
			fill()
		}
	}

	// Random rule: head over A, body with 1-3 extra atoms and random
	// variable sharing from a small pool.
	pool := []string{"x", "y", "z", "w"}
	rels := []struct {
		name  string
		arity int
	}{{"A", 2}, {"B", 1}, {"C", 3}}
	head := Atom{Delta: true, Rel: "A", Terms: []Term{V("x"), V("y")}}
	body := []Atom{{Rel: "A", Terms: []Term{V("x"), V("y")}}}
	bound := []string{"x", "y"}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r := rels[rng.Intn(len(rels))]
		terms := make([]Term, r.arity)
		for j := range terms {
			if rng.Intn(5) == 0 {
				terms[j] = C(constant())
			} else {
				v := pool[rng.Intn(len(pool))]
				terms[j] = V(v)
				if !slices.Contains(bound, v) {
					bound = append(bound, v)
				}
			}
		}
		body = append(body, Atom{Rel: r.name, Terms: terms})
	}
	var comps []Comparison
	// compare appends "v op c" or, as often, "c op v".
	compare := func(v string, op CompOp, c engine.Value) {
		if rng.Intn(2) == 0 {
			comps = append(comps, Comparison{Left: V(v), Op: op, Right: C(c)})
		} else {
			comps = append(comps, Comparison{Left: C(c), Op: op, Right: V(v)})
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		v := bound[rng.Intn(len(bound))]
		switch rng.Intn(6) {
		case 0:
			compare(v, CompOp(rng.Intn(6)), constant())
		case 1:
			// A second equality on v: the same number in another kind
			// (consistent) or a fresh draw (often contradictory).
			c := constant()
			compare(v, OpEQ, c)
			if rng.Intn(2) == 0 && c.IsNumeric() {
				compare(v, OpEQ, engine.Float(c.AsFloat()))
			} else {
				compare(v, OpEQ, constant())
			}
		case 2:
			comps = append(comps, Comparison{Left: V(v), Op: OpEQ, Right: V(bound[rng.Intn(len(bound))])})
		default:
			compare(v, OpEQ, constant())
		}
	}
	rule := NewRule("", head, body, comps...)
	p := NewProgram(rule)
	if err := p.Validate(s); err != nil {
		return nil, nil, err
	}
	return db, rule, nil
}

// TestPropertyJoinMatchesReference: the optimized index-assisted join must
// enumerate exactly the assignments of the brute-force reference, for
// random rules and databases.
func TestPropertyJoinMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		db, rule, err := randomEvalInstance(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sources := SourcesFor(db, rule)
		var got []string
		if err := EvalRule(rule, sources, func(a *Assignment) bool {
			key := ""
			for _, tp := range a.Tuples {
				key += tp.Key() + "|"
			}
			got = append(got, key)
			return true
		}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sort.Strings(got)
		want := referenceEval(rule, sources)
		if len(got) != len(want) {
			t.Logf("seed %d: got %d assignments, reference %d\nrule: %s",
				seed, len(got), len(want), rule)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: assignment %d differs:\n  got  %s\n  want %s",
					seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestPropertyJoinWithDeltaAtoms repeats the equivalence with delta atoms
// in the body (sourced from partially-deleted databases).
func TestPropertyJoinWithDeltaAtoms(t *testing.T) {
	f := func(seed int64) bool {
		db, _, err := randomEvalInstance(seed)
		if err != nil {
			return false
		}
		// Delete ~a third of A's tuples into the delta side.
		rng := rand.New(rand.NewSource(seed ^ 0xdead))
		for _, tp := range db.Relation("A").Tuples() {
			if rng.Intn(3) == 0 {
				db.DeleteToDelta(tp.Key())
			}
		}
		rule := NewRule("",
			Atom{Delta: true, Rel: "C", Terms: []Term{V("x"), V("y"), V("z")}},
			[]Atom{
				{Rel: "C", Terms: []Term{V("x"), V("y"), V("z")}},
				{Delta: true, Rel: "A", Terms: []Term{V("x"), V("w")}},
			})
		p := NewProgram(rule)
		if err := p.Validate(db.Schema); err != nil {
			return false
		}
		sources := SourcesFor(db, rule)
		var got []string
		if err := EvalRule(rule, sources, func(a *Assignment) bool {
			key := ""
			for _, tp := range a.Tuples {
				key += tp.Key() + "|"
			}
			got = append(got, key)
			return true
		}); err != nil {
			return false
		}
		sort.Strings(got)
		want := referenceEval(rule, sources)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Logf("seed %d: delta-join mismatch: got %v want %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
