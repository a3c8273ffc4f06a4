package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/provenance"
	"repro/internal/sat"
)

// fullFormulaReference is line 1 of Algorithm 1 taken literally: one sweep
// per rule with every delta atom ranging over every possible deletion — all
// live base tuples plus the pre-deleted ones. Production builds only the
// clauses over the possible-deletion closure (Derivation.buildCNF); this is
// the formula F of its lemma, kept as the reference the restriction is
// checked against.
func fullFormulaReference(t *testing.T, db *engine.Database, prep *datalog.Prepared) *provenance.Formula {
	t.Helper()
	full := provenance.NewFormula()
	for _, pr := range prep.Rules {
		sources := make([]datalog.AtomSource, len(pr.Rule.Body))
		for i, a := range pr.Rule.Body {
			if a.Delta {
				sources[i] = datalog.AtomSource{db.Relation(a.Rel), db.Delta(a.Rel)}
			} else {
				sources[i] = datalog.AtomSource{db.Relation(a.Rel)}
			}
		}
		err := pr.EvalNaive(sources, nil, func(asn *datalog.Assignment) bool {
			full.Add(asn.Head().TID, provenance.ClauseOf(asn))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return full
}

// referenceCNF negates a provenance formula into CNF with a unit clause per
// pre-deleted tuple it mentions, numbering variables by first occurrence.
// forced counts those unit clauses: every model sets their variables, so
// costs are compared net of them.
func referenceCNF(t *testing.T, f *provenance.Formula, preDeleted map[engine.TupleID]bool) (cnf *sat.Formula, ids []engine.TupleID, forced int) {
	t.Helper()
	ids = f.TupleIDs()
	varOf := make(map[engine.TupleID]int, len(ids))
	for i, id := range ids {
		varOf[id] = i + 1
	}
	cnf = sat.NewFormula(len(ids))
	add := func(lits ...int) {
		if err := cnf.AddClause(lits...); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range f.Clauses {
		var lits []int
		for _, id := range c.Pos {
			lits = append(lits, varOf[id])
		}
		for _, id := range c.Neg {
			lits = append(lits, -varOf[id])
		}
		add(lits...)
	}
	for _, id := range ids {
		if preDeleted[id] {
			add(varOf[id])
			forced++
		}
	}
	return cnf, ids, forced
}

// minimalModels brute-forces the set-minimal models of a CNF, each rendered
// as the sorted IDs of the tuples it newly deletes (pre-deleted ones are in
// every model); the result is sorted.
func minimalModels(cnf *sat.Formula, ids []engine.TupleID, preDeleted map[engine.TupleID]bool) []string {
	n := cnf.NumVars()
	var models []uint32
	asn := make([]bool, n+1)
	for mask := uint32(0); mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			asn[v] = mask&(1<<(v-1)) != 0
		}
		if cnf.Eval(asn) {
			models = append(models, mask)
		}
	}
	var out []string
	for _, m := range models {
		minimal := true
		for _, o := range models {
			if o != m && o&m == o {
				minimal = false
				break
			}
		}
		if !minimal {
			continue
		}
		var set []engine.TupleID
		for v := 1; v <= n; v++ {
			if m&(1<<(v-1)) != 0 && !preDeleted[ids[v-1]] {
				set = append(set, ids[v-1])
			}
		}
		slices.Sort(set)
		out = append(out, fmt.Sprint(set))
	}
	sort.Strings(out)
	return out
}

// checkClosureAgainstReference asserts, on one database, that the formula
// production builds is exactly F_V of the lemma on buildCNF, and
// that restricting to it changed neither the optimum nor the set-minimal
// models. It reports whether the restriction dropped a clause and whether
// the instance was small enough to brute-force.
func checkClosureAgainstReference(t *testing.T, db *engine.Database, prep *datalog.Prepared) (dropped, bruteForced bool) {
	t.Helper()
	d, err := NewDerivation(db, prep)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := d.buildCNF(nil, IndependentOptions{DisablePreferDerivable: true})
	if err != nil {
		t.Fatal(err)
	}
	full := fullFormulaReference(t, db, prep)

	// V, computed from the full formula by the lemma's definition.
	inV := make(map[engine.TupleID]bool, len(ic.preDeleted))
	for id := range ic.preDeleted {
		inV[id] = true
	}
	negInV := func(c provenance.Clause) bool {
		for _, id := range c.Neg {
			if !inV[id] {
				return false
			}
		}
		return true
	}
	for grew := true; grew; {
		grew = false
		for _, c := range full.Clauses {
			if !negInV(c) {
				continue
			}
			for _, id := range c.Pos {
				if !inV[id] {
					inV[id], grew = true, true
				}
			}
		}
	}

	// Formula.Add reports whether a clause was new under the dedup
	// signature: every restricted clause must already be in the full
	// formula, and a full clause new to the restricted one was dropped —
	// legitimately only if one of its negative literals lies outside V.
	restricted := provenance.NewFormula()
	for i, c := range ic.formula.Clauses {
		restricted.Add(ic.formula.Heads[i], c)
		if full.Add(ic.formula.Heads[i], c) {
			t.Fatalf("restricted clause %v (head t%d) is not in the full formula", c, ic.formula.Heads[i])
		}
	}
	for i, c := range full.Clauses {
		if !restricted.Add(full.Heads[i], c) {
			continue
		}
		dropped = true
		if negInV(c) {
			t.Fatalf("dropped clause %v (head t%d) has every negative literal in V", c, full.Heads[i])
		}
	}

	fullCNF, fullIDs, forced := referenceCNF(t, full, ic.preDeleted)
	got, want := sat.MinOnes(ic.cnf, sat.Options{}), sat.MinOnes(fullCNF, sat.Options{})
	if !got.Optimal || !want.Optimal {
		t.Fatalf("search truncated (restricted optimal=%v, full optimal=%v)", got.Optimal, want.Optimal)
	}
	gotCost, wantCost := got.WeightedCost-ic.preDeletedCost, want.WeightedCost-int64(forced)
	if got.Satisfiable != want.Satisfiable || gotCost != wantCost {
		t.Fatalf("minimum cost of new deletions differs: restricted %d (sat=%v), full %d (sat=%v)",
			gotCost, got.Satisfiable, wantCost, want.Satisfiable)
	}

	if len(fullIDs) > 16 {
		return dropped, false
	}
	gotModels, wantModels := minimalModels(ic.cnf, ic.ids, ic.preDeleted), minimalModels(fullCNF, fullIDs, ic.preDeleted)
	if !slices.Equal(gotModels, wantModels) {
		t.Fatalf("set-minimal models differ:\nrestricted %v\nfull       %v", gotModels, wantModels)
	}
	return dropped, true
}

// preDeleteEveryThird returns a fork of the scenario's database with every
// third tuple deleted beforehand (the §3.6 initialization).
func preDeleteEveryThird(sc *gen.Scenario) *engine.Database {
	preDeleted := sc.DB.Fork()
	n := 0
	for _, rs := range sc.Schema.Relations {
		var victims []*engine.Tuple
		sc.DB.Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
			if n++; n%3 == 0 {
				victims = append(victims, tp)
			}
			return true
		})
		for _, tp := range victims {
			preDeleted.DeleteTupleToDelta(tp)
		}
	}
	return preDeleted
}

// TestClosureFormulaMatchesFullSweep runs the reference comparison over the
// cross-semantics suite's 500 generator seeds, each as generated and again
// with every third tuple deleted beforehand (the §3.6 initialization, which
// is what seeds the closure when no rule is delta-free).
func TestClosureFormulaMatchesFullSweep(t *testing.T) {
	var droppedSome, bruteForced int
	for seed := int64(1); seed <= 500; seed++ {
		sc := gen.Generate(seed)
		prep, err := datalog.Prepare(sc.Program, sc.Schema)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		preDeleted := preDeleteEveryThird(sc)
		for _, leg := range []struct {
			name string
			db   *engine.Database
		}{{"as-generated", sc.DB}, {"pre-deleted", preDeleted}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, leg.name), func(t *testing.T) {
				dropped, brute := checkClosureAgainstReference(t, leg.db, prep)
				if dropped {
					droppedSome++
				}
				if brute {
					bruteForced++
				}
			})
		}
	}
	// The suite is only a check of the restriction if the restriction
	// happens, and only a check of the model sets if some are enumerated.
	if droppedSome == 0 || bruteForced == 0 {
		t.Fatalf("vacuous: %d instances dropped a clause, %d were brute-forced", droppedSome, bruteForced)
	}
	t.Logf("%d of 1000 instances dropped clauses; %d brute-forced", droppedSome, bruteForced)
}
