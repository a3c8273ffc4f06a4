package sideeffect

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/provenance"
	"repro/internal/sat"
)

// fullFormulaReference is §7's formula with Algorithm 1's line 1 taken
// literally: the row's witness clauses plus one sweep per program rule with
// every delta atom ranging over every possible deletion — all live base
// tuples plus the pre-deleted ones. DeleteViewTuple builds only the clauses
// over the closure seeded with the witness tuples (the lemma on
// core.Closure); this is the formula it is checked against.
func fullFormulaReference(t *testing.T, db *engine.Database, prep *datalog.Prepared, v *View, row *Row) *provenance.Formula {
	t.Helper()
	full := provenance.NewFormula()
	for _, w := range row.Witnesses {
		full.Add(0, &datalog.Assignment{Rule: v.rule, Tuples: w})
	}
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
			full.Add(asn.Head().TID, asn)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return full
}

// closureLen is the clause count of the formula DeleteViewTuple solves for
// row: its witness clauses plus the closure they seed.
func closureLen(t *testing.T, db *engine.Database, prep *datalog.Prepared, v *View, row *Row) int {
	t.Helper()
	f := provenance.NewFormula()
	var possible []*engine.Tuple
	for _, w := range row.Witnesses {
		f.Add(0, &datalog.Assignment{Rule: v.rule, Tuples: w})
		possible = append(possible, w...)
	}
	if _, _, err := core.Closure(nil, db, prep, f, possible, 0); err != nil {
		t.Fatal(err)
	}
	return f.Len()
}

// referenceCNF negates a formula into CNF over its variables with a unit
// clause per pre-deleted tuple it mentions; forced counts those, which every
// model pays for, so costs are compared net of them.
func referenceCNF(t *testing.T, db *engine.Database, f *provenance.Formula) (cnf *sat.Formula, forced int) {
	t.Helper()
	ids := f.TupleIDs()
	varOf := make(map[engine.TupleID]int, len(ids))
	for i, id := range ids {
		varOf[id] = i + 1
	}
	cnf = sat.NewFormula(len(ids))
	add := func(lits ...int) {
		if _, err := cnf.AddClause(lits...); err != nil {
			t.Fatal(err)
		}
	}
	for i := range f.Len() {
		pos, neg := f.Body(i)
		var lits []int
		for _, id := range pos {
			lits = append(lits, varOf[id])
		}
		for _, id := range neg {
			lits = append(lits, -varOf[id])
		}
		add(lits...)
	}
	for _, id := range ids {
		if tp := db.LookupID(id); tp != nil && db.Delta(tp.Rel).ContainsID(id) {
			add(varOf[id])
			forced++
		}
	}
	return cnf, forced
}

// bruteForceMinOnes returns the fewest true variables of any model of cnf.
func bruteForceMinOnes(cnf *sat.Formula) int {
	n := cnf.NumVars()
	best := n + 1
	asn := make([]bool, n+1)
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) >= best {
			continue
		}
		for v := 1; v <= n; v++ {
			asn[v] = mask&(1<<(v-1)) != 0
		}
		if cnf.Eval(asn) {
			best = bits.OnesCount32(mask)
		}
	}
	return best
}

// preDeleteEvery returns a fork of db with every nth tuple deleted
// beforehand (the §3.6 initialization).
func preDeleteEvery(db *engine.Database, nth int) *engine.Database {
	out := db.Fork()
	n := 0
	for _, rs := range db.Schema.Relations {
		var victims []*engine.Tuple
		db.Relation(rs.Name).Scan(func(tp *engine.Tuple) bool {
			if n++; n%nth == 0 {
				victims = append(victims, tp)
			}
			return true
		})
		for _, tp := range victims {
			out.DeleteTupleToDelta(tp)
		}
	}
	return out
}

// TestDeleteViewTupleMatchesFullFormula checks DeleteViewTuple on the
// generator's seeds 1–500, each as generated and with every third tuple
// deleted beforehand. Per relation it deletes the first row of the view
// that copies the relation, and the answer must remove that row, leave the
// database stable, cost what the full formula's Min-Ones optimum costs
// whenever both searches prove optimality, and cost the brute-force
// optimum on ≤ 12 variables.
func TestDeleteViewTupleMatchesFullFormula(t *testing.T) {
	var compared, bruteForced, restricted int
	for seed := int64(1); seed <= 500; seed++ {
		sc := gen.Generate(seed)
		prep, err := datalog.Prepare(sc.Program, sc.Schema)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, leg := range []struct {
			name string
			db   *engine.Database
		}{{"as-generated", sc.DB}, {"pre-deleted", preDeleteEvery(sc.DB, 3)}} {
			for _, rs := range sc.Schema.Relations {
				vars := make([]string, rs.Arity())
				for i := range vars {
					vars[i] = fmt.Sprintf("x%d", i)
				}
				src := fmt.Sprintf("V(%[1]s) :- %[2]s(%[1]s).", strings.Join(vars, ", "), rs.Name)
				name := fmt.Sprintf("seed %d/%s/%s", seed, leg.name, src)
				v, err := ParseView(src, sc.Schema)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rows, err := v.Eval(leg.db)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(rows) == 0 {
					continue
				}
				row := rows[0]
				res, repaired, err := DeleteViewTuple(leg.db, v, row.Values, prep, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				after, err := v.Eval(repaired)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, r := range after {
					if r.MatchesRow(row.Values) {
						t.Fatalf("%s: row %s survived", name, row.Key())
					}
				}
				stable, err := core.CheckStable(repaired, nil, core.Options{Prepared: prep})
				if err != nil || !stable {
					t.Fatalf("%s: repaired database stable=%v, err %v", name, stable, err)
				}

				full := fullFormulaReference(t, leg.db, prep, v, row)
				if closureLen(t, leg.db, prep, v, row) < full.Len() {
					restricted++
				}
				cnf, forced := referenceCNF(t, leg.db, full)
				want := sat.MinOnes(cnf, sat.Options{})
				if res.Optimal && want.Optimal {
					compared++
					if wantCost := int(want.WeightedCost) - forced; res.Size() != wantCost {
						t.Fatalf("%s: deletes %d tuples, the full formula's optimum is %d", name, res.Size(), wantCost)
					}
				}
				if cnf.NumVars() <= 12 {
					bruteForced++
					if wantCost := bruteForceMinOnes(cnf) - forced; res.Size() != wantCost || !res.Optimal {
						t.Fatalf("%s: deletes %d tuples (optimal %v), brute force %d", name, res.Size(), res.Optimal, wantCost)
					}
				}
			}
		}
	}
	// Only a check of the restriction if the closure sometimes drops
	// clauses of the full formula.
	if compared == 0 || bruteForced == 0 || restricted == 0 {
		t.Fatalf("vacuous: %d optima compared, %d brute-forced, %d formulas restricted", compared, bruteForced, restricted)
	}
	t.Logf("%d optima compared with the full formula; %d brute-forced; %d formulas restricted", compared, bruteForced, restricted)
}
