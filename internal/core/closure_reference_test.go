package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/tpch"
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
			full.Add(asn.Head().TID, asn)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return full
}

// clauseAsn builds an assignment binding pos at base atoms and neg at delta
// atoms, whose clause is pos ∧ ¬neg: a decoded clause, to add to another
// formula.
func clauseAsn(pos, neg []engine.TupleID) *datalog.Assignment {
	asn := &datalog.Assignment{Rule: &datalog.Rule{}}
	for i, id := range append(slices.Clip(pos), neg...) {
		asn.Rule.Body = append(asn.Rule.Body, datalog.Atom{Delta: i >= len(pos)})
		asn.Tuples = append(asn.Tuples, &engine.Tuple{TID: id})
	}
	return asn
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
	inV := make(map[engine.TupleID]bool, len(ic.prov.preDeleted))
	for id := range ic.prov.preDeleted {
		inV[id] = true
	}
	negInV := func(neg []engine.TupleID) bool {
		for _, id := range neg {
			if !inV[id] {
				return false
			}
		}
		return true
	}
	for grew := true; grew; {
		grew = false
		for i := range full.Len() {
			pos, neg := full.Body(i)
			if !negInV(neg) {
				continue
			}
			for _, id := range pos {
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
	for i, h := range ic.prov.formula.Heads {
		restricted.Add(h, clauseAsn(ic.prov.formula.Body(i)))
		if full.Add(h, clauseAsn(ic.prov.formula.Body(i))) {
			t.Fatalf("restricted clause %v (head t%d) is not in the full formula", ic.prov.formula.Lits(i), h)
		}
	}
	for i, h := range full.Heads {
		pos, neg := full.Body(i)
		if !restricted.Add(h, clauseAsn(pos, neg)) {
			continue
		}
		dropped = true
		if negInV(neg) {
			t.Fatalf("dropped clause %v ∧ ¬%v (head t%d) has every negative literal in V", pos, neg, h)
		}
	}

	fullCNF, fullIDs, forced := referenceCNF(t, full, ic.prov.preDeleted)
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
	gotModels, wantModels := minimalModels(ic.cnf, ic.prov.formula.TupleIDs(), ic.prov.preDeleted), minimalModels(fullCNF, fullIDs, ic.prov.preDeleted)
	if !slices.Equal(gotModels, wantModels) {
		t.Fatalf("set-minimal models differ:\nrestricted %v\nfull       %v", gotModels, wantModels)
	}
	return dropped, true
}

// preDeleteEveryThird returns a fork of the scenario's database with every
// third tuple deleted beforehand (the §3.6 initialization).
func preDeleteEveryThird(sc *gen.Scenario) *engine.Database { return preDeleteEvery(sc.DB, 3) }

// preDeleteEvery returns a fork of db with every nth tuple deleted
// beforehand.
func preDeleteEvery(db *engine.Database, nth int) *engine.Database {
	preDeleted := db.Fork()
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

// checkEndGraphAgainstDefinition asserts, on one database, that the graph
// read off the closure formula is the end-semantics graph by definition,
// recomputed from the full sweep: E grows from the pre-deleted tuples one
// round at a time by the heads of every clause whose negative literals all
// lie in E; a head's layer is the first round a clause of it fires; its
// clauses are all the full sweep's clauses with negative literals in E; and
// the layer count is the round count of a cold end run. It reports whether
// the projection dropped a clause of the closure formula (V ⊋ E).
func checkEndGraphAgainstDefinition(t *testing.T, db *engine.Database, prep *datalog.Prepared) (dropped bool) {
	t.Helper()
	d, err := NewDerivation(db, prep)
	if err != nil {
		t.Fatal(err)
	}
	prov, _, err := d.closureArtefact(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.endGraph(nil, prov)
	if err != nil {
		t.Fatal(err)
	}
	full := fullFormulaReference(t, db, prep)

	inE := maps.Clone(prov.preDeleted)
	negInE := func(neg []engine.TupleID) bool {
		for _, id := range neg {
			if !inE[id] {
				return false
			}
		}
		return true
	}
	layer := make(map[engine.TupleID]int)
	for round := 1; ; round++ {
		var fired []engine.TupleID
		for i, h := range full.Heads {
			if _, neg := full.Body(i); negInE(neg) {
				fired = append(fired, h)
			}
		}
		grew := false
		for _, h := range fired {
			if _, known := layer[h]; !known {
				layer[h], grew = round, true
			}
			if !inE[h] {
				inE[h], grew = true, true
			}
		}
		if !grew {
			break
		}
	}
	if !maps.Equal(g.Layer, layer) {
		t.Fatalf("layers %v, want %v", g.Layer, layer)
	}
	if len(g.Heads) != len(layer) {
		t.Fatalf("%d heads listed, %d in the layer map", len(g.Heads), len(layer))
	}

	sigs := func(f *provenance.Formula, h engine.TupleID, cs []int32) []string {
		out := make([]string, 0, len(cs))
		for _, ci := range cs {
			pos, neg := f.Body(int(ci))
			slices.Sort(pos)
			slices.Sort(neg)
			out = append(out, fmt.Sprint(h, pos, neg))
		}
		slices.Sort(out)
		return out
	}
	want := make(map[engine.TupleID][]int32)
	for i, h := range full.Heads {
		if _, neg := full.Body(i); negInE(neg) {
			want[h] = append(want[h], int32(i))
		}
	}
	for h, cs := range want {
		if got := sigs(g.Formula, h, g.Assignments[h]); !slices.Equal(got, sigs(full, h, cs)) {
			t.Fatalf("clauses of t%d: %v, want %v", h, got, sigs(full, h, cs))
		}
	}
	if len(g.Assignments) != len(want) {
		t.Fatalf("%d heads with clauses, want %d", len(g.Assignments), len(want))
	}

	end, _, err := RunWith(db, nil, SemEnd, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLayers != end.Rounds {
		t.Fatalf("NumLayers = %d, cold end took %d rounds", g.NumLayers, end.Rounds)
	}
	for _, h := range g.Heads {
		if !prov.preDeleted[h] && !end.ids[h] {
			t.Fatalf("head t%d is not in the end result", h)
		}
	}
	kept := 0
	for _, cs := range g.Assignments {
		kept += len(cs)
	}
	return kept < prov.formula.Len()
}

// TestEndGraphMatchesDefinition runs the definition check on the running
// example, the paper's 26 programs, and the 500 generator seeds, each as
// generated and again with every third tuple deleted beforehand.
func TestEndGraphMatchesDefinition(t *testing.T) {
	dropped := 0
	run := func(name string, db *engine.Database, p *datalog.Program) {
		t.Run(name, func(t *testing.T) {
			prep, err := datalog.Prepare(p, db.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if checkEndGraphAgainstDefinition(t, db, prep) {
				dropped++
			}
		})
	}
	run("running-example", academicDB(), academicProgram(t))
	md := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	for n := 1; n <= 20; n++ {
		p, err := programs.MAS(n, md)
		if err != nil {
			t.Fatal(err)
		}
		run(fmt.Sprintf("mas-%d", n), md.DB, p)
	}
	td := tpch.Generate(tpch.Config{Scale: 0.0005, Seed: 1})
	for n := 1; n <= 6; n++ {
		p, err := programs.TPCH(n, td)
		if err != nil {
			t.Fatal(err)
		}
		run(fmt.Sprintf("tpch-%d", n), td.DB, p)
	}
	for seed := int64(1); seed <= 500; seed++ {
		sc := gen.Generate(seed)
		run(fmt.Sprintf("seed%d/as-generated", seed), sc.DB, sc.Program)
		run(fmt.Sprintf("seed%d/pre-deleted", seed), preDeleteEveryThird(sc), sc.Program)
	}
	// Only a check of the projection if it sometimes restricts the formula.
	if dropped == 0 {
		t.Fatal("vacuous: the end graph kept every closure clause on every instance")
	}
	t.Logf("%d of 1027 instances have V ⊋ E", dropped)
}

// stageByDefinition is Def. 3.7 taken literally, sharing no code with the
// stage policy: on a fork, every stage evaluates every rule's operational
// plan against the database the stages before it left and deletes all of
// the new heads at once, until a stage derives none. It returns the
// deleted tuples' content keys, sorted, and the number of stages that
// deleted one.
func stageByDefinition(t *testing.T, db *engine.Database, prep *datalog.Prepared) ([]string, int) {
	t.Helper()
	work := db.Fork()
	var keys []string
	for stage := 0; ; stage++ {
		var heads []*engine.Tuple
		seen := make(map[engine.TupleID]bool)
		for _, pr := range prep.Rules {
			err := pr.EvalOperational(work, nil, func(asn *datalog.Assignment) bool {
				if h := asn.Head(); !seen[h.TID] {
					seen[h.TID] = true
					heads = append(heads, h)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(heads) == 0 {
			slices.Sort(keys)
			return keys, stage
		}
		for _, h := range heads {
			if !work.DeleteTupleToDelta(h) {
				t.Fatalf("stage %d derived %s, which is not live", stage+1, h.Key())
			}
			keys = append(keys, h.Key())
		}
	}
}

// TestStageMatchesDefinition checks the stage policy, read off the closure
// formula, against the literal Def. 3.7 transcription: the same deleted
// set and the same stage count on the running example and the socket
// benchmark's 26 programs, each as generated and again with every 50th
// tuple deleted beforehand. gen's checkScenario runs the same check on
// its seeds.
func TestStageMatchesDefinition(t *testing.T) {
	run := func(name string, db *engine.Database, prep *datalog.Prepared) {
		for _, leg := range []struct {
			name string
			db   *engine.Database
		}{{"as-generated", db}, {"pre-deleted", preDeleteEvery(db, 50)}} {
			t.Run(name+"/"+leg.name, func(t *testing.T) {
				res, _, err := RunWith(leg.db, nil, SemStage, Options{Prepared: prep})
				if err != nil {
					t.Fatal(err)
				}
				got := slices.Sorted(slices.Values(res.Keys()))
				want, stages := stageByDefinition(t, leg.db, prep)
				if !slices.Equal(got, want) || res.Rounds != stages {
					t.Fatalf("stage deletes %d tuples in %d stages, Def. 3.7 %d in %d:\n got  %v\n want %v",
						len(got), res.Rounds, len(want), stages, got, want)
				}
			})
		}
	}
	db := academicDB()
	prep, err := datalog.Prepare(academicProgram(t), db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	run("running-example", db, prep)
	for _, sp := range socketPrograms(t) {
		run(sp.name, sp.db, sp.prep)
	}
}
