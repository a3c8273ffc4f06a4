package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
)

// socketProgram is one of the socket benchmark's 26 cold_repair_all
// programs: MAS-1..20 over MAS at scale 0.1 and T-1..6 over TPC-H at scale
// 0.01, both generated with seed 1.
type socketProgram struct {
	name string
	db   *engine.Database
	prep *datalog.Prepared
}

func socketPrograms(tb testing.TB) []socketProgram {
	tb.Helper()
	md := mas.Generate(mas.Config{Scale: 0.1, Seed: 1})
	td := tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1})
	var out []socketProgram
	for n := 1; n <= 26; n++ {
		db, name := md.DB, fmt.Sprintf("MAS-%d", n)
		var (
			p   *datalog.Program
			err error
		)
		if n <= 20 {
			p, err = programs.MAS(n, md)
		} else {
			db, name = td.DB, fmt.Sprintf("T-%d", n-20)
			p, err = programs.TPCH(n-20, td)
		}
		if err != nil {
			tb.Fatal(err)
		}
		prep, err := datalog.Prepare(p, db.Schema)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, socketProgram{name, db, prep})
	}
	return out
}

// TestIndependentSearchFingerprint pins Algorithm 1 on the socket
// benchmark's 26 programs under the default node budget: the provenance
// formula's size, the CNF's size after its body dedup, and the Min-Ones
// search's node count, cost and optimality. The node count is the search's
// fingerprint — the same split, reductions and branching order reproduce
// it exactly. Every program but three is proven at the root, its greedy
// solution meeting the root bound (1 node); MAS-8 and T-6 are one
// component no reduction touches, searched whole; MAS-14 splits into 265
// components, its hitting set closed by reduction, and its count is summed
// over the components searched.
func TestIndependentSearchFingerprint(t *testing.T) {
	want := map[string]struct {
		clauses, cnf int
		nodes, cost  int64
		optimal      bool
	}{
		"MAS-1": {159, 159, 1, 159, true}, "MAS-2": {158, 158, 1, 1, true},
		"MAS-3": {316, 158, 1, 1, true}, "MAS-4": {196, 98, 1, 1, true},
		"MAS-5": {159, 159, 1, 159, true}, "MAS-6": {317, 317, 1, 159, true},
		"MAS-7": {9, 9, 1, 9, true}, "MAS-8": {632, 474, 3, 159, true},
		"MAS-9": {329, 329, 1, 329, true}, "MAS-10": {627, 627, 1, 623, true},
		"MAS-11": {840, 840, 1, 840, true}, "MAS-12": {840, 840, 1, 751, true},
		"MAS-13": {1197, 1197, 1, 570, true}, "MAS-14": {1197, 1197, 82, 533, true},
		"MAS-15": {1197, 1197, 1, 60, true}, "MAS-16": {1, 1, 1, 1, true},
		"MAS-17": {99, 99, 1, 99, true}, "MAS-18": {363, 363, 1, 363, true},
		"MAS-19": {627, 627, 1, 623, true}, "MAS-20": {683, 683, 1, 679, true},
		"T-1": {41550, 41550, 1, 1, true}, "T-2": {41550, 41550, 1, 628, true},
		"T-3": {41550, 41550, 1, 1, true}, "T-4": {84, 84, 1, 37, true},
		"T-5": {751, 376, 1, 6, true}, "T-6": {41582, 41582, 1079, 5, true},
	}
	for _, sp := range socketPrograms(t) {
		t.Run(sp.name, func(t *testing.T) {
			w := want[sp.name]
			d, err := NewDerivation(sp.db.Fork(), sp.prep)
			if err != nil {
				t.Fatal(err)
			}
			ic, err := d.buildCNF(nil, IndependentOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := ic.prov.formula.Len(); got != w.clauses {
				t.Errorf("provenance clauses = %d, want %d: the closure derivation or the head+body dedup changed", got, w.clauses)
			}
			if got := ic.cnf.NumClauses(); got != w.cnf {
				t.Errorf("CNF clauses = %d, want %d: the CNF's body dedup changed", got, w.cnf)
			}
			res, err := d.Run(SemIndependent, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.SolverNodes != w.nodes {
				t.Errorf("SolverNodes = %d, want %d: the search's branching order or its work charge per node changed", res.SolverNodes, w.nodes)
			}
			if res.RepairCost != w.cost {
				t.Errorf("RepairCost = %d, want %d: the search returns a different repair", res.RepairCost, w.cost)
			}
			if res.Optimal != w.optimal {
				t.Errorf("Optimal = %v, want %v: the search stops at a different point of its budget", res.Optimal, w.optimal)
			}
		})
	}
}

// TestClosureAllocs pins the allocation counts of Algorithm 1's closure
// and of one repair-all, within ± 10 %, on MAS-8 (an update_repair_stream
// session) and T-1 (the largest formula of cold_repair_all): a fresh
// Derivation's buildCNF on each, and the four semantics over one
// Derivation on MAS-8. The closure writes every clause straight into the
// formula's flat store, and the end graph, step and the Explainer hold
// clause indexes into it, so the counts do not grow with the clauses.
func TestClosureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	progs := make(map[string]socketProgram)
	for _, sp := range socketPrograms(t) {
		progs[sp.name] = sp
	}
	derivation := func(name string) *Derivation {
		sp := progs[name]
		d, err := NewDerivation(sp.db.Fork(), sp.prep)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	buildCNF := func(name string) func() {
		return func() {
			if _, err := derivation(name).buildCNF(nil, IndependentOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	repairAll := func(name string) func() {
		return func() {
			d := derivation(name)
			for _, sem := range AllSemantics {
				if _, err := d.Run(sem, Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, leg := range []struct {
		name string
		runs int
		op   func()
		want float64
		why  string
	}{
		{"buildCNF/MAS-8", 20, buildCNF("MAS-8"), 285, "clauses are being copied out of the store again"},
		{"buildCNF/T-1", 5, buildCNF("T-1"), 1371, "clauses are being copied out of the store again"},
		{"repair-all/MAS-8", 20, repairAll("MAS-8"), 503, "a policy copies or re-indexes the clauses, or the closure or end fixpoint is derived twice"},
	} {
		if got := testing.AllocsPerRun(leg.runs, leg.op); got < 0.9*leg.want || got > 1.1*leg.want {
			t.Errorf("%s: %.0f allocs per run, want %.0f ± 10 %%: %s", leg.name, got, leg.want, leg.why)
		}
	}
}

// TestIndependentRowOrderMAS14 registers MAS-14's rows (MAS at scale 0.1,
// seed 1) in four orders — as generated, reversed and two seeded shuffles —
// and asks for the independent repair of each: every order must get a
// proven optimum of 533 deletions that stabilises the database. MAS-14 is
// the socket program whose search is hardest; a truncated search there
// would return a different, dearer set per row order.
func TestIndependentRowOrderMAS14(t *testing.T) {
	md := mas.Generate(mas.Config{Scale: 0.1, Seed: 1})
	p, err := programs.MAS(14, md)
	if err != nil {
		t.Fatal(err)
	}
	var rows []*engine.Tuple
	for _, name := range md.DB.Schema.Names() {
		rows = append(rows, md.DB.Relation(name).Tuples()...)
	}
	shuffled := func(seed int64) []*engine.Tuple {
		out := slices.Clone(rows)
		rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	reversed := slices.Clone(rows)
	slices.Reverse(reversed)
	orders := []struct {
		name string
		rows []*engine.Tuple
	}{
		{"generated", rows}, {"reversed", reversed}, {"shuffle-1", shuffled(1)}, {"shuffle-2", shuffled(2)},
	}
	keys := make(map[string]string)
	for _, o := range orders {
		db := engine.NewDatabase(md.DB.Schema)
		for _, r := range o.rows {
			db.MustInsert(r.Rel, r.Vals...)
		}
		prep, err := datalog.Prepare(p, db.Schema)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDerivation(db, prep)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(SemIndependent, Options{})
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if res.RepairCost != 533 || !res.Optimal {
			t.Errorf("%s: cost %d, optimal %v; want a proven optimum of 533", o.name, res.RepairCost, res.Optimal)
		}
		work, err := Materialize(db, res)
		if err != nil {
			t.Fatal(err)
		}
		if stable, err := checkStable(context.Background(), work, prep); err != nil || !stable {
			t.Errorf("%s: the repair does not stabilise the database (err %v)", o.name, err)
		}
		keys[o.name] = fmt.Sprint(slices.Sorted(slices.Values(res.Keys())))
	}
	for _, o := range orders[1:] {
		// Reported, not asserted: equal optima may be broken apart by a
		// row order.
		t.Logf("%s: same sorted keys as generated: %v", o.name, keys[o.name] == keys["generated"])
	}
}
