package core

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/tpch"
)

// layerBench runs op over the programs the socket benchmark's two dense
// workloads spend their core time in, at that benchmark's scales — MAS-8 and
// MAS-19 are the update_repair_stream sessions, T-1 the largest formula of
// cold_repair_all — each as a frozen snapshot with a prepared plan, the way
// the Service holds a session.
func layerBench(b *testing.B, op func(b *testing.B, snap *engine.Snapshot, prep *datalog.Prepared)) {
	md := mas.Generate(mas.Config{Scale: 0.1, Seed: 1})
	td := tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1})
	mustProgram := func(p *datalog.Program, err error) *datalog.Program {
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, bc := range []struct {
		name string
		db   *engine.Database
		p    *datalog.Program
	}{
		{"MAS-8", md.DB, mustProgram(programs.MAS(8, md))},
		{"MAS-19", md.DB, mustProgram(programs.MAS(19, md))},
		{"T-1", td.DB, mustProgram(programs.TPCH(1, td))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prep, err := datalog.Prepare(bc.p, bc.db.Schema)
			if err != nil {
				b.Fatal(err)
			}
			snap := bc.db.Freeze()
			b.ReportAllocs()
			b.ResetTimer()
			op(b, snap, prep)
		})
	}
}

// BenchmarkBuildIndependentCNF is the layer benchmark of Algorithm 1's
// phases 1–2 (the closure derivation, the CNF, the tie-preference order).
// clauses/op is the formula size the solver is handed.
func BenchmarkBuildIndependentCNF(b *testing.B) {
	layerBench(b, func(b *testing.B, snap *engine.Snapshot, prep *datalog.Prepared) {
		clauses := 0
		for i := 0; i < b.N; i++ {
			d, err := NewDerivation(snap.Fork(), prep)
			if err != nil {
				b.Fatal(err)
			}
			ic, err := d.buildCNF(nil, IndependentOptions{})
			if err != nil {
				b.Fatal(err)
			}
			clauses = ic.prov.formula.Len()
		}
		b.ReportMetric(float64(clauses), "clauses/op")
	})
}

// BenchmarkRepairAll is the layer benchmark of one /repair-all: the four
// semantics as four policies over one Derivation of one fork. It is where
// computing the end fixpoint once instead of once per consumer shows.
func BenchmarkRepairAll(b *testing.B) {
	layerBench(b, func(b *testing.B, snap *engine.Snapshot, prep *datalog.Prepared) {
		for i := 0; i < b.N; i++ {
			d, err := NewDerivation(snap.Fork(), prep)
			if err != nil {
				b.Fatal(err)
			}
			for _, sem := range AllSemantics {
				if _, err := d.Run(sem, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSolveIndependent is the layer benchmark of Algorithm 1's phase 3
// alone: one Min-Ones search over a prebuilt CNF, on MAS-14 (split into
// 265 components, one a hitting set the reductions close), MAS-13 (570
// components, but proven at the root, so never split), MAS-8 (an
// update_repair_stream program, one mixed component searched whole) and
// T-6 (one 41.6 K-clause mixed component, the costliest search left in
// cold_repair_all). nodes/op and cost are the search's fingerprint
// (TestIndependentSearchFingerprint pins them).
func BenchmarkSolveIndependent(b *testing.B) {
	for _, sp := range socketPrograms(b) {
		if sp.name != "MAS-8" && sp.name != "MAS-13" && sp.name != "MAS-14" && sp.name != "T-6" {
			continue
		}
		b.Run(sp.name, func(b *testing.B) {
			d, err := NewDerivation(sp.db.Fork(), sp.prep)
			if err != nil {
				b.Fatal(err)
			}
			ic, err := d.buildCNF(nil, IndependentOptions{})
			if err != nil {
				b.Fatal(err)
			}
			opts := ic.satOptions(nil, IndependentOptions{})
			b.ReportAllocs()
			b.ResetTimer()
			var solved sat.Result
			for i := 0; i < b.N; i++ {
				solved = sat.MinOnes(ic.cnf, opts)
			}
			b.ReportMetric(float64(solved.Nodes), "nodes/op")
			b.ReportMetric(float64(solved.WeightedCost-ic.preDeletedCost), "cost")
		})
	}
}
