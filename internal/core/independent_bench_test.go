package core

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
)

// BenchmarkBuildIndependentCNF is the layer benchmark of Algorithm 1's
// phases 1–2 (the closure derivation, the CNF, the tie-preference order) on
// the programs the socket benchmark's two dense workloads spend their
// independent-semantics time in, at that benchmark's scales: MAS-8 and
// MAS-19 are the update_repair_stream sessions, T-1 the largest formula of
// cold_repair_all. clauses/op is the formula size the solver is handed.
func BenchmarkBuildIndependentCNF(b *testing.B) {
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
			clauses := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ic, err := buildIndependentCNF(nil, snap.Fork(), prep, IndependentOptions{})
				if err != nil {
					b.Fatal(err)
				}
				clauses = ic.formula.Len()
			}
			b.ReportMetric(float64(clauses), "clauses/op")
		})
	}
}
