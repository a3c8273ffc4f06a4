package sideeffect

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
)

// BenchmarkDeleteViewTuple times one view deletion under a delta program
// on the first row of a view: the socket benchmark's org query on MAS-8
// and MAS-19 (MAS at scale 0.1, seed 1), and a LineItem–PartSupp join on
// T-1 (TPC-H at scale 0.01, seed 1). Each iteration forks the frozen
// database as the daemon does per request; the view's plan and the base
// indexes are built before the timer starts.
func BenchmarkDeleteViewTuple(b *testing.B) {
	md := mas.Generate(mas.Config{Scale: 0.1, Seed: 1})
	td := tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1})
	for _, c := range []struct {
		name string
		db   *engine.Database
		prog func() (*datalog.Program, error)
		view string
	}{
		{"MAS-8", md.DB, func() (*datalog.Program, error) { return programs.MAS(8, md) },
			"Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4."},
		{"MAS-19", md.DB, func() (*datalog.Program, error) { return programs.MAS(19, md) },
			"Q(a, p) :- Writes(a, p), Author(a, n, o), o = 4."},
		{"T-1", td.DB, func() (*datalog.Program, error) { return programs.TPCH(1, td) },
			"Q(ok, ln) :- LineItem(ok, ln, pk, sk, q), PartSupp(pk, sk, q2)."},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.db.Freeze()
			p, err := c.prog()
			if err != nil {
				b.Fatal(err)
			}
			prep, err := datalog.Prepare(p, c.db.Schema)
			if err != nil {
				b.Fatal(err)
			}
			v, err := ParseView(c.view, c.db.Schema)
			if err != nil {
				b.Fatal(err)
			}
			rows, err := v.Eval(c.db)
			if err != nil || len(rows) == 0 {
				b.Fatalf("view has %d rows, err %v", len(rows), err)
			}
			target := rows[0].Values
			if _, _, err := DeleteViewTuple(c.db.Fork(), v, target, prep, Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DeleteViewTuple(c.db.Fork(), v, target, prep, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
