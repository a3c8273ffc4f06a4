// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one benchmark per artifact, plus the design-choice ablations of
// experiments.Ablations and micro-benchmarks of the core machinery. Scales
// are laptop-friendly; raise them through internal/experiments.Config (or
// the cmd/experiments flags) to approach the paper's dataset sizes.
//
//	go test -bench=. -benchmem .
package deltarepair_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	deltarepair "repro"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/tpch"
)

// benchCfg is the shared benchmark configuration: small datasets, paper
// ladder scaled to the row count.
func benchCfg() experiments.Config {
	return experiments.Config{
		MASScale:    0.01,
		TPCHScale:   0.005,
		Rows:        600,
		Errors:      24,
		Seed:        1,
		IndMaxNodes: 150000,
		ErrorLevels: []int{12, 24, 36, 60, 84, 120},
	}
}

// --- Table 3: containment of results -------------------------------------

func BenchmarkTable3Containment(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		masRuns, _, err := experiments.RunMAS(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		tpchRuns, _, err := experiments.RunTPCH(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table3(append(masRuns, tpchRuns...))
		if len(rows) != 26 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Figure 6: result sizes over the MAS programs ------------------------

func benchSizes(b *testing.B, selected []int, wantRows int) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		runs, _, err := experiments.RunMAS(cfg, selected)
		if err != nil {
			b.Fatal(err)
		}
		if rows := experiments.Sizes(runs); len(rows) != wantRows {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig6aResultSizes(b *testing.B) {
	benchSizes(b, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10)
}

func BenchmarkFig6bResultSizes(b *testing.B) {
	benchSizes(b, []int{11, 12, 13, 14, 15}, 5)
}

func BenchmarkFig6cResultSizes(b *testing.B) {
	benchSizes(b, []int{16, 17, 18, 19, 20}, 5)
}

// --- Figure 7: MAS execution times ----------------------------------------

func BenchmarkFig7Runtimes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		runs, _, err := experiments.RunMAS(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows := experiments.Times(runs); len(rows) != 20 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Figure 8: runtime breakdown of Algorithms 1 and 2 --------------------

func BenchmarkFig8Breakdown(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		runs, _, err := experiments.RunMAS(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Breakdown(runs, "1-15", func(r *experiments.ProgramRun) bool { return r.Number <= 15 })
		rows = append(rows, experiments.Breakdown(runs, "16-20", func(r *experiments.ProgramRun) bool { return r.Number >= 16 })...)
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Figure 9: TPC-H sizes and runtimes ------------------------------------

func BenchmarkFig9aTPCHSizes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		runs, _, err := experiments.RunTPCH(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows := experiments.Sizes(runs); len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig9bTPCHRuntimes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		runs, _, err := experiments.RunTPCH(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows := experiments.Times(runs); len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Tables 4 and 5: the HoloClean comparison ------------------------------

func BenchmarkTable4OverDeletion(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t4, _, err := experiments.Tables4And5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(t4) != len(cfg.ErrorLevels) {
			b.Fatalf("rows = %d", len(t4))
		}
	}
}

func BenchmarkTable5Violations(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		_, t5, err := experiments.Tables4And5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(t5) != len(cfg.ErrorLevels) {
			b.Fatalf("rows = %d", len(t5))
		}
	}
}

// --- Figure 10: HoloClean runtime sweeps -----------------------------------

func BenchmarkFig10aErrors(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10Errors(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(cfg.ErrorLevels) {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig10bRows(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10Rows(cfg, []int{300, 600, 1200})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Trigger comparison -----------------------------------------------------

func BenchmarkTriggerComparison(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TriggerComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(experiments.TriggerPrograms) {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkAblations(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- Micro-benchmarks of the core machinery ----------------------------------

// BenchmarkSemantics measures each executor on the cascade program 10
// (the workload where all four semantics do the same amount of deletion
// work), isolating executor overhead.
func BenchmarkSemantics(b *testing.B) {
	ds := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	p, err := programs.MAS(10, ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, sem := range core.AllSemantics {
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.RunWith(ds.DB, p, sem, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairEnumeration measures k-best repair enumeration against
// the single-repair baseline on the MAS cascade: k=1 is one Min-Ones
// solve over the shared provenance CNF (the single-repair independent path), k=8
// adds up to seven blocking-clause re-solves plus materializations.
func BenchmarkRepairEnumeration(b *testing.B) {
	ds := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	p, err := programs.MAS(10, ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp, err := core.EnumerateRepairsWith(ds.DB, p, core.Options{}, core.EnumerateOptions{K: k})
				if err != nil {
					b.Fatal(err)
				}
				if sp.K() < 1 {
					b.Fatal("empty repair space")
				}
			}
		})
	}
}

// BenchmarkEvaluationStrategies contrasts seminaive and naive end-semantics
// evaluation on the 5-layer cascade (the third of experiments.Ablations).
func BenchmarkEvaluationStrategies(b *testing.B) {
	ds := mas.Generate(mas.Config{Scale: 0.05, Seed: 1})
	p, err := programs.MAS(20, ds)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunWith(ds.DB, p, core.SemEnd, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunEndNaive(ds.DB, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedRepair contrasts the server-style amortized path
// (Prepare once, Repair per request) with per-request parse + validate +
// plan + repair — the workload the prepared-execution layer exists for.
// The small pair (the 13-tuple running example) models high-rate request
// serving where per-request fixed costs dominate; the mas pair (a scale
// 0.02 cascade) shows the amortization shrinking as the repair itself
// grows. TestPreparedRepairAllocs pins the small prepared leg's
// allocations.
func BenchmarkPreparedRepair(b *testing.B) {
	bench := func(db *deltarepair.Database, src string) func(*testing.B) {
		return func(b *testing.B) {
			b.Run("unprepared", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, err := deltarepair.ParseProgram(src, db.Schema)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := deltarepair.Repair(db, p, deltarepair.Stage); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("prepared", func(b *testing.B) {
				p, err := deltarepair.ParseProgram(src, db.Schema)
				if err != nil {
					b.Fatal(err)
				}
				pp, err := deltarepair.Prepare(p, db.Schema)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := pp.Repair(db, deltarepair.Stage, deltarepair.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("small", bench(programs.RunningExampleDB(), programs.RunningExampleSource))
	ds := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	src, err := programs.MASSource(10, ds)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mas", bench(ds.DB, src))
}

// BenchmarkForkVsClone contrasts minting an executor working copy by deep
// clone (the pre-CoW behaviour, still available as Database.Clone) with
// forking a frozen snapshot. The clone leg is O(database); the fork leg is
// O(relations), independent of base size — the fork10x leg repeats the
// fork on a 10x larger base and should land within noise of the small one.
func BenchmarkForkVsClone(b *testing.B) {
	ds := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ds.DB.Clone().TotalTuples() == 0 {
				b.Fatal("empty clone")
			}
		}
	})
	snap := ds.DB.Freeze()
	b.Run("fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if snap.Fork().TotalTuples() == 0 {
				b.Fatal("empty fork")
			}
		}
	})
	big := mas.Generate(mas.Config{Scale: 0.2, Seed: 1})
	snapBig := big.DB.Freeze()
	b.Run("fork10x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if snapBig.Fork().TotalTuples() == 0 {
				b.Fatal("empty fork")
			}
		}
	})
}

// stepSearchCloneBaseline replays the pre-CoW RunStepExhaustive inner
// loop: a full deep clone per visited state, with lazily rebuilt indexes
// in every clone. It exists purely as the benchmark baseline recording the
// before/after of the fork rework; the algorithm matches step.go exactly.
func stepSearchCloneBaseline(db *deltarepair.Database, p *deltarepair.Program, maxStates int) (int, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return 0, err
	}
	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)
	sig := func(tuples []*deltarepair.Tuple) uint64 {
		h := uint64(14695981039346656037)
		for _, t := range tuples {
			h ^= uint64(t.TID)
			h *= 1099511628211
		}
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return h
	}
	type state struct{ tuples []*deltarepair.Tuple }
	visited := map[uint64]bool{sig(nil): true}
	frontier := []state{{}}
	for len(frontier) > 0 {
		var next []state
		for _, st := range frontier {
			work := db.Clone()
			for _, t := range st.tuples {
				work.DeleteTupleToDelta(t)
			}
			headSet := make(map[engine.TupleID]bool)
			var heads []*deltarepair.Tuple
			for _, pr := range prep.Rules {
				err := pr.EvalOperational(work, ctx, func(a *datalog.Assignment) bool {
					h := a.Head()
					if !headSet[h.TID] {
						headSet[h.TID] = true
						heads = append(heads, h)
					}
					return true
				})
				if err != nil {
					return 0, err
				}
			}
			if len(heads) == 0 {
				return len(st.tuples), nil
			}
			for _, h := range heads {
				tuples := make([]*deltarepair.Tuple, 0, len(st.tuples)+1)
				tuples = append(tuples, st.tuples...)
				tuples = append(tuples, h)
				slices.SortFunc(tuples, func(a, b *deltarepair.Tuple) int {
					return cmp.Compare(a.TID, b.TID)
				})
				sk := sig(tuples)
				if visited[sk] {
					continue
				}
				if len(visited) >= maxStates {
					return 0, fmt.Errorf("exceeded %d states", maxStates)
				}
				visited[sk] = true
				next = append(next, state{tuples: tuples})
			}
		}
		frontier = next
	}
	return 0, fmt.Errorf("search exhausted")
}

// stepSearchWorkload is BenchmarkStepSearch's shape: bigRows rows of an
// unrelated Big relation around 30 Small rows, six of them violating.
func stepSearchWorkload(tb testing.TB, bigRows int) (*deltarepair.Database, *deltarepair.Program) {
	tb.Helper()
	schema, err := deltarepair.ParseSchema(`Big(a, b)
	                                        Small(x, tag)`)
	if err != nil {
		tb.Fatal(err)
	}
	db := deltarepair.NewDatabase(schema)
	for i := 0; i < bigRows; i++ {
		db.MustInsert("Big", deltarepair.Int(i), deltarepair.Int(i%97))
	}
	for i := 0; i < 30; i++ {
		tag := "ok"
		if i < 6 {
			tag = "bad"
		}
		db.MustInsert("Small", deltarepair.Int(i), deltarepair.Str(tag))
	}
	p, err := deltarepair.ParseProgram(
		`Delta_Small(x, t) :- Small(x, t), t = 'bad'.`, schema)
	if err != nil {
		tb.Fatal(err)
	}
	return db, p
}

// BenchmarkStepSearch measures the exhaustive step-semantics search
// (Def. 3.5 state expansion) on the workload the CoW rework targets: a
// small violating core inside a large, mostly shared base (the shape a
// debugger sees when validating one suspect cascade over production
// data). The search expands 2^6 deletion states; the fork leg is the
// production RunStepExhaustive, which freezes the input once and forks
// the shared base per visited state in O(deletions so far), while the
// clone leg is the pre-CoW baseline deep-cloning the whole base at every
// state. TestStepSearchAllocsFlat pins the fork leg's allocations as
// independent of the base size.
func BenchmarkStepSearch(b *testing.B) {
	db, p := stepSearchWorkload(b, 5000)
	b.Run("fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, err := core.RunStepExhaustive(db, p, core.StepExhaustiveOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Size() != 6 {
				b.Fatalf("size = %d", res.Size())
			}
		}
	})
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			size, err := stepSearchCloneBaseline(db, p, core.DefaultMaxStepStates)
			if err != nil {
				b.Fatal(err)
			}
			if size != 6 {
				b.Fatalf("size = %d", size)
			}
		}
	})
}

// BenchmarkMinOnesSolver measures the Min-Ones search on a layered
// vertex-cover-style instance (the shape Algorithm 1 produces for DC
// programs).
func BenchmarkMinOnesSolver(b *testing.B) {
	build := func() *sat.Formula {
		const stars, leaves = 120, 5
		f := sat.NewFormula(stars * (leaves + 1))
		v := 1
		for s := 0; s < stars; s++ {
			hub := v
			v++
			for l := 0; l < leaves; l++ {
				f.AddClause(hub, v)
				v++
			}
		}
		return f
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sat.MinOnes(build(), sat.Options{})
		if !res.Satisfiable || res.Cost != 120 {
			b.Fatalf("cost = %d", res.Cost)
		}
	}
}

// BenchmarkTPCHGeneration measures dataset generation throughput.
func BenchmarkTPCHGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := tpch.Generate(tpch.Config{Scale: 0.02, Seed: int64(i)})
		if ds.Total() == 0 {
			b.Fatal("empty dataset")
		}
	}
}
