// Command experiments regenerates the paper's tables and figures:
//
//	experiments -exp all                 # everything (default)
//	experiments -exp table3              # containment flags (Table 3)
//	experiments -exp fig6                # result sizes (Figures 6a/6b/6c)
//	experiments -exp fig7                # MAS runtimes (Figure 7)
//	experiments -exp fig8                # Algorithm 1/2 runtime breakdown (Figure 8)
//	experiments -exp fig9                # TPC-H sizes and runtimes (Figures 9a/9b)
//	experiments -exp table4 | table5     # HoloClean comparison tables
//	experiments -exp fig10               # HoloClean runtime sweeps (Figures 10a/10b)
//	experiments -exp triggers            # PostgreSQL/MySQL trigger comparison
//	experiments -exp ablations           # design-choice ablations
//
// Scales default to laptop-friendly fractions of the paper's datasets while
// preserving every reported shape; raise -mas-scale / -tpch-scale / -rows
// toward 1.0 / 5000 to approach the paper's sizes (runtimes then grow;
// the shapes do not change).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment to run (all, table3, fig6, fig7, fig8, fig9, table4, table5, fig10, triggers, ablations)")
	masScale := flag.Float64("mas-scale", 0.05, "MAS dataset scale (1.0 ≈ 124K tuples)")
	tpchScale := flag.Float64("tpch-scale", 0.02, "TPC-H dataset scale (1.0 ≈ 376K tuples)")
	rows := flag.Int("rows", 5000, "Author-table rows for the HoloClean comparison")
	seed := flag.Int64("seed", 1, "dataset generation seed")
	indNodes := flag.Int64("ind-max-nodes", 0, "Min-Ones solver node budget (0 = default)")
	flag.Parse()

	cfg := experiments.Config{
		MASScale:    *masScale,
		TPCHScale:   *tpchScale,
		Rows:        *rows,
		Seed:        *seed,
		IndMaxNodes: *indNodes,
	}
	out := os.Stdout

	want := func(names ...string) bool {
		if *exp == "all" {
			return true
		}
		for _, n := range names {
			if *exp == n {
				return true
			}
		}
		return false
	}

	var masRuns []*experiments.ProgramRun
	if want("table3", "fig6", "fig7", "fig8") {
		fmt.Fprintf(out, "== Running MAS programs 1-20 (scale %.3f) ==\n", *masScale)
		runs, ds, err := experiments.RunMAS(cfg, nil)
		if err != nil {
			return err
		}
		masRuns = runs
		fmt.Fprintf(out, "MAS dataset: %d tuples (hub org %d authors, hub author %d writes)\n\n",
			ds.Total(), ds.HubOrgAuthors, ds.HubAuthorWrites)
	}
	var tpchRuns []*experiments.ProgramRun
	if want("table3", "fig9") {
		fmt.Fprintf(out, "== Running TPC-H programs T-1..T-6 (scale %.3f) ==\n", *tpchScale)
		runs, ds, err := experiments.RunTPCH(cfg, nil)
		if err != nil {
			return err
		}
		tpchRuns = runs
		fmt.Fprintf(out, "TPC-H dataset: %d tuples\n\n", ds.Total())
	}

	if want("table3") {
		fmt.Fprintln(out, "-- Table 3: containment of results --")
		experiments.WriteTable3(out, experiments.Table3(append(append([]*experiments.ProgramRun(nil), masRuns...), tpchRuns...)))
		fmt.Fprintln(out)
	}
	if want("fig6") {
		group := func(lo, hi int) []*experiments.ProgramRun {
			var g []*experiments.ProgramRun
			for _, r := range masRuns {
				if r.Number >= lo && r.Number <= hi {
					g = append(g, r)
				}
			}
			return g
		}
		experiments.WriteSizes(out, "-- Figure 6a: result sizes, programs 1-10 --", experiments.Sizes(group(1, 10)))
		fmt.Fprintln(out)
		experiments.WriteSizes(out, "-- Figure 6b: result sizes, programs 11-15 --", experiments.Sizes(group(11, 15)))
		fmt.Fprintln(out)
		experiments.WriteSizes(out, "-- Figure 6c: result sizes, programs 16-20 --", experiments.Sizes(group(16, 20)))
		fmt.Fprintln(out)
	}
	if want("fig7") {
		experiments.WriteTimes(out, "-- Figure 7: execution times, programs 1-20 --", experiments.Times(masRuns))
		fmt.Fprintln(out)
	}
	if want("fig8") {
		fmt.Fprintln(out, "-- Figure 8: runtime breakdown of Algorithms 1 and 2 --")
		rows := experiments.Breakdown(masRuns, "programs 1-15", func(r *experiments.ProgramRun) bool { return r.Number <= 15 })
		rows = append(rows, experiments.Breakdown(masRuns, "programs 16-20", func(r *experiments.ProgramRun) bool { return r.Number >= 16 })...)
		experiments.WriteBreakdown(out, rows)
		fmt.Fprintln(out)
	}
	if want("fig9") {
		experiments.WriteSizes(out, "-- Figure 9a: TPC-H result sizes --", experiments.Sizes(tpchRuns))
		fmt.Fprintln(out)
		experiments.WriteTimes(out, "-- Figure 9b: TPC-H execution times --", experiments.Times(tpchRuns))
		fmt.Fprintln(out)
	}
	if want("table4", "table5") {
		fmt.Fprintf(out, "== HoloClean comparison (%d rows) ==\n", *rows)
		t4, t5, err := experiments.Tables4And5(cfg)
		if err != nil {
			return err
		}
		if want("table4") {
			fmt.Fprintln(out, "-- Table 4: over-deletions (+) vs HoloClean repair shortfall (−) --")
			experiments.WriteTable4(out, t4)
			fmt.Fprintln(out)
		}
		if want("table5") {
			fmt.Fprintln(out, "-- Table 5: violating tuples after/before repair --")
			experiments.WriteTable5(out, t5)
			fmt.Fprintln(out)
		}
	}
	if want("fig10") {
		fmt.Fprintln(out, "-- Figure 10a: runtime vs #errors --")
		a, err := experiments.Fig10Errors(cfg)
		if err != nil {
			return err
		}
		experiments.WriteFig10(out, "Errors", a)
		fmt.Fprintln(out)
		fmt.Fprintln(out, "-- Figure 10b: runtime vs #rows --")
		b, err := experiments.Fig10Rows(cfg, nil)
		if err != nil {
			return err
		}
		experiments.WriteFig10(out, "Rows", b)
		fmt.Fprintln(out)
	}
	if want("triggers") {
		fmt.Fprintln(out, "-- Trigger comparison (programs 3, 4, 5, 8, 20) --")
		rows, err := experiments.TriggerComparison(cfg)
		if err != nil {
			return err
		}
		experiments.WriteTriggerComparison(out, rows)
		fmt.Fprintln(out)
	}
	if want("ablations") {
		fmt.Fprintln(out, "-- Ablations --")
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		experiments.WriteAblations(out, rows)
		fmt.Fprintln(out)
	}
	return nil
}
