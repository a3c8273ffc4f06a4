package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mas"
	"repro/internal/programs"
)

// AblationRow compares a design choice on one program: the full algorithm
// vs the ablated variant.
type AblationRow struct {
	Ablation string
	Program  string
	FullSize int
	AblSize  int
	FullTime time.Duration
	AblTime  time.Duration
}

// Ablations runs three design-choice ablations, each switching off one
// choice the executors make:
//
//  1. Algorithm 2 without benefit ordering (arbitrary in-layer order) —
//     shows the benefit heuristic's effect on repair size.
//  2. Algorithm 1 with a greedy-only solver (node budget 1) — size vs
//     runtime tradeoff of the branch-and-bound search.
//  3. Naive vs seminaive end-semantics evaluation — runtime only, results
//     are identical by construction.
func Ablations(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	ds := mas.Generate(mas.Config{Scale: cfg.MASScale, Seed: cfg.Seed})
	var out []AblationRow

	// 1. Benefit ordering (programs where greedy choice matters).
	for _, n := range []int{3, 4, 8} {
		p, err := programs.MAS(n, ds)
		if err != nil {
			return nil, err
		}
		full, _, err := core.RunWith(ds.DB, p, core.SemStep, core.Options{})
		if err != nil {
			return nil, err
		}
		abl, _, err := core.RunWith(ds.DB, p, core.SemStep, core.Options{Step: core.StepGreedyOptions{IgnoreBenefits: true}})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Ablation: "step: no benefit ordering",
			Program:  fmt.Sprint(n),
			FullSize: full.Size(), AblSize: abl.Size(),
			FullTime: full.Timing.Total(), AblTime: abl.Timing.Total(),
		})
	}

	// 2. Solver search (DC-style programs where min-ones is non-trivial).
	for _, n := range []int{13, 14} {
		p, err := programs.MAS(n, ds)
		if err != nil {
			return nil, err
		}
		full, _, err := core.RunWith(ds.DB, p, core.SemIndependent, core.Options{Independent: core.IndependentOptions{MaxNodes: cfg.IndMaxNodes}})
		if err != nil {
			return nil, err
		}
		abl, _, err := core.RunWith(ds.DB, p, core.SemIndependent, core.Options{Independent: core.IndependentOptions{MaxNodes: 1}})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Ablation: "independent: greedy-only solver",
			Program:  fmt.Sprint(n),
			FullSize: full.Size(), AblSize: abl.Size(),
			FullTime: full.Timing.Total(), AblTime: abl.Timing.Total(),
		})
	}

	// 3. Naive vs seminaive evaluation (deep cascade chains).
	for _, n := range []int{10, 20} {
		p, err := programs.MAS(n, ds)
		if err != nil {
			return nil, err
		}
		full, _, err := core.RunWith(ds.DB, p, core.SemEnd, core.Options{})
		if err != nil {
			return nil, err
		}
		abl, _, err := core.RunEndNaive(ds.DB, p)
		if err != nil {
			return nil, err
		}
		if !full.SameSet(abl) {
			return nil, fmt.Errorf("ablation: naive and seminaive end results differ on program %d", n)
		}
		out = append(out, AblationRow{
			Ablation: "end: naive evaluation",
			Program:  fmt.Sprint(n),
			FullSize: full.Size(), AblSize: abl.Size(),
			FullTime: full.Timing.Total(), AblTime: abl.Timing.Total(),
		})
	}
	return out, nil
}

// WriteAblations renders the ablation rows.
func WriteAblations(w io.Writer, rows []AblationRow) {
	tw := newTable(w)
	fmt.Fprintln(tw, "Ablation\tProgram\tFull size\tAblated size\tFull ms\tAblated ms")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\n",
			r.Ablation, r.Program, r.FullSize, r.AblSize, ms(r.FullTime), ms(r.AblTime))
	}
	tw.Flush()
}
