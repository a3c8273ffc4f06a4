// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Table 3 (containment of results), Figures 6-8 (result
// sizes, runtimes, and runtime breakdowns over the MAS programs), Figure 9
// (TPC-H sizes and runtimes), Tables 4-5 and Figure 10 (the HoloClean
// comparison), and the trigger comparison — plus three design-choice
// ablations (Ablations). Each experiment produces typed rows and a
// paper-shaped text rendering.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// Config selects workload sizes and budgets. The zero value gives the
// defaults used throughout the repository's recorded outputs: scaled-down
// datasets that preserve every relative shape the paper reports (sizes,
// containments and phase orderings, not absolute runtimes).
type Config struct {
	// MASScale scales the MAS dataset; default 0.05 (~6.2K tuples).
	MASScale float64
	// TPCHScale scales the TPC-H fragment; default 0.02 (~7.5K tuples).
	TPCHScale float64
	// Rows is the Author-table size for the HoloClean comparison;
	// default 5000 (the paper's setting).
	Rows int
	// Errors is the injected error count for Figure 10b; default 700.
	Errors int
	// Seed drives all dataset generation; default 1.
	Seed int64
	// IndMaxNodes overrides the Min-Ones solver budget (0 = default).
	IndMaxNodes int64
	// ErrorLevels are the injected error counts of Tables 4-5 and Figure
	// 10a; nil means the paper's ladder (100..1000).
	ErrorLevels []int
	// HoloConfidence is the cell-repair confidence threshold used in the
	// comparison; 0 means 0.8, tuned to the ≈5-member organization groups
	// of the workload (a 1-typo group votes 4/5 = 0.8).
	HoloConfidence float64
}

func (c Config) withDefaults() Config {
	if c.MASScale <= 0 {
		c.MASScale = 0.05
	}
	if c.TPCHScale <= 0 {
		c.TPCHScale = 0.02
	}
	if c.Rows <= 0 {
		c.Rows = 5000
	}
	if c.Errors <= 0 {
		c.Errors = 700
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ErrorLevels == nil {
		c.ErrorLevels = []int{100, 200, 300, 500, 700, 1000}
	}
	if c.HoloConfidence <= 0 {
		c.HoloConfidence = 0.8
	}
	return c
}

// check renders a boolean as the paper's ✓/✗ marks.
func check(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// newTable builds a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
