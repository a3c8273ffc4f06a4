// Package report renders a full repair analysis as Markdown: database
// statistics, violation witnesses, all four semantics' repairs with
// per-relation breakdowns and timings, the containment relationships
// (Table 3 form), and sample deletion explanations. It is the "what would
// each semantics do to my database" document a database administrator
// would want before choosing a repair policy — the decision the paper
// argues admins must make (§1).
package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
)

// Options tunes report generation.
type Options struct {
	// Title heads the report; empty means a default.
	Title string
	// MaxExplained bounds the number of per-semantics example explanations
	// (0 means 3).
	MaxExplained int
	// Independent forwards Algorithm 1 options.
	Independent core.IndependentOptions
}

// Generate runs all four semantics and writes the Markdown report. The
// input database is not modified.
func Generate(w io.Writer, db *engine.Database, p *datalog.Program, opts Options) error {
	title := opts.Title
	if title == "" {
		title = "Delta-rule repair report"
	}
	maxExplained := opts.MaxExplained
	if maxExplained <= 0 {
		maxExplained = 3
	}

	fmt.Fprintf(w, "# %s\n\n", title)

	// Database overview.
	fmt.Fprintf(w, "## Database\n\n")
	fmt.Fprintf(w, "| Relation | Live tuples | Already deleted |\n|---|---|---|\n")
	for _, st := range db.Stats() {
		fmt.Fprintf(w, "| %s | %d | %d |\n", st.Name, st.Live, st.Deleted)
	}
	fmt.Fprintf(w, "\nTotal: %d live tuples.\n\n", db.TotalTuples())

	// Program and stability.
	fmt.Fprintf(w, "## Program\n\n```prolog\n%s\n```\n\n", p.String())
	stable, err := core.CheckStable(db, p, core.Options{})
	if err != nil {
		return err
	}
	if stable {
		fmt.Fprintf(w, "The database is **stable**: no rule has a satisfying assignment, no repair is needed.\n")
		return nil
	}
	witness, err := core.FirstViolation(db, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "The database is **unstable**. First violation witness:\n\n")
	fmt.Fprintf(w, "    %s\n\n", witness)

	// Run everything.
	results, err := core.RunAll(db, p, core.Options{Independent: opts.Independent})
	if err != nil {
		return err
	}

	// Side-by-side summary.
	fmt.Fprintf(w, "## Repairs\n\n")
	fmt.Fprintf(w, "| Semantics | Deleted | Optimal proven | Rounds/Layers | Time |\n|---|---|---|---|---|\n")
	for _, sem := range core.AllSemantics {
		r := results[sem]
		fmt.Fprintf(w, "| %s | %d | %v | %d | %v |\n",
			sem, r.Size(), r.Optimal, r.Rounds, r.Timing.Total().Round(10e3))
	}
	fmt.Fprintln(w)

	// Per-relation breakdown.
	fmt.Fprintf(w, "### Deletions by relation\n\n")
	relSet := make(map[string]bool)
	for _, sem := range core.AllSemantics {
		for rel := range results[sem].ByRelation() {
			relSet[rel] = true
		}
	}
	rels := make([]string, 0, len(relSet))
	for rel := range relSet {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	fmt.Fprintf(w, "| Relation | Ind | Step | Stage | End |\n|---|---|---|---|---|\n")
	for _, rel := range rels {
		fmt.Fprintf(w, "| %s |", rel)
		for _, sem := range core.AllSemantics {
			fmt.Fprintf(w, " %d |", results[sem].ByRelation()[rel])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	// Containment flags.
	c := core.CheckContainment(results)
	fmt.Fprintf(w, "### Relationships (Table 3 form)\n\n")
	fmt.Fprintf(w, "- Step = Stage: **%v**\n", c.StepEqStage)
	fmt.Fprintf(w, "- Ind ⊆ Stage: **%v**\n", c.IndInStage)
	fmt.Fprintf(w, "- Ind ⊆ Step: **%v**\n", c.IndInStep)
	fmt.Fprintf(w, "- Stage ⊆ End: %v, Step ⊆ End: %v (always hold)\n\n", c.StageInEnd, c.StepInEnd)

	// Sample explanations from the step repair (always derivable).
	ex, err := core.NewExplainer(db, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "### Why were tuples deleted? (sample from the step repair)\n\n")
	shown := 0
	for _, entry := range ex.ExplainResult(results[core.SemStep]) {
		if shown >= maxExplained {
			break
		}
		if entry.Explanation == nil {
			continue
		}
		fmt.Fprintf(w, "```\n%s```\n\n", entry.Explanation)
		shown++
	}

	// Recommendation heuristic, echoing the paper's guidance (§6).
	fmt.Fprintf(w, "## Recommendation\n\n")
	switch {
	case results[core.SemEnd].SameSet(results[core.SemIndependent]):
		fmt.Fprintf(w, "All semantics agree (pure cascade): use **end** or **stage** — they are the cheapest to compute and provably unique.\n")
	case c.IndInStep && results[core.SemIndependent].Size() < results[core.SemStep].Size():
		fmt.Fprintf(w, "**independent** finds a strictly smaller repair (%d vs %d) that the operational semantics can also realize in part; use it if minimum data loss is the goal and the solver cost is acceptable.\n",
			results[core.SemIndependent].Size(), results[core.SemStep].Size())
	case results[core.SemIndependent].Size() < results[core.SemStep].Size():
		fmt.Fprintf(w, "**independent** deletes the least (%d vs %d) but chooses tuples no trigger-like execution would touch; prefer it for integrity-constraint cleanup, and **step** when deletions must follow rule firings.\n",
			results[core.SemIndependent].Size(), results[core.SemStep].Size())
	default:
		fmt.Fprintf(w, "**step** matches the minimum repair while remaining realizable by rule firings; it is the best default here.\n")
	}
	return nil
}
