package programs_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/programs"
)

// Golden-file regression tests for the paper's running example (Figures
// 1-2): the expected stabilizing sets of all four semantics plus the
// Table 3 containment flags are committed under testdata/golden and
// compared byte-for-byte, so any semantics regression shows up as a
// reviewable diff rather than a flaky assertion.
//
// Regenerate after an intentional semantics change with:
//
//	WRITE_GOLDEN=1 go test ./internal/programs -run Golden
//
// and review the diff against the paper's Figure 2 discussion before
// committing.

const goldenPath = "testdata/golden/running_example.golden"

// renderGolden produces the canonical text: one block per semantics in
// the paper's presentation order (deterministic Seq-ordered keys), then
// the containment flags.
func renderGolden(results map[core.Semantics]*core.Result) string {
	var b strings.Builder
	b.WriteString("# Running example (Figures 1-2): stabilizing sets per semantics.\n")
	b.WriteString("# Regenerate with WRITE_GOLDEN=1 go test ./internal/programs -run Golden\n")
	for _, sem := range core.AllSemantics {
		res := results[sem]
		fmt.Fprintf(&b, "\n[%s] size=%d optimal=%v\n", sem, res.Size(), res.Optimal)
		for _, key := range res.Keys() {
			fmt.Fprintf(&b, "%s\n", key)
		}
	}
	cont := core.CheckContainment(results)
	b.WriteString("\n[containment] # Table 3 row for the running example\n")
	fmt.Fprintf(&b, "step_eq_stage=%v\n", cont.StepEqStage)
	fmt.Fprintf(&b, "ind_in_stage=%v\n", cont.IndInStage)
	fmt.Fprintf(&b, "ind_in_step=%v\n", cont.IndInStep)
	fmt.Fprintf(&b, "stage_in_end=%v\n", cont.StageInEnd)
	fmt.Fprintf(&b, "step_in_end=%v\n", cont.StepInEnd)
	fmt.Fprintf(&b, "ind_le_step=%v\n", cont.IndLeStep)
	fmt.Fprintf(&b, "ind_le_stage=%v\n", cont.IndLeStage)
	return b.String()
}

func TestRunningExampleGolden(t *testing.T) {
	db := programs.RunningExampleDB()
	// Validate against db's own schema object so prepared execution
	// accepts it (RunningExampleProgram builds a fresh schema).
	prog, err := datalog.ParseAndValidate(programs.RunningExampleSource, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[core.Semantics]*core.Result, len(core.AllSemantics))
	for _, sem := range core.AllSemantics {
		res, _, err := core.RunWith(db, prog, sem, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		results[sem] = res
	}
	got := renderGolden(results)

	if os.Getenv("WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("running example results drifted from %s.\ngot:\n%s\nwant:\n%s\nIf the change is intentional, regenerate with WRITE_GOLDEN=1 and review the diff.",
			goldenPath, got, want)
	}
}

// TestRunningExampleGoldenPaperFacts cross-checks the committed golden
// content against facts the paper states directly, so the golden file
// cannot silently drift to a wrong-but-stable state: rule (0) always
// deletes the ERC grant, end semantics deletes the most, and the repair
// sizes respect Prop. 3.20.
func TestRunningExampleGoldenPaperFacts(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	content := string(data)
	for _, want := range []string{
		`Grant(i2,"ERC")`, // rule (0): the ERC grant dies under every semantics
		"[independent]",   // all four blocks present
		"[step]", "[stage]", "[end]",
		"stage_in_end=true",
		"step_in_end=true",
		"ind_le_step=true",
		"ind_le_stage=true",
	} {
		if !strings.Contains(content, want) {
			t.Errorf("golden file missing %q", want)
		}
	}
}
