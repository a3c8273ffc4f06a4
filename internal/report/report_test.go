package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/programs"
)

func TestGenerateRunningExampleReport(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Generate(&buf, db, p, Options{Title: "Running example"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Running example",
		"## Database",
		"| Grant | 2 | 0 |",
		"## Program",
		"Delta_Grant(g, n)",
		"**unstable**",
		"## Repairs",
		"| independent | 3 |",
		"| step | 5 |",
		"| stage | 7 |",
		"| end | 8 |",
		"### Deletions by relation",
		"### Relationships (Table 3 form)",
		"- Step = Stage: **false**",
		"### Why were tuples deleted?",
		"layer 1",
		"## Recommendation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestGenerateStableDatabaseShortReport(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := datalog.ParseAndValidate(
		"Delta_Grant(g, n) :- Grant(g, n), n = 'NIH'.", programs.RunningExampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Generate(&buf, db, p, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "**stable**") {
		t.Fatalf("stable database should short-circuit:\n%s", out)
	}
	if strings.Contains(out, "## Repairs") {
		t.Fatal("stable database should not run repairs")
	}
}

func TestGenerateCascadeRecommendsEnd(t *testing.T) {
	// A pure cascade: all semantics agree; the report must recommend
	// end/stage.
	db := programs.RunningExampleDB()
	p, err := datalog.ParseAndValidate(`
(0) Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
(1) Delta_AuthGrant(a, g) :- AuthGrant(a, g), Delta_Grant(g, n).
`, programs.RunningExampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Generate(&buf, db, p, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "use **end** or **stage**") {
		t.Fatalf("cascade should recommend end/stage:\n%s", buf.String())
	}
}

func TestGenerateMaxExplained(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Generate(&buf, db, p, Options{MaxExplained: 1}); err != nil {
		t.Fatal(err)
	}
	// Exactly one explanation block in the sample section.
	section := buf.String()[strings.Index(buf.String(), "### Why"):]
	if got := strings.Count(section, "```\n"); got != 2 { // open + close
		t.Fatalf("explanation fences = %d, want 2:\n%s", got, section)
	}
}
