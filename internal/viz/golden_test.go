package viz

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/programs"
)

// Golden-file tests for the running example's provenance DOT and its
// explanations. The DOT is compared as a sorted set of lines: the order of
// edge lines follows the order clause literals are decoded in and carries
// no meaning. Every end deletion's Explanation.String() and
// ExplanationDOT are compared byte for byte.
//
// Regenerate after an intentional change with:
//
//	WRITE_GOLDEN=1 go test ./internal/viz -run Golden
//
// and review the diff.

// renderGolden renders the provenance DOT's lines, sorted, and then every
// end-semantics deletion's explanation, in the result's order.
func renderGolden(t *testing.T, db *engine.Database, p *datalog.Program) string {
	t.Helper()
	ex, err := core.NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# Regenerate with WRITE_GOLDEN=1 go test ./internal/viz -run Golden\n")
	b.WriteString("\n[provenance DOT, lines sorted]\n")
	lines := strings.Split(strings.TrimSuffix(ProvenanceDOT(ex.Graph, db.DisplayKey), "\n"), "\n")
	slices.Sort(lines)
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	res, _, err := core.RunWith(db, p, core.SemEnd, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range ex.ExplainResult(res) {
		fmt.Fprintf(&b, "\n[explanation %s]\n", entry.Tuple.Key())
		if entry.Explanation == nil {
			b.WriteString("none\n")
			continue
		}
		b.WriteString(entry.Explanation.String())
		b.WriteString(ExplanationDOT(entry.Explanation))
	}
	return b.String()
}

// checkGolden compares got with the named file under testdata, or writes
// it there when WRITE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\ngot:\n%s\nwant:\n%s\nIf the change is intentional, regenerate with WRITE_GOLDEN=1 and review the diff.",
			path, got, want)
	}
}

func TestRunningExampleGolden(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := datalog.ParseAndValidate(programs.RunningExampleSource, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "running_example.golden", renderGolden(t, db, p))
}

// TestRunningExamplePreDeletedGolden is the same rendering after a user
// deletes Author(4,"Marge") before the repair (§3.6): the explanations of
// the deletions it enables end at it, deleted before the repair.
func TestRunningExamplePreDeletedGolden(t *testing.T) {
	db := programs.RunningExampleDB().Fork()
	p, err := datalog.ParseAndValidate(programs.RunningExampleSource, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !db.DeleteToDelta(engine.ContentKey("Author", []engine.Value{engine.Int(4), engine.Str("Marge")})) {
		t.Fatal("Author(4,Marge) should be live")
	}
	checkGolden(t, "running_example_pre_deleted.golden", renderGolden(t, db, p))
}
