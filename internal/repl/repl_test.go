package repl

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/programs"
)

func newSession(t *testing.T) (*Session, *bytes.Buffer) {
	t.Helper()
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return New(db, p, &out), &out
}

// exec runs a command and returns the output it produced.
func exec(t *testing.T, s *Session, out *bytes.Buffer, line string) string {
	t.Helper()
	out.Reset()
	quit, err := s.Execute(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if quit {
		t.Fatalf("%q unexpectedly quit", line)
	}
	return out.String()
}

func TestSessionStatusAndViolations(t *testing.T) {
	s, out := newSession(t)
	got := exec(t, s, out, "status")
	if !strings.Contains(got, "13 live tuples") || !strings.Contains(got, "stable: false") {
		t.Fatalf("status: %q", got)
	}
	got = exec(t, s, out, "violations")
	// Initially only rule (0) fires: exactly one deletable tuple, g2.
	if !strings.Contains(got, "1 deletable tuples") || !strings.Contains(got, "Grant(2, 'ERC')") {
		t.Fatalf("violations: %q", got)
	}
}

func TestSessionFireCascades(t *testing.T) {
	s, out := newSession(t)
	exec(t, s, out, "violations")
	got := exec(t, s, out, "fire 1")
	if !strings.Contains(got, "deleted g2") {
		t.Fatalf("fire: %q", got)
	}
	// After g2, rule (1) exposes the two authors.
	got = exec(t, s, out, "violations")
	if !strings.Contains(got, "2 deletable tuples") {
		t.Fatalf("violations after fire: %q", got)
	}
	exec(t, s, out, "fire 1") // a2
	exec(t, s, out, "violations")
	exec(t, s, out, "fire 1")
	if len(s.Deleted()) != 3 {
		t.Fatalf("deleted = %d, want 3", len(s.Deleted()))
	}
}

func TestSessionUndo(t *testing.T) {
	s, out := newSession(t)
	exec(t, s, out, "violations")
	exec(t, s, out, "fire 1")
	if len(s.Deleted()) != 1 {
		t.Fatal("fire did not record")
	}
	got := exec(t, s, out, "undo")
	if !strings.Contains(got, "undid deletion") || len(s.Deleted()) != 0 {
		t.Fatalf("undo: %q", got)
	}
	// The database is back to its initial state: same single candidate.
	got = exec(t, s, out, "violations")
	if !strings.Contains(got, "1 deletable tuples") {
		t.Fatalf("violations after undo: %q", got)
	}
	if got := exec(t, s, out, "undo"); !strings.Contains(got, "nothing to undo") {
		t.Fatalf("empty undo: %q", got)
	}
}

func TestSessionAutoFinishes(t *testing.T) {
	s, out := newSession(t)
	exec(t, s, out, "violations")
	exec(t, s, out, "fire 1") // g2 manually
	got := exec(t, s, out, "auto step")
	if !strings.Contains(got, "step semantics deleted") {
		t.Fatalf("auto: %q", got)
	}
	got = exec(t, s, out, "status")
	if !strings.Contains(got, "stable: true") {
		t.Fatalf("status after auto: %q", got)
	}
	// Manual g2 + step's remaining 4 = 5 total (Example 5.2).
	if len(s.Deleted()) != 5 {
		t.Fatalf("total deletions = %d, want 5", len(s.Deleted()))
	}
}

func TestSessionShowAndExplain(t *testing.T) {
	s, out := newSession(t)
	got := exec(t, s, out, "show Author")
	if !strings.Contains(got, "Author: 3 live tuples") || !strings.Contains(got, "Maggie") {
		t.Fatalf("show: %q", got)
	}
	got = exec(t, s, out, "show Nope")
	if !strings.Contains(got, "unknown relation") {
		t.Fatalf("show unknown: %q", got)
	}
	exec(t, s, out, "violations")
	got = exec(t, s, out, "explain 1")
	if !strings.Contains(got, "layer 1") {
		t.Fatalf("explain: %q", got)
	}
}

func TestSessionBadInputIsForgiving(t *testing.T) {
	s, out := newSession(t)
	for _, line := range []string{
		"", "   ", "frobnicate", "fire", "fire 99", "fire x",
		"auto", "auto nope", "show", "explain", "explain 7",
	} {
		out.Reset()
		quit, err := s.Execute(line)
		if err != nil {
			t.Fatalf("%q returned error: %v", line, err)
		}
		if quit {
			t.Fatalf("%q quit the session", line)
		}
	}
	if got := exec(t, s, out, "help"); !strings.Contains(got, "fire <k>") {
		t.Fatalf("help: %q", got)
	}
}

func TestSessionQuitAndRunLoop(t *testing.T) {
	s, out := newSession(t)
	quit, err := s.Execute("quit")
	if err != nil || !quit {
		t.Fatal("quit should end the session")
	}
	// Full loop over a scripted stdin.
	db := programs.RunningExampleDB()
	p, _ := programs.RunningExampleProgram()
	var buf bytes.Buffer
	sess := New(db, p, &buf)
	script := "violations\nfire 1\nauto stage\nstatus\nquit\n"
	if err := sess.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stable: true") {
		t.Fatalf("scripted session output:\n%s", buf.String())
	}
	_ = out
}

// TestSessionManualEqualsStepSemantics: firing the greedy algorithm's
// choices by hand ends at the same repair as the step policy (Algorithm 2).
func TestSessionManualEqualsStepSemantics(t *testing.T) {
	db := programs.RunningExampleDB()
	p, _ := programs.RunningExampleProgram()
	want, _, err := core.RunWith(db, p, core.SemStep, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := New(db, p, &out)
	// Fire everything step semantics would, by key.
	for _, tp := range want.Deleted {
		heads, err := s.currentCandidates()
		if err != nil {
			t.Fatal(err)
		}
		s.candidates = heads
		found := false
		for i, h := range heads {
			if h.Key() == tp.Key() {
				if err := s.cmdFire([]string{strconv.Itoa(i + 1)}); err != nil {
					t.Fatal(err)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("greedy choice %s not offered by the session", tp.Key())
		}
	}
	stable, err := core.CheckStable(s.work, p, core.Options{})
	if err != nil || !stable {
		t.Fatal("manual replay of the greedy repair should stabilize")
	}
}
