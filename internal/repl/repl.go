// Package repl implements an interactive step-semantics debugger: the
// paper's step semantics (Def. 3.5) fires one nondeterministically chosen
// rule instance at a time — this session makes the user the scheduler.
// At every point the session lists the currently deletable tuples (the
// satisfying assignments' heads), lets the user fire one, undo, inspect
// relations and explanations, or hand the rest of the repair to any of the
// four automatic semantics.
//
// The interpreter is I/O-agnostic (Execute takes a command line, output
// goes to an io.Writer), so it is fully testable; cmd/repair-debug wraps
// it in a stdin loop.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
)

// Session is one interactive repair session over a working copy of the
// database. The original database is never modified.
type Session struct {
	orig *engine.Database
	work *engine.Database
	prog *datalog.Program
	out  io.Writer

	fired      []*engine.Tuple // deletions in firing order
	candidates []*engine.Tuple // last "violations" listing
	explainer  *core.Explainer // lazy; built on the original database

	prep    *datalog.Prepared // lazy; amortizes planning across commands
	prepErr error
}

// New starts a session on a copy-on-write fork of db: the original is
// frozen once and every session copy (including undo rebuilds) forks the
// shared frozen base in O(changes) instead of deep-cloning.
func New(db *engine.Database, p *datalog.Program, out io.Writer) *Session {
	return &Session{orig: db, work: db.Fork(), prog: p, out: out}
}

// prepared returns the session's prepared program, planning it on first
// use; every subsequent command (violations, fire cascades, auto, status)
// reuses the plans.
func (s *Session) prepared() (*datalog.Prepared, error) {
	if s.prep == nil && s.prepErr == nil {
		s.prep, s.prepErr = datalog.Prepare(s.prog, s.orig.Schema)
	}
	return s.prep, s.prepErr
}

// Deleted returns the tuples fired so far, in order.
func (s *Session) Deleted() []*engine.Tuple {
	return append([]*engine.Tuple(nil), s.fired...)
}

// Execute runs one command line; it reports whether the session should
// end. Unknown commands and bad arguments print a message and keep the
// session alive (user typos must not kill a repair session); internal
// failures return an error.
func (s *Session) Execute(line string) (quit bool, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return false, nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help", "?":
		s.printHelp()
	case "status":
		return false, s.cmdStatus()
	case "violations", "v":
		return false, s.cmdViolations(args)
	case "fire", "f":
		return false, s.cmdFire(args)
	case "undo":
		return false, s.cmdUndo()
	case "auto":
		return false, s.cmdAuto(args)
	case "show":
		return false, s.cmdShow(args)
	case "explain":
		return false, s.cmdExplain(args)
	case "quit", "exit", "q":
		return true, nil
	default:
		fmt.Fprintf(s.out, "unknown command %q; try help\n", cmd)
	}
	return false, nil
}

// Run drives the session as a read-eval loop until EOF or quit.
func (s *Session) Run(in io.Reader) error {
	fmt.Fprintln(s.out, "step-semantics debugger — 'violations' lists deletable tuples, 'fire N' deletes one, 'help' for more")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(s.out, "repair> ")
		if !sc.Scan() {
			fmt.Fprintln(s.out)
			return sc.Err()
		}
		quit, err := s.Execute(sc.Text())
		if err != nil {
			return err
		}
		if quit {
			return nil
		}
	}
}

func (s *Session) printHelp() {
	fmt.Fprint(s.out, `commands:
  status            database size, deletions so far, stability
  violations [n]    list up to n currently deletable tuples (default 20)
  fire <k>          delete candidate #k from the last listing (cascade-aware)
  undo              revert the most recent fire
  auto <semantics>  finish the repair automatically (independent|step|stage|end)
  show <relation>   list a relation's live tuples
  explain <k>       derivation of candidate #k (why it is deletable)
  quit              end the session
`)
}

func (s *Session) cmdStatus() error {
	prep, err := s.prepared()
	if err != nil {
		return err
	}
	stable, err := core.CheckStable(s.work, s.prog, core.Options{Prepared: prep})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%d live tuples, %d deleted this session, stable: %v\n",
		s.work.TotalTuples(), len(s.fired), stable)
	return nil
}

// currentCandidates enumerates the distinct heads deletable right now.
func (s *Session) currentCandidates() ([]*engine.Tuple, error) {
	prep, err := s.prepared()
	if err != nil {
		return nil, err
	}
	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)
	seen := make(map[engine.TupleID]bool)
	var heads []*engine.Tuple
	for _, pr := range prep.Rules {
		err := pr.EvalOperational(s.work, ctx, func(a *datalog.Assignment) bool {
			h := a.Head()
			if !seen[h.TID] {
				seen[h.TID] = true
				heads = append(heads, h)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return heads, nil
}

func (s *Session) cmdViolations(args []string) error {
	limit := 20
	if len(args) > 0 {
		if n, err := strconv.Atoi(args[0]); err == nil && n > 0 {
			limit = n
		}
	}
	heads, err := s.currentCandidates()
	if err != nil {
		return err
	}
	s.candidates = heads
	if len(heads) == 0 {
		fmt.Fprintln(s.out, "stable: no rule is satisfiable — repair complete")
		return nil
	}
	fmt.Fprintf(s.out, "%d deletable tuples:\n", len(heads))
	for i, h := range heads {
		if i >= limit {
			fmt.Fprintf(s.out, "  ... and %d more\n", len(heads)-limit)
			break
		}
		fmt.Fprintf(s.out, "  [%d] %s\n", i+1, h)
	}
	return nil
}

func (s *Session) cmdFire(args []string) error {
	if len(args) != 1 {
		fmt.Fprintln(s.out, "usage: fire <k> (run 'violations' first)")
		return nil
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 || k > len(s.candidates) {
		fmt.Fprintf(s.out, "no candidate #%s; run 'violations' and pick a listed number\n", args[0])
		return nil
	}
	h := s.candidates[k-1]
	if !s.work.Relation(h.Rel).ContainsTuple(h) {
		fmt.Fprintf(s.out, "%s is no longer live; re-run 'violations'\n", h)
		return nil
	}
	s.work.DeleteTupleToDelta(h)
	s.fired = append(s.fired, h)
	fmt.Fprintf(s.out, "deleted %s (%d so far)\n", h, len(s.fired))
	return nil
}

func (s *Session) cmdUndo() error {
	if len(s.fired) == 0 {
		fmt.Fprintln(s.out, "nothing to undo")
		return nil
	}
	// Rebuild the working copy from the original plus all but the last
	// deletion: delta relations have no "un-delete", and rebuilding keeps
	// the session state canonical. Forking the frozen original makes the
	// rebuild O(deletions so far), not O(database).
	last := s.fired[len(s.fired)-1]
	s.fired = s.fired[:len(s.fired)-1]
	s.work = s.orig.Fork()
	for _, t := range s.fired {
		s.work.DeleteTupleToDelta(t)
	}
	s.candidates = nil
	fmt.Fprintf(s.out, "undid deletion of %s\n", last)
	return nil
}

func (s *Session) cmdAuto(args []string) error {
	if len(args) != 1 {
		fmt.Fprintln(s.out, "usage: auto independent|step|stage|end")
		return nil
	}
	var sem core.Semantics
	switch args[0] {
	case "independent":
		sem = core.SemIndependent
	case "step":
		sem = core.SemStep
	case "stage":
		sem = core.SemStage
	case "end":
		sem = core.SemEnd
	default:
		fmt.Fprintf(s.out, "unknown semantics %q\n", args[0])
		return nil
	}
	prep, err := s.prepared()
	if err != nil {
		return err
	}
	res, repaired, err := core.RunWith(s.work, s.prog, sem, core.Options{Prepared: prep})
	if err != nil {
		return err
	}
	s.work = repaired
	s.fired = append(s.fired, res.Deleted...)
	s.candidates = nil
	fmt.Fprintf(s.out, "%s semantics deleted %d more tuples; session total %d\n",
		sem, res.Size(), len(s.fired))
	return nil
}

func (s *Session) cmdShow(args []string) error {
	if len(args) != 1 {
		fmt.Fprintln(s.out, "usage: show <relation>")
		return nil
	}
	rel := s.work.Relation(args[0])
	if rel == nil {
		fmt.Fprintf(s.out, "unknown relation %q (have: %s)\n",
			args[0], strings.Join(s.work.Schema.Names(), ", "))
		return nil
	}
	tuples := rel.Tuples()
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Seq < tuples[j].Seq })
	fmt.Fprintf(s.out, "%s: %d live tuples\n", args[0], len(tuples))
	for i, t := range tuples {
		if i >= 25 {
			fmt.Fprintf(s.out, "  ... and %d more\n", len(tuples)-25)
			break
		}
		fmt.Fprintf(s.out, "  %s\n", t)
	}
	return nil
}

func (s *Session) cmdExplain(args []string) error {
	if len(args) != 1 {
		fmt.Fprintln(s.out, "usage: explain <k> (a candidate number from 'violations')")
		return nil
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 1 || k > len(s.candidates) {
		fmt.Fprintf(s.out, "no candidate #%s; run 'violations' first\n", args[0])
		return nil
	}
	if s.explainer == nil {
		ex, err := core.NewExplainer(s.orig, s.prog)
		if err != nil {
			return err
		}
		s.explainer = ex
	}
	h := s.candidates[k-1]
	if e := s.explainer.ExplainTuple(h); e != nil {
		fmt.Fprint(s.out, e.String())
	} else {
		fmt.Fprintf(s.out, "%s has no recorded derivation\n", h)
	}
	return nil
}
