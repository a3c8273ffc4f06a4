package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
)

// checkForkVsClone runs every semantics twice — once on a CoW fork of the
// frozen base, once on a deep clone — and requires byte-identical results:
// same stabilizing set, same deletion order, same repaired instance. Deep
// clones share tuple pointers with the original, so deletion order is
// compared by object identity, the strongest available check.
func checkForkVsClone(t *testing.T, db *engine.Database, prog *datalog.Program) {
	t.Helper()
	snap := db.Freeze()
	for _, sem := range AllSemantics {
		resFork, repFork, err := RunWith(snap.Fork(), prog, sem, Options{})
		if err != nil {
			t.Fatalf("%s on fork: %v", sem, err)
		}
		resClone, repClone, err := RunWith(db.Clone(), prog, sem, Options{})
		if err != nil {
			t.Fatalf("%s on clone: %v", sem, err)
		}
		if len(resFork.Deleted) != len(resClone.Deleted) {
			t.Fatalf("%s: stabilizing set size %d on fork vs %d on clone",
				sem, len(resFork.Deleted), len(resClone.Deleted))
		}
		for i := range resFork.Deleted {
			if resFork.Deleted[i] != resClone.Deleted[i] {
				t.Fatalf("%s: deletion order diverges at %d: %s vs %s",
					sem, i, resFork.Deleted[i], resClone.Deleted[i])
			}
		}
		for _, rs := range db.Schema.Relations {
			fb := fmt.Sprint(repFork.Relation(rs.Name).Keys())
			cb := fmt.Sprint(repClone.Relation(rs.Name).Keys())
			if fb != cb {
				t.Fatalf("%s: repaired %s base diverges:\n%s\nvs\n%s", sem, rs.Name, fb, cb)
			}
			fd := fmt.Sprint(repFork.Delta(rs.Name).Keys())
			cd := fmt.Sprint(repClone.Delta(rs.Name).Keys())
			if fd != cd {
				t.Fatalf("%s: repaired %s delta diverges:\n%s\nvs\n%s", sem, rs.Name, fd, cd)
			}
		}
	}
}

// TestForkVsCloneAllPrograms is the copy-on-write acceptance gate: every
// MAS program (all 20) plus the paper's running example must produce
// byte-identical results under all four semantics whether the executor
// input is a CoW fork of a frozen base or a deep clone.
func TestForkVsCloneAllPrograms(t *testing.T) {
	t.Run("running-example", func(t *testing.T) {
		db := programs.RunningExampleDB()
		p, err := programs.RunningExampleProgram()
		if err != nil {
			t.Fatal(err)
		}
		checkForkVsClone(t, db, p)

		// The exhaustive step search (which forks one frozen base per
		// explored state) must agree with itself across representations.
		exFork, _, err := RunStepExhaustive(db.Fork(), p, StepExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exClone, _, err := RunStepExhaustive(db.Clone(), p, StepExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if exFork.Size() != exClone.Size() {
			t.Fatalf("exhaustive step: %d deletions on fork vs %d on clone", exFork.Size(), exClone.Size())
		}
		for i := range exFork.Deleted {
			if exFork.Deleted[i] != exClone.Deleted[i] {
				t.Fatalf("exhaustive step order diverges at %d", i)
			}
		}
	})

	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	for n := 1; n <= 20; n++ {
		t.Run(fmt.Sprintf("mas-%d", n), func(t *testing.T) {
			p, err := programs.MAS(n, ds)
			if err != nil {
				t.Fatal(err)
			}
			checkForkVsClone(t, ds.DB, p)
		})
	}
}
