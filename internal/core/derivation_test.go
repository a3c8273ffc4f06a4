package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
)

// resultFingerprint is everything of a Result that sharing a Derivation must
// not change (timings and rounds are documented to depend on who produced a
// shared artefact).
func resultFingerprint(res *Result) string {
	return fmt.Sprintf("%v optimal=%v clauses=%d graph=%d cost=%d",
		res.Keys(), res.Optimal, res.FormulaClauses, res.GraphAssignments, res.RepairCost)
}

// semanticsOrders returns all 24 orders of the four semantics.
func semanticsOrders() [][]Semantics {
	var out [][]Semantics
	var rec func(prefix, rest []Semantics)
	rec = func(prefix, rest []Semantics) {
		if len(rest) == 0 {
			out = append(out, append([]Semantics(nil), prefix...))
			return
		}
		for i, sem := range rest {
			next := append(append([]Semantics(nil), rest[:i]...), rest[i+1:]...)
			rec(append(prefix, sem), next)
		}
	}
	rec(nil, AllSemantics)
	return out
}

// checkOrderIndependence asserts that one Derivation, asked for the four
// semantics in any order, gives each the result a Derivation of its own
// gives it — whichever policy happened to produce the shared provenance and
// end fixpoint — and that every repaired fork holds exactly
// the input's deletions plus the result's.
func checkOrderIndependence(t *testing.T, db *engine.Database, p *datalog.Program) {
	t.Helper()
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Freeze()
	// What is shared does not depend on the solver budget, so a small one
	// keeps the 25 searches per program short.
	opts := Options{Prepared: prep, Independent: IndependentOptions{MaxNodes: 300}}
	want := make(map[Semantics]string, len(AllSemantics))
	for _, sem := range AllSemantics {
		res, _, err := RunWith(snap.Fork(), p, sem, opts)
		if err != nil {
			t.Fatalf("%s alone: %v", sem, err)
		}
		want[sem] = resultFingerprint(res)
	}
	preDeleted := db.TotalDeltaTuples()
	for _, order := range semanticsOrders() {
		base := snap.Fork()
		d, err := NewDerivation(base, prep)
		if err != nil {
			t.Fatal(err)
		}
		for _, sem := range order {
			res, err := d.Run(sem, opts)
			if err != nil {
				t.Fatalf("order %v: %s: %v", order, sem, err)
			}
			repaired, err := Materialize(base, res)
			if err != nil {
				t.Fatalf("order %v: %s: %v", order, sem, err)
			}
			if got := resultFingerprint(res); got != want[sem] {
				t.Fatalf("order %v: %s shared\n %s\nalone\n %s", order, sem, got, want[sem])
			}
			if got := repaired.TotalDeltaTuples(); got != preDeleted+res.Size() {
				t.Fatalf("order %v: %s repaired fork holds %d deltas, want %d + %d",
					order, sem, got, preDeleted, res.Size())
			}
		}
	}
}

// TestDerivationOrderIndependence: sharing changes nothing, on the running
// example, the paper's 26 programs, and 100 generator seeds — each as
// generated and again with every third tuple deleted beforehand, so the
// shared fixpoint is also produced from §3.6 seeds.
func TestDerivationOrderIndependence(t *testing.T) {
	t.Run("running-example", func(t *testing.T) {
		checkOrderIndependence(t, academicDB(), academicProgram(t))
	})
	md := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	for n := 1; n <= 20; n++ {
		t.Run(fmt.Sprintf("mas-%d", n), func(t *testing.T) {
			p, err := programs.MAS(n, md)
			if err != nil {
				t.Fatal(err)
			}
			checkOrderIndependence(t, md.DB, p)
		})
	}
	td := tpch.Generate(tpch.Config{Scale: 0.0005, Seed: 1})
	for n := 1; n <= 6; n++ {
		t.Run(fmt.Sprintf("tpch-%d", n), func(t *testing.T) {
			p, err := programs.TPCH(n, td)
			if err != nil {
				t.Fatal(err)
			}
			checkOrderIndependence(t, td.DB, p)
		})
	}
	for seed := int64(1); seed <= 100; seed++ {
		sc := gen.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkOrderIndependence(t, sc.DB, sc.Program)
			checkOrderIndependence(t, preDeleteEveryThird(sc), sc.Program)
		})
	}
}

// spaceFingerprint is everything of a RepairSpace that sharing a
// Derivation must not change.
func spaceFingerprint(sp *RepairSpace) string {
	out := fmt.Sprintf("complete=%v optimal=%v nodes=%d clauses=%d", sp.Complete, sp.Optimal, sp.SolverNodes, sp.FormulaClauses)
	for _, res := range sp.Repairs {
		out += " | " + resultFingerprint(res)
	}
	return out
}

// checkConcurrentPolicies runs the four semantics and two enumerations on
// one Derivation from six goroutines at once and asserts each answer is the
// one a Derivation of its own gives; the race detector (CI runs this
// package under it) checks that the artefacts are built under the lock and
// only read outside it.
func checkConcurrentPolicies(t *testing.T, db *engine.Database, p *datalog.Program) {
	t.Helper()
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Freeze()
	opts := Options{Prepared: prep, Independent: IndependentOptions{MaxNodes: 300}}
	jobs := make([]func(*Derivation) (string, error), 0, 6)
	for _, sem := range AllSemantics {
		jobs = append(jobs, func(d *Derivation) (string, error) {
			res, err := d.Run(sem, opts)
			if err != nil {
				return "", err
			}
			return resultFingerprint(res), nil
		})
	}
	for _, k := range []int{8, 4} {
		jobs = append(jobs, func(d *Derivation) (string, error) {
			sp, err := d.Enumerate(opts, EnumerateOptions{K: k})
			if err != nil {
				return "", err
			}
			return spaceFingerprint(sp), nil
		})
	}
	want := make([]string, len(jobs))
	for i, job := range jobs {
		d, err := NewDerivation(snap.Fork(), prep)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = job(d); err != nil {
			t.Fatalf("job %d alone: %v", i, err)
		}
	}
	for round := 0; round < 3; round++ {
		d, err := NewDerivation(snap.Fork(), prep)
		if err != nil {
			t.Fatal(err)
		}
		got, errs := make([]string, len(jobs)), make([]error, len(jobs))
		var wg sync.WaitGroup
		for i, job := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = job(d)
			}()
		}
		wg.Wait()
		for i := range jobs {
			if errs[i] != nil {
				t.Fatalf("round %d: job %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("round %d: job %d shared\n %s\nalone\n %s", round, i, got[i], want[i])
			}
		}
	}
}

// TestDerivationConcurrentPolicies: one Derivation serves concurrent
// callers as it serves sequential ones, on the running example, MAS-8 and
// MAS-19, and ten generator seeds.
func TestDerivationConcurrentPolicies(t *testing.T) {
	t.Run("running-example", func(t *testing.T) {
		checkConcurrentPolicies(t, academicDB(), academicProgram(t))
	})
	md := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	for _, n := range []int{8, 19} {
		t.Run(fmt.Sprintf("mas-%d", n), func(t *testing.T) {
			p, err := programs.MAS(n, md)
			if err != nil {
				t.Fatal(err)
			}
			checkConcurrentPolicies(t, md.DB, p)
		})
	}
	for seed := int64(1); seed <= 10; seed++ {
		sc := gen.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkConcurrentPolicies(t, sc.DB, sc.Program)
		})
	}
}

// TestDerivationFailedBuildNotMemoised: a closure build that fails —
// canceled, or over the clause cap — leaves no artefact behind, and the
// next caller builds it under its own context and budget; the end
// fixpoint likewise.
func TestDerivationFailedBuildNotMemoised(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := RunWith(db.Fork(), p, SemStage, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDerivation(db.Fork(), prep)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := d.closureArtefact(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build: err %v", err)
	}
	if _, _, err := d.endFixpoint(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled end fixpoint: err %v", err)
	}
	if _, _, err := d.closureArtefact(nil, 1); err == nil {
		t.Fatal("a build over a 1-clause cap succeeded")
	}
	if d.prov != nil || d.end != nil {
		t.Fatal("a failed build was memoised")
	}
	got, err := d.Run(SemStage, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(got) != resultFingerprint(want) || got.Timing.Eval == 0 {
		t.Fatalf("stage after failed builds: %s (eval %v), want %s built afresh", resultFingerprint(got), got.Timing.Eval, resultFingerprint(want))
	}
}
