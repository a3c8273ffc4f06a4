package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/programs"
)

// TestRunWithCanceledContext: every operation honors Options.Ctx — a
// pre-canceled context aborts with ctx.Err() before (or during) work, and
// a nil context means "never canceled". Options.Ctx is the one way a
// context enters the package, so RunWith, CheckStable and
// EnumerateRepairsWith are all checked here.
func TestRunWithCanceledContext(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel2()

	for _, sem := range AllSemantics {
		if _, _, err := RunWith(db.Clone(), p, sem, Options{Ctx: canceled}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled ctx: got %v, want context.Canceled", sem, err)
		}
		if _, _, err := RunWith(db.Clone(), p, sem, Options{Ctx: expired}); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: expired deadline: got %v, want context.DeadlineExceeded", sem, err)
		}
		// A nil ctx (and a live ctx) must not change results.
		res, _, err := RunWith(db.Clone(), p, sem, Options{Ctx: context.Background()})
		if err != nil {
			t.Fatalf("%s: live ctx: %v", sem, err)
		}
		ref, _, err := RunWith(db.Clone(), p, sem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.SameSet(ref) {
			t.Errorf("%s: ctx-aware run differs from plain run", sem)
		}
	}

	for _, c := range []struct {
		name string
		ctx  context.Context
		want error
	}{{"canceled", canceled, context.Canceled}, {"expired", expired, context.DeadlineExceeded}} {
		if _, err := CheckStable(db.Clone(), p, Options{Ctx: c.ctx}); !errors.Is(err, c.want) {
			t.Errorf("CheckStable, %s ctx: got %v, want %v", c.name, err, c.want)
		}
		if _, err := EnumerateRepairsWith(db.Clone(), p, Options{Ctx: c.ctx}, EnumerateOptions{K: 2}); !errors.Is(err, c.want) {
			t.Errorf("EnumerateRepairsWith, %s ctx: got %v, want %v", c.name, err, c.want)
		}
	}
	// A live context leaves the answer alone: the running example is
	// unstable.
	if stable, err := CheckStable(db.Clone(), p, Options{Ctx: context.Background()}); err != nil || stable {
		t.Errorf("CheckStable, live ctx: stable = %v, err = %v; want unstable", stable, err)
	}
}

// TestStepExhaustiveCancellation: the BFS honors StepExhaustiveOptions.Ctx
// per explored state.
func TestStepExhaustiveCancellation(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunStepExhaustive(db.Clone(), p, StepExhaustiveOptions{Ctx: canceled}); !errors.Is(err, context.Canceled) {
		t.Errorf("exhaustive search: got %v, want context.Canceled", err)
	}
}
