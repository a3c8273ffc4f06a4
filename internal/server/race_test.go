package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
)

// TestServiceConcurrentHammer drives the service the way production
// traffic would, under the race detector: many goroutines hammer one hot
// cached session with every request type while another goroutine
// registers and evicts sessions (churning the LRU past its capacity) and
// a third polls stats. Every response on the hot session is compared
// against the sequential baseline — any cross-request state leakage
// (forks observing each other's deletions, warm-state corruption) shows
// up as a drifted result, and any locking mistake as a race report.
func TestServiceConcurrentHammer(t *testing.T) {
	svc := openService(t, Config{MaxSessions: 4, MaxInFlight: 8})
	_, prog := register(t, svc, "hot")

	// Sequential baselines, computed outside the service.
	refDB := func() *engine.Database {
		db, _ := fixture(t)
		return db
	}()
	baseline := make(map[core.Semantics]string, len(core.AllSemantics))
	for _, sem := range core.AllSemantics {
		res, _, err := core.RunWith(refDB.Clone(), prog, sem, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseline[sem] = keysOf(res)
	}

	const (
		workers = 8
		iters   = 25
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, workers*iters+64)

	// Hammer workers: rotate over every request type on the hot session.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sem := core.AllSemantics[(w+i)%len(core.AllSemantics)]
				switch i % 4 {
				case 0, 1:
					res, _, _, err := svc.RepairVersioned(ctx, "hot", sem, RequestOptions{})
					if err != nil {
						errCh <- fmt.Errorf("worker %d repair %s: %w", w, sem, err)
						return
					}
					if keysOf(res) != baseline[sem] {
						errCh <- fmt.Errorf("worker %d: %s drifted to %s (want %s)", w, sem, keysOf(res), baseline[sem])
						return
					}
				case 2:
					stable, _, err := svc.IsStableVersioned(ctx, "hot", RequestOptions{})
					if err != nil {
						errCh <- fmt.Errorf("worker %d is-stable: %w", w, err)
						return
					}
					if stable {
						errCh <- fmt.Errorf("worker %d: hot session reported stable", w)
						return
					}
				case 3:
					res, _, err := svc.DeleteViewTupleVersioned(ctx, "hot",
						"V(a, p) :- Author(a, n), Writes(a, p).",
						[]engine.Value{engine.Int(4), engine.Int(6)}, RequestOptions{})
					if err != nil {
						errCh <- fmt.Errorf("worker %d view delete: %w", w, err)
						return
					}
					if res.Size() == 0 {
						errCh <- fmt.Errorf("worker %d: empty view-delete solution", w)
						return
					}
				}
			}
		}(w)
	}

	// Churn goroutine: register/evict sessions to force LRU pressure and
	// concurrent Prepare+Freeze while the hot session serves. The fixtures
	// are built up front on the test goroutine (t.Fatalf must not run on a
	// spawned goroutine); sequential register/evict cycles may reuse a
	// pair because only this goroutine ever touches it.
	type churnFixture struct {
		db *engine.Database
		p  *datalog.Program
	}
	churn := make([]churnFixture, 6)
	for i := range churn {
		db, p := fixture(t)
		churn[i] = churnFixture{db: db, p: p}
	}
	churnDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churnDone)
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("churn-%d", i%6)
			db, p := churn[i%6].db, churn[i%6].p
			// Promote the hot session so the LRU victim of this register is
			// always a churn session: this goroutine is the only one that
			// registers, so nothing can demote "hot" past three younger
			// sessions before the eviction below runs.
			if _, err := svc.session("hot"); err != nil {
				errCh <- fmt.Errorf("hot session vanished: %w", err)
				return
			}
			err := svc.Register(name, db.Schema, db, p)
			if err != nil && !errors.Is(err, ErrDuplicate) {
				errCh <- fmt.Errorf("churn register: %w", err)
				return
			}
			if err == nil {
				// Serve some of the churn sessions' first requests against
				// the hammer traffic.
				if i%3 == 0 {
					if _, _, _, err := svc.RepairVersioned(ctx, name, core.SemEnd, RequestOptions{}); err != nil && !errors.Is(err, ErrNotFound) {
						errCh <- fmt.Errorf("churn repair: %w", err)
						return
					}
				}
			}
			if i%2 == 1 {
				svc.Deregister(name)
			}
		}
	}()

	// Stats poller: for as long as the churn registers and deregisters,
	// every listed session must already be serving — a session is visible
	// only once prepared and frozen, so none may list version 0 or an
	// empty database.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, info := range svc.Sessions() {
				if info.Version == 0 || info.Tuples == 0 {
					errCh <- fmt.Errorf("stats: session %q listed at version %d with %d tuples", info.Name, info.Version, info.Tuples)
					return
				}
			}
			select {
			case <-churnDone:
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The hot session must still serve pristine results after the storm.
	res, _, _, err := svc.RepairVersioned(ctx, "hot", core.SemStage, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if keysOf(res) != baseline[core.SemStage] {
		t.Fatalf("post-storm drift: %s vs %s", keysOf(res), baseline[core.SemStage])
	}
}
