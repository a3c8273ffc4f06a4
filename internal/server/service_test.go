package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/programs"
)

// fixture returns the paper's running example as a (db, program) pair with
// the program validated against the database's own schema object.
func fixture(t testing.TB) (*engine.Database, *datalog.Program) {
	t.Helper()
	db := programs.RunningExampleDB()
	prog, err := datalog.ParseAndValidate(programs.RunningExampleSource, db.Schema)
	if err != nil {
		t.Fatalf("parsing running example: %v", err)
	}
	return db, prog
}

// openService opens a Service with cfg, failing tb on error.
func openService(tb testing.TB, cfg Config) *Service {
	tb.Helper()
	svc, err := Open(cfg)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return svc
}

func register(t testing.TB, svc *Service, name string) (*engine.Database, *datalog.Program) {
	t.Helper()
	db, prog := fixture(t)
	if err := svc.Register(name, db.Schema, db, prog); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return db, prog
}

func keysOf(res *core.Result) string { return fmt.Sprintf("%v", res.Keys()) }

func TestServiceRepairMatchesDirect(t *testing.T) {
	svc := openService(t, Config{})
	_, prog := register(t, svc, "papers")
	// The reference database must be an independent instance: the service
	// owns the registered one.
	refDB := programs.RunningExampleDB()

	for _, sem := range core.AllSemantics {
		want, _, err := core.RunWith(refDB.Clone(), prog, sem, core.Options{})
		if err != nil {
			t.Fatalf("%s direct: %v", sem, err)
		}
		got, repaired, _, err := svc.RepairVersioned(context.Background(), "papers", sem, RequestOptions{})
		if err != nil {
			t.Fatalf("%s served: %v", sem, err)
		}
		if keysOf(got) != keysOf(want) {
			t.Errorf("%s: served %s, direct %s", sem, keysOf(got), keysOf(want))
		}
		stable, err := core.CheckStable(repaired, prog, core.Options{})
		if err != nil || !stable {
			t.Errorf("%s: served repaired database not stable (err=%v)", sem, err)
		}
	}
}

func TestServiceRequestsAreIsolated(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	first, _, _, err := svc.RepairVersioned(context.Background(), "papers", core.SemStage, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Size() == 0 {
		t.Fatal("running example repair should delete tuples")
	}
	// Every subsequent request must see the pristine base, not earlier
	// requests' deletions.
	for i := 0; i < 10; i++ {
		res, _, _, err := svc.RepairVersioned(context.Background(), "papers", core.SemStage, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if keysOf(res) != keysOf(first) {
			t.Fatalf("request %d drifted: %s vs %s", i, keysOf(res), keysOf(first))
		}
	}
	infos := svc.Sessions()
	if len(infos) != 1 || infos[0].Version != 1 {
		t.Fatalf("expected one session at version 1, got %+v", infos)
	}
	if infos[0].Requests != 11 {
		t.Errorf("request accounting: got %d, want 11", infos[0].Requests)
	}
	// Fork accounting: at least one fork per request (the service forks
	// once per request and the executors fork internally again).
	if infos[0].Forks < infos[0].Requests {
		t.Errorf("fork accounting: %d forks < %d requests", infos[0].Forks, infos[0].Requests)
	}
}

func TestServiceRepairAllAndStability(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	results, _, err := svc.RepairAllVersioned(context.Background(), "papers", RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(core.AllSemantics) {
		t.Fatalf("want %d results, got %d", len(core.AllSemantics), len(results))
	}
	cont := core.CheckContainment(results)
	if !cont.StageInEnd || !cont.StepInEnd || !cont.IndLeStep || !cont.IndLeStage {
		t.Errorf("always-true containments violated: %+v", cont)
	}
	stable, _, err := svc.IsStableVersioned(context.Background(), "papers", RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Error("running example starts unstable")
	}
}

func TestServiceDeleteViewTuple(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	res, _, err := svc.DeleteViewTupleVersioned(context.Background(), "papers",
		"V(a, p) :- Author(a, n), Writes(a, p).",
		[]engine.Value{engine.Int(4), engine.Int(6)}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() == 0 || res.ViewRowsBefore == 0 {
		t.Errorf("expected a non-trivial solution, got %+v", res)
	}
}

func TestServiceSessionLifecycle(t *testing.T) {
	svc := openService(t, Config{MaxSessions: 2})
	register(t, svc, "a")
	if _, _, _, err := svc.RepairVersioned(context.Background(), "missing", core.SemEnd, RequestOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown session: got %v, want ErrNotFound", err)
	}
	db, prog := fixture(t)
	if err := svc.Register("a", db.Schema, db, prog); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register: got %v, want ErrDuplicate", err)
	}
	register(t, svc, "b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, _, _, err := svc.RepairVersioned(context.Background(), "a", core.SemEnd, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	register(t, svc, "c")
	if svc.Len() != 2 {
		t.Fatalf("cache len %d, want 2", svc.Len())
	}
	if svc.Evictions() != 1 {
		t.Fatalf("evictions %d, want 1", svc.Evictions())
	}
	if _, _, _, err := svc.RepairVersioned(context.Background(), "b", core.SemEnd, RequestOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted session: got %v, want ErrNotFound", err)
	}
	if !svc.Deregister("c") || svc.Deregister("c") {
		t.Error("deregister should succeed once")
	}
}

func TestServiceCancellation(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := svc.RepairVersioned(canceled, "papers", core.SemStage, RequestOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: got %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	if _, _, _, err := svc.RepairVersioned(expired, "papers", core.SemIndependent, RequestOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

func TestServiceAdmissionBound(t *testing.T) {
	svc := openService(t, Config{MaxInFlight: 1})
	register(t, svc, "papers")
	// With one token, concurrent requests serialize but all complete.
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, _, _, err := svc.RepairVersioned(context.Background(), "papers", core.SemStage, RequestOptions{})
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServiceConcurrentFirstRequests(t *testing.T) {
	svc := openService(t, Config{})
	register(t, svc, "papers")
	// The session is prepared and frozen before Register returns: the
	// concurrent first requests below all read the one version-1 snapshot.
	sess, err := svc.session("papers")
	if err != nil {
		t.Fatal(err)
	}
	head, version := sess.ring.Head()
	if sess.prep == nil || version != 1 {
		t.Fatalf("registered session not ready: prep %v, head version %d", sess.prep != nil, version)
	}
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, _, err := svc.RepairVersioned(context.Background(), "papers", core.SemEnd, RequestOptions{})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := sess.ring.Head(); got != head {
		t.Error("requests replaced the registered head snapshot")
	}
	if got := sess.requests.Load(); got != n {
		t.Errorf("requests %d, want %d", got, n)
	}
}

func TestServiceRejectsInvalidSessions(t *testing.T) {
	svc := openService(t, Config{})
	db, prog := fixture(t)
	if err := svc.Register("", db.Schema, db, prog); err == nil {
		t.Error("empty name accepted")
	}
	if err := svc.Register("x", nil, db, prog); err == nil {
		t.Error("nil schema accepted")
	}
	other := programs.RunningExampleSchema()
	if err := svc.Register("x", other, db, prog); err == nil {
		t.Error("mismatched schema accepted")
	}
	// A program that fails to prepare fails at Register and publishes no
	// session.
	bad := &datalog.Program{}
	if err := svc.Register("bad", db.Schema, db, bad); err == nil {
		t.Error("empty program registered")
	}
	if _, _, _, err := svc.RepairVersioned(context.Background(), "bad", core.SemEnd, RequestOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("request on a rejected registration: %v, want ErrNotFound", err)
	}
}
