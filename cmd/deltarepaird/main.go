// Command deltarepaird serves database repairs over HTTP: register named
// (schema, program, database) sessions once, then answer repair,
// repair-all, repairs (k-best enumeration), query (consistent answers),
// is-stable, and delete-view-tuple requests by forking the session's
// frozen snapshot per request — no deep copies, no re-planning.
//
//	deltarepaird -addr :8080 -demo
//
//	# register a session
//	curl -s localhost:8080/v1/sessions -d '{
//	  "name": "papers",
//	  "schema": "Author(aid, name)\nPub(pid, aid)",
//	  "program": "Delta_Pub(p, a) :- Pub(p, a), Delta_Author(a, n).",
//	  "tuples": {"Author": [[1, "alice"]], "Pub": [[10, 1]]}
//	}'
//
//	# repair it under stage semantics with a 500 ms budget
//	curl -s localhost:8080/v1/sessions/papers/repair \
//	     -d '{"semantics": "stage", "timeout_ms": 500}'
//
//	# update the base data in place: a new snapshot version is minted,
//	# untouched relations share storage with every earlier version
//	curl -s localhost:8080/v1/sessions/papers/update \
//	     -d '{"inserts": {"Pub": [[11, 1]]}, "deletes": {"Author": [[1, "alice"]]}}'
//
//	# read-your-writes: pin the version the update returned
//	curl -s localhost:8080/v1/sessions/papers/repair \
//	     -d '{"semantics": "stage", "version": 2}'
//
//	# enumerate the 4 best minimal repairs (independent semantics) with
//	# the per-tuple certain/possible deletion classification
//	curl -s localhost:8080/v1/sessions/papers/repairs -d '{"k": 4}'
//
//	# consistent query answering: rows certain in every repair vs
//	# possible in at least one, classified against the same repair space
//	curl -s localhost:8080/v1/sessions/papers/query \
//	     -d '{"query": "Q(p) :- Pub(p, a).", "k": 4}'
//
// With -data-dir, sessions are durable: registrations and update batches
// are persisted (write-ahead log + periodic checkpoints) and
// recovered after a restart:
//
//	deltarepaird -addr :8080 -data-dir /var/lib/deltarepaird
//
// One request evaluates on one goroutine; the daemon's concurrency is
// across requests (-max-inflight private forks of the session snapshot).
// The per-request worker-count flag of earlier versions is gone: a command
// line that still passes it fails at start-up with Go's "flag provided but
// not defined" (CHANGES.md names it); drop the flag.
//
// See internal/server for the full API, and the README's "Durable
// sessions" section for the WAL format and recovery semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"reflect"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/programs"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxSessions = flag.Int("max-sessions", server.DefaultMaxSessions, "session cache capacity (LRU beyond this)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing repairs (0 = 2x GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request timeout (0 = none)")
		solverNodes = flag.Int64("solver-max-nodes", 0, "Min-Ones-SAT node budget, and the ceiling on a request's solver_max_nodes (0 = solver default)")
		maxVersions = flag.Int("max-versions", 0, "retained snapshot versions per session for pinned reads (0 = engine default)")
		maxBody     = flag.Int64("max-body-bytes", 0, "largest request body accepted, in bytes; longer ones get 413 (0 = 64 MiB)")
		demo        = flag.Bool("demo", false, "preload the paper's running example as session \"running-example\"")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		dataDir     = flag.String("data-dir", "", "persist sessions (WAL + checkpoints) under this directory; empty = in-memory only")
		fsync       = flag.Bool("fsync", true, "fsync the WAL on every update (false: OS-buffered, survives process crash but not power loss)")
		snapEvery   = flag.Int("snapshot-every", 0, "WAL records between checkpoint compactions (0 = default, negative = never)")
		selfcheck   = flag.Bool("selfcheck", false, "run a persist/restart/recover round trip against -data-dir and exit")
	)
	flag.Parse()

	if *selfcheck {
		dir := *dataDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "deltarepaird-selfcheck-*"); err != nil {
				log.Fatalf("selfcheck: %v", err)
			}
			defer os.RemoveAll(dir)
		}
		if err := selfCheck(dir); err != nil {
			log.Fatalf("selfcheck: %v", err)
		}
		log.Printf("selfcheck ok: durable session recovered byte-identically across all semantics")
		return
	}

	// Profiling endpoints live on their own listener, never on the API
	// handler: enabling -pprof must not expose heap dumps and CPU
	// profiles to API clients.
	var psrv *http.Server
	if *pprofAddr != "" {
		var err error
		if psrv, err = startPprof(*pprofAddr); err != nil {
			log.Fatalf("pprof listener: %v", err)
		}
		log.Printf("pprof listening on %s", psrv.Addr)
	}

	svc, err := server.Open(server.Config{
		MaxSessions:    *maxSessions,
		MaxInFlight:    *maxInFlight,
		DefaultTimeout: *timeout,
		SolverMaxNodes: *solverNodes,
		MaxVersions:    *maxVersions,
		MaxBodyBytes:   *maxBody,
		DataDir:        *dataDir,
		NoFsync:        !*fsync,
		SnapshotEvery:  *snapEvery,
	})
	if err != nil {
		log.Fatalf("deltarepaird: %v", err)
	}
	if svc.Durable() {
		names, err := svc.Persisted()
		if err != nil {
			log.Fatalf("scanning data dir: %v", err)
		}
		log.Printf("durable sessions in %s: %d persisted (recovered lazily on first access)", *dataDir, len(names))
	}

	if *demo {
		if err := registerDemo(svc); err != nil {
			log.Fatalf("demo session: %v", err)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("deltarepaird listening on %s (max-inflight=%d, timeout=%s)",
		*addr, svc.MaxInFlight(), *timeout)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "deltarepaird: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		log.Printf("received %s, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "deltarepaird: shutdown: %v\n", err)
			os.Exit(1)
		}
		// The pprof listener drains with the API server: profiling must
		// not hold the process (or its port) alive after the drain.
		if psrv != nil {
			if err := psrv.Shutdown(ctx); err != nil {
				log.Printf("pprof shutdown: %v", err)
			}
		}
	}
	// Flush every session's WAL so a clean shutdown needs no replay.
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "deltarepaird: closing sessions: %v\n", err)
		os.Exit(1)
	}
}

// startPprof serves net/http/pprof on its own listener and returns the
// server so the drain path can shut it down. The returned server's Addr
// is the bound address (useful with ":0").
func startPprof(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	psrv := &http.Server{Addr: ln.Addr().String(), Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := psrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	return psrv, nil
}

// registerDemo loads the paper's running example. With durability on, a
// previous run's persisted copy wins: recovery restores it (updates
// included) on its first request instead of re-registering from scratch.
func registerDemo(svc *server.Service) error {
	const name = "running-example"
	db := programs.RunningExampleDB()
	prog, err := programs.RunningExampleProgram()
	if err != nil {
		return err
	}
	err = svc.Register(name, db.Schema, db, prog)
	if errors.Is(err, server.ErrDuplicate) {
		log.Printf("demo session %q already persisted; its first request recovers it", name)
		return nil
	}
	if err != nil {
		return err
	}
	log.Printf("registered demo session %q", name)
	return nil
}

// selfCheck exercises the durability layer end to end in one process:
// register the running example, apply update batches, record repairs under
// all four semantics, abandon the service without a clean shutdown
// (simulating a crash — the WAL is fsynced, the in-memory state is lost),
// then open a fresh service over the same data dir and assert the
// recovered session serves byte-identical repairs at the same version.
func selfCheck(dir string) error {
	const name = "selfcheck"
	cfg := server.Config{DataDir: dir, SnapshotEvery: 2}
	svc, err := server.Open(cfg)
	if err != nil {
		return err
	}
	db := programs.RunningExampleDB()
	prog, err := programs.RunningExampleProgram()
	if err != nil {
		return err
	}
	if err := svc.Register(name, db.Schema, db, prog); err != nil {
		return err
	}
	ctx := context.Background()
	// Three batches: insert, mixed, delete — with SnapshotEvery=2 this
	// crosses a compaction boundary, so recovery exercises checkpoint load
	// plus WAL tail replay.
	batches := []struct{ ins, del []engine.Row }{
		{ins: []engine.Row{{Rel: "Writes", Vals: []engine.Value{engine.Int(2), engine.Int(6)}}}},
		{ins: []engine.Row{{Rel: "Cite", Vals: []engine.Value{engine.Int(6), engine.Int(7)}}},
			del: []engine.Row{{Rel: "AuthGrant", Vals: []engine.Value{engine.Int(5), engine.Int(2)}}}},
		{del: []engine.Row{{Rel: "Writes", Vals: []engine.Value{engine.Int(2), engine.Int(6)}}}},
	}
	var version uint64
	for i, b := range batches {
		res, err := svc.Update(ctx, name, b.ins, b.del, server.RequestOptions{})
		if err != nil {
			return fmt.Errorf("update %d: %v", i, err)
		}
		version = res.Version
	}
	before := make(map[core.Semantics][]string)
	for _, sem := range core.AllSemantics {
		res, _, _, err := svc.RepairVersioned(ctx, name, sem, server.RequestOptions{})
		if err != nil {
			return fmt.Errorf("pre-crash %s repair: %v", sem, err)
		}
		before[sem] = res.Keys()
	}
	// Crash: no svc.Close(). The acknowledged batches are durable in the
	// checkpoint + WAL; the open handles are simply abandoned.

	svc2, err := server.Open(cfg)
	if err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	defer svc2.Close()
	for _, sem := range core.AllSemantics {
		res, _, gotVer, err := svc2.RepairVersioned(ctx, name, sem, server.RequestOptions{})
		if err != nil {
			return fmt.Errorf("post-recovery %s repair: %v", sem, err)
		}
		if gotVer != version {
			return fmt.Errorf("recovered head version %d, want %d", gotVer, version)
		}
		if !reflect.DeepEqual(res.Keys(), before[sem]) {
			return fmt.Errorf("%s repair diverged after recovery:\n before: %v\n after:  %v",
				sem, before[sem], res.Keys())
		}
	}
	return nil
}
