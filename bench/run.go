package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/server"
)

// runConfig fixes everything about a run except the workload; the smoke
// test shrinks it, a real run uses defaultConfig.
type runConfig struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	scales scales
	// Set-up is repeated at least setups times and until setupBudget is
	// spent (at most 3*setups times), so a set-up of tens of milliseconds
	// is measured more often than one of a second; setup_s is the median.
	setups      int
	setupBudget time.Duration
	// recoveries is how often durable_updates kills and restarts the server.
	recoveries int
	// sampleEvery keeps one answer in this many for checking; maxDerive
	// bounds the from-scratch derivations spent on the kept ones.
	sampleEvery, maxDerive int
	// trace selects the traced run: a shorter socket window for the counts,
	// the open-loop leg, then the in-process spans and probes.
	trace    bool
	openLoop time.Duration
	openRate int
	// traceScale divides every workload's traced iteration count.
	traceScale int

	newTarget func(dataDir, logPath string) (target, error)
	tmpDir    string // scratch inside the checkout, removed by the caller
	outDir    string // where traces are written; empty writes none
	buildS    float64
}

func defaultConfig(seed int64, window time.Duration) runConfig {
	return runConfig{
		seed: seed, window: window, warmup: 2 * time.Second, scales: defaultScales,
		setups: 3, setupBudget: time.Second, recoveries: 5, sampleEvery: 50, maxDerive: 24,
		openLoop: 4 * time.Second, openRate: 400, traceScale: 1,
	}
}

// env is one set-up system: the server, its data directory, the workload
// and the connected clients.
type env struct {
	w        *workload
	tgt      target
	dataDir  string
	clients  []*client
	register []time.Duration
}

func (e *env) close() {
	e.tgt.Stop()
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// setUp does everything between "nothing exists" and "the first timed
// request can be sent": dataset generation, body encoding, server start,
// registration and priming.
func setUp(ctx context.Context, cfg *runConfig, name string, attempt int) (*env, time.Duration, error) {
	start := time.Now()
	w, err := buildWorkload(name, cfg.seed, cfg.scales)
	if err != nil {
		return nil, 0, err
	}
	e := &env{w: w}
	if w.durable {
		e.dataDir = filepath.Join(cfg.tmpDir, fmt.Sprintf("data-%s-%d", name, attempt))
		if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	if e.tgt, err = cfg.newTarget(e.dataDir, filepath.Join(cfg.tmpDir, "deltarepaird.log")); err != nil {
		return nil, 0, err
	}
	e.clients = newClients(w, e.tgt.URL(), cfg.seed, cfg.sampleEvery)
	if w.registerInSetup {
		for c, s := range w.sessions {
			t0 := time.Now()
			if err := e.clients[c%len(e.clients)].must(ctx, s.registerOp()); err != nil {
				e.close()
				return nil, 0, err
			}
			e.register = append(e.register, time.Since(t0))
		}
		for _, o := range w.prime {
			if err := e.clients[0].must(ctx, o); err != nil {
				e.close()
				return nil, 0, err
			}
		}
	}
	return e, time.Since(start), nil
}

// boundary is what the harness reads when a window opens or closes — and
// only then, so that sampling does not perturb the run.
type boundary struct {
	serverCPU time.Duration
	peakRSS   float64
	hasProc   bool
	clientCPU time.Duration
	metrics   map[string]float64
}

func takeBoundary(tgt target) (boundary, error) {
	var b boundary
	var err error
	if b.metrics, err = scrapeMetrics(tgt.URL()); err != nil {
		return b, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.clientCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b.serverCPU, b.peakRSS, b.hasProc = tgt.Proc()
	return b, nil
}

// runResult is everything one run of one workload reports.
type runResult struct {
	workload  string
	attempted int
	failed    int
	metrics   metricSet
	failures  []string
	// socketP50 is the socket run's median per op type, the figure the
	// traced run's budget table reconciles against.
	socketP50 map[string]time.Duration
	// tables holds the traced run's budget tables.
	tables []string
}

func (r *runResult) correct() bool { return r.failed == 0 }

// runWorkload performs one full run: repeated set-up, warm-up, the timed
// window, the workload's epilogue, then the answer checks.
func runWorkload(ctx context.Context, cfg runConfig, name string) (*runResult, error) {
	res := &runResult{workload: name, socketP50: make(map[string]time.Duration)}
	mset := &res.metrics

	var e *env
	var setups []float64
	var spent time.Duration
	for k := 0; k < cfg.setups || (spent < cfg.setupBudget && k < 3*cfg.setups); k++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		var err error
		if e, d, err = setUp(ctx, &cfg, name, k); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	defer e.close()
	w := e.w
	mset.add("setup_s", "s", medianFloat(setups), len(setups))

	window := cfg.window
	if cfg.trace {
		window /= 2 // the traced half of the run takes the rest
	}
	if cfg.warmup > 0 {
		runPhase(ctx, e.clients, cfg.warmup, false)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	before, err := takeBoundary(e.tgt)
	if err != nil {
		return nil, err
	}
	wall := runPhase(ctx, e.clients, window, true)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := takeBoundary(e.tgt)
	if err != nil {
		return nil, err
	}
	dataDirMB := dirSizeMB(e.dataDir)

	// Latency series per op type and client. Clients may own different
	// sessions (MAS-8 beside MAS-19), and the median of two pooled
	// distributions sits between their modes, where one request more or
	// less moves it; so a median is taken per client and the clients'
	// medians are averaged. Tail percentiles are taken over the pool.
	var samples []sampled
	okCount, bytesOut := 0, 0
	byKind := make(map[string][][]time.Duration)
	series := func(kind string, c int) *[]time.Duration {
		if byKind[kind] == nil {
			byKind[kind] = make([][]time.Duration, len(e.clients))
		}
		return &byKind[kind][c]
	}
	for c, cl := range e.clients {
		samples = append(samples, cl.samples...)
		res.attempted += len(cl.recs)
		for _, r := range cl.recs {
			if !r.ok {
				res.failed++
				continue
			}
			okCount++
			bytesOut += r.bytes
			s := series(r.kind.String(), c)
			*s = append(*s, r.lat)
			if r.tag != "" {
				s := series(r.tag, c)
				*s = append(*s, r.lat)
			}
		}
		if len(cl.cycles) > 0 {
			*series("cycle", c) = cl.cycles
		}
	}
	if okCount == 0 {
		return nil, fmt.Errorf("no request of the window succeeded; first answer: %s", firstFailure(samples))
	}

	// End-to-end metrics, by the issue's names.
	mset.add("throughput_rps", "1/s", float64(okCount)/wall.Seconds(), okCount)
	if before.hasProc && after.hasProc {
		mset.add("server_cpu_ms_per_req", "ms", ms(after.serverCPU-before.serverCPU)/float64(okCount), okCount)
	} else {
		// No server process of its own (smoke test): the whole process's CPU.
		mset.add("server_cpu_ms_per_req", "ms", ms(after.clientCPU-before.clientCPU)/float64(okCount), okCount)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	counts := make(map[string]int)
	for _, k := range kinds {
		var pool, medians []time.Duration
		for _, s := range byKind[k] {
			if len(s) > 0 {
				pool = append(pool, s...)
				medians = append(medians, medianDur(s))
			}
		}
		res.socketP50[k], counts[k] = meanDur(medians), len(pool)
		p50 := k + "_p50_ms"
		if !endToEndOps[k] {
			p50 = "client." + p50
		}
		mset.add(p50, "ms", ms(res.socketP50[k]), len(pool))
		// A percentile is reported only with ten samples beyond it.
		if supports(len(pool), 0.99) {
			mset.add("client."+k+"_p99_ms", "ms", ms(percentile(sortedCopy(pool), 0.99)), len(pool))
		}
	}

	// Layer counts of the socket run.
	mset.add("client.build_s", "s", cfg.buildS, 1)
	mset.add("client.requests", "count", float64(res.attempted), 0)
	mset.add("client.cpu_share", "share", (after.clientCPU-before.clientCPU).Seconds()/(wall.Seconds()*2), 0)
	mset.add("client.response_bytes_per_req", "B", float64(bytesOut)/float64(okCount), okCount)
	mset.add("daemon.peak_rss_mb", "MB", after.peakRSS, 0)
	mset.add("daemon.data_dir_mb", "MB", dataDirMB, 0)
	delta := func(prefix string, labels ...string) float64 {
		return sumSeries(after.metrics, prefix, labels...) - sumSeries(before.metrics, prefix, labels...)
	}
	mset.add("server.requests_ok", "count", delta("deltarepaird_requests_total", `status="ok"`), 0)
	mset.add("server.requests_error", "count", delta("deltarepaird_requests_total", `status="error"`), 0)
	mset.add("server.starts_cold", "count", delta("deltarepaird_session_starts_total", `type="cold"`), 0)
	mset.add("server.starts_warm", "count", delta("deltarepaird_session_starts_total", `type="warm"`), 0)
	mset.add("durability.wal_appends", "count", delta("deltarepaird_wal_append_seconds_count"), 0)
	mset.add("durability.compactions", "count", delta("deltarepaird_snapshot_compactions_total"), 0)
	if w.registerInSetup {
		mset.add("server.register_ms", "ms", ms(meanDur(e.register)), len(e.register))
	} else {
		mset.add("server.register_ms", "ms", ms(res.socketP50["register"]), counts["register"])
	}

	// Epilogues: the legs that follow the closed-loop window.
	if cfg.trace && w.openLoop && cfg.openLoop > 0 {
		lat, late := openLoop(ctx, e.clients, cfg.openLoop, cfg.openRate)
		sorted := sortedCopy(lat)
		mset.add("client.open_p50_ms", "ms", ms(percentile(sorted, 0.5)), len(sorted))
		if supports(len(sorted), 0.99) {
			mset.add("client.open_p99_ms", "ms", ms(percentile(sorted, 0.99)), len(sorted))
		}
		mset.add("client.open_late_ms", "ms", ms(meanDur(late)), len(late))
		for _, c := range e.clients {
			res.attempted += c.openSent
			res.failed += c.openFailed
		}
	}
	recovered, replayed := 0.0, 0.0
	if w.durable {
		rec, err := crashAndRecover(ctx, &cfg, e, res)
		if err != nil {
			return nil, err
		}
		mset.add("recovery_s", "s", rec, cfg.recoveries)
		res.socketP50["recovery"], counts["recovery"] = time.Duration(rec*float64(time.Second)), cfg.recoveries
		if final, err := scrapeMetrics(e.tgt.URL()); err == nil {
			recovered = sumSeries(final, "deltarepaird_session_starts_total", `type="recovered"`)
			replayed = sumSeries(final, "deltarepaird_recovery_replayed_records_total")
		}
	}
	// The two series every workload reports under one name, so that the
	// result line has the same metrics on every workload.
	mset.add("primary_p50_ms", "ms", ms(res.socketP50[w.primary]), counts[w.primary])
	mset.add("secondary_p50_ms", "ms", ms(res.socketP50[w.secondary]), counts[w.secondary])
	mset.add("server.starts_recovered", "count", recovered, 0)
	mset.add("durability.replayed_records", "count", replayed, 0)

	// Answer checks, on the raw answers kept during the window.
	e.tgt.Stop()
	ck := newChecker(cfg.maxDerive)
	ck.run(samples)
	res.failed += ck.wrong
	res.failures = append(res.failures, ck.failures...)
	mset.add("failed_share", "share", float64(res.failed)/float64(res.attempted), res.attempted)
	mset.add("client.answers_checked", "count", float64(ck.checked), 0)
	mset.add("client.answers_rederived", "count", float64(ck.derived), 0)
	mset.add("server.core_share", "share", coreShare(samples), 0)

	if cfg.trace {
		if err := tracedRun(ctx, &cfg, w, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// endToEndOps are the op types whose median is an end-to-end metric of the
// issue's table; every other series is a client.* diagnostic.
var endToEndOps = map[string]bool{
	"cycle": true, "repair_end": true, "repair_stage": true, "repair_step": true,
	"repair_independent": true, "repairs_k8": true, "update": true, "is_stable": true, "query": true,
}

func firstFailure(samples []sampled) string {
	for _, s := range samples {
		if s.status/100 != 2 {
			return fmt.Sprintf("%s %s → %d %s", s.o.method, s.o.path, s.status, s.body)
		}
	}
	return "transport error"
}

// coreShare is the executors' share of repair latency: Σ elapsed_us the
// kept /repair and /repair-all answers report, over Σ of what the same
// requests took on the socket.
func coreShare(samples []sampled) float64 {
	var elapsed, total float64
	for _, s := range samples {
		if s.status/100 != 2 || s.lat == 0 {
			continue
		}
		switch s.o.kind {
		case opRepairEnd, opRepairStage, opRepairStep, opRepairIndependent:
			var r server.RepairResponse
			if json.Unmarshal(s.body, &r) == nil {
				elapsed += float64(r.ElapsedUS)
				total += us(s.lat)
			}
		case opRepairAll:
			var r server.RepairAllResponse
			if json.Unmarshal(s.body, &r) == nil {
				for _, one := range r.Results {
					elapsed += float64(one.ElapsedUS)
				}
				total += us(s.lat)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return elapsed / total
}

// crashAndRecover is durable_updates' epilogue: bring both sessions to a
// version whose WAL tail holds 48 records, then kill and restart the server
// and time until one pinned read per session succeeds. The on-disk state
// does not change between rounds, so the rounds repeat one measurement.
func crashAndRecover(ctx context.Context, cfg *runConfig, e *env, res *runResult) (float64, error) {
	acked := make([]uint64, len(e.clients))
	for c, cl := range e.clients {
		s := e.w.sessions[c]
		// Registration is version 1 and compaction runs every 64 records,
		// so (v-1) mod 64 = 48 leaves 48 records to replay.
		for cl.lastUpdate.o.version == 0 || (cl.lastUpdate.o.version-1)%64 != 48 {
			next := 0
			if v := cl.lastUpdate.o.version; v != 0 {
				next = int(v) - 1
			}
			o := s.updateOp(next)
			res.attempted++
			status, err := cl.send(ctx, &o)
			if err != nil || status/100 != 2 {
				return 0, fmt.Errorf("advancing %s to a 48-record tail: status %d, %v", s.name, status, err)
			}
			cl.lastUpdate = cl.keep(&o, status, 0)
		}
		var got server.UpdateResult
		if err := decode(cl.lastUpdate.body, &got); err != nil {
			return 0, err
		}
		acked[c] = got.Version
	}
	var rounds []float64
	for k := 0; k < cfg.recoveries; k++ {
		start := time.Now()
		if err := e.tgt.Crash(); err != nil {
			return 0, fmt.Errorf("restart %d: %w", k, err)
		}
		for c, cl := range e.clients {
			cl.connect()
			cl.base = e.tgt.URL()
			o := e.w.sessions[c].repairOp(opRepairEnd, acked[c], true, "")
			res.attempted++
			if err := cl.must(ctx, o); err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("restart %d: acknowledged version %d lost: %v", k, acked[c], err))
			}
		}
		rounds = append(rounds, time.Since(start).Seconds())
		// Outside the timed part: the recovered head must be exactly the
		// last acknowledged version, no more and no less.
		var infos []server.SessionInfo
		if err := e.clients[0].must(ctx, op{method: "GET", path: "/v1/sessions"}); err != nil {
			return 0, err
		}
		if err := decode(e.clients[0].buf.Bytes(), &infos); err != nil {
			return 0, err
		}
		for c, s := range e.w.sessions {
			res.attempted++
			head := uint64(0)
			for _, info := range infos {
				if info.Name == s.name {
					head = info.Version
				}
			}
			if head != acked[c] {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("restart %d: %s recovered head %d, last acknowledged %d", k, s.name, head, acked[c]))
			}
		}
	}
	return medianFloat(rounds), nil
}
