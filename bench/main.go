// Command bench is the socket-to-socket benchmark for deltarepaird: it
// builds the daemon, starts it as a separate process on a loopback port,
// drives it from this one load-generator process, checks the answers and
// prints every metric by name. See README.md.
//
//	bash bench/run.sh                                   all four workloads
//	bash bench/run.sh --workload cached_reads --seed 7  one workload
//	bash bench/run.sh --workload cached_reads --trace 1 its traced run
//	bash bench/run.sh -aa 3                             A/A study
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// endToEnd lists, in BENCHMARK.json's order, the metrics a run prints with
// --trace 0. The driver wants every one of them from every workload, so
// they are the ones all four workloads have; each workload's own latency
// series (update_p50_ms, query_p50_ms, ...) are printed above the result
// line under the issue's names, and primary/secondary name two of them.
var endToEnd = []string{"setup_s", "throughput_rps", "server_cpu_ms_per_req", "primary_p50_ms", "secondary_p50_ms"}

// perLayer lists the metrics a run prints with --trace 1.
var perLayer = []string{
	"client.build_s", "client.requests", "client.cpu_share", "client.response_bytes_per_req",
	"client.answers_checked", "client.answers_rederived",
	"daemon.peak_rss_mb", "daemon.data_dir_mb",
	"transport.self_us",
	"http.self_us", "http.decode_us", "http.encode_us", "http.request_bytes", "http.response_bytes",
	"server.self_us", "server.core_share", "server.register_ms", "server.requests_ok", "server.requests_error",
	"server.starts_cold", "server.starts_warm", "server.starts_recovered",
	"engine.load_ms", "engine.freeze_ms", "engine.index_build_ms", "engine.fork_us", "engine.apply_us",
	"engine.apply_rows_refrozen_per_row_changed", "engine.snapshot_save_ms", "engine.snapshot_load_ms",
	"datalog.parse_us", "datalog.prepare_us",
	"core.eval_us", "core.processprov_us", "core.traverse_us", "core.update_us",
	"core.cold_end_ms", "core.cold_stage_ms", "core.cold_step_ms", "core.cold_independent_ms",
	"core.warm_saved_share", "core.rounds", "core.repair_size",
	"provenance.clauses", "provenance.graph_assignments",
	"sat.solve_us", "sat.nodes", "sat.truncated_share", "sat.enum_k8_ms",
	"cqa.answer_us", "cqa.certain_rows", "cqa.possible_rows",
	"durability.append_us", "durability.append_nofsync_us", "durability.compact_ms", "durability.recover_ms",
	"durability.wal_appends", "durability.compactions", "durability.replayed_records", "durability.bytes_per_user_byte",
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the datasets and the update batches")
		seconds  = flag.Int("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and the budget table")
		aa       = flag.Int("aa", 0, "A/A study: two interleaved sets of this many runs of the same binary")
		port     = flag.Int("port", 0, "loopback port for the daemon (0 = pick a free one)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [-aa n] [-port p]")
		return 2
	}

	// Every exit path — a failed check, an error, SIGINT — returns through
	// here, so the deferred clean-up always kills the daemon and removes
	// the temp directories.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	buildDir := filepath.Join(root, ".bench_build")
	tmpDir, err := makeTmp(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmpDir)

	bin, buildTime, err := buildDaemon(ctx, root, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second)
	cfg.trace = *trace == 1
	cfg.tmpDir = tmpDir
	cfg.outDir = filepath.Join(root, "bench", "out")
	cfg.buildS = buildTime.Seconds()
	cfg.newTarget = func(dataDir, logPath string) (target, error) {
		return startDaemon(bin, dataDir, logPath, *port)
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	if *aa > 0 {
		return runAA(ctx, cfg, names, *aa, root)
	}
	failed := false
	for _, name := range names {
		res, err := runWorkload(ctx, cfg, name)
		if err != nil {
			// No result line: the driver must not take a broken run for a
			// measurement.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printResult(res)
		if err := writeResult(cfg.outDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		failed = failed || !res.correct()
		if *workload != "" {
			wanted := endToEnd
			if cfg.trace {
				wanted = perLayer
			}
			line, err := resultLine(res, wanted)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println(line)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// makeTmp creates this run's scratch directory inside the checkout.
func makeTmp(buildDir string) (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-*")
}

// printResult prints every metric of a run as "name unit value", timings
// with their sample count, then the budget tables and any failed checks.
func printResult(res *runResult) {
	fmt.Printf("== workload %s ==\n", res.workload)
	for _, m := range res.metrics.list {
		if m.n > 0 {
			fmt.Printf("%s %s %.6g n=%d\n", m.name, m.unit, m.value, m.n)
		} else {
			fmt.Printf("%s %s %.6g\n", m.name, m.unit, m.value)
		}
	}
	for _, t := range res.tables {
		fmt.Print(t)
	}
	fmt.Printf("checks: attempted %d, failed %d\n", res.attempted, res.failed)
	for i, f := range res.failures {
		if i == 10 {
			fmt.Printf("FAILED ... and %d more\n", len(res.failures)-10)
			break
		}
		fmt.Println("FAILED", f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine is the one JSON object the driver reads from the last line.
func resultLine(res *runResult, wanted []string) (string, error) {
	out := jsonResult{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]jsonMetric)}
	for _, name := range wanted {
		m, ok := res.metrics.get(name)
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.workload, name)
		}
		out.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeResult keeps a run's full metric list under bench/out/.
func writeResult(outDir string, res *runResult) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	all := make([]string, 0, len(res.metrics.list))
	for _, m := range res.metrics.list {
		all = append(all, m.name)
	}
	line, err := resultLine(res, all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result-"+res.workload+".json"), []byte(line+"\n"), 0o644)
}
