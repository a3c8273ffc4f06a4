package main

import (
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var smokeScales = scales{masSmall: 0.01, masLarge: 0.01, tpch: 0.005}

// The same seed must give the same requests and another seed different ones.
func TestScheduleDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		hash := func(seed int64) uint64 {
			w, err := buildWorkload(name, seed, smokeScales)
			if err != nil {
				t.Fatal(err)
			}
			return w.scheduleHash(16)
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 hashed to %x and then to %x", name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// issueMetrics are the metrics the issue names that need fewer samples than
// a 99th percentile does; each must come out of at least one workload.
var issueMetrics = strings.Fields(`
	setup_s throughput_rps server_cpu_ms_per_req failed_share cycle_p50_ms
	repair_end_p50_ms repair_stage_p50_ms repair_step_p50_ms repair_independent_p50_ms
	repairs_k8_p50_ms update_p50_ms is_stable_p50_ms query_p50_ms recovery_s
	client.repair_replay_p50_ms client.repair_interacting_p50_ms client.register_p50_ms
	client.repair_all_p50_ms client.open_p50_ms client.open_late_ms`)

// Every workload completes against an in-process server at a small scale
// with no failed request and no wrong answer, and reports every metric
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var listedE2E, listedLayer []string
	for _, m := range bf.EndToEnd {
		listedE2E = append(listedE2E, m.Name)
	}
	for _, m := range bf.PerLayer {
		listedLayer = append(listedLayer, m.Name)
	}
	if strings.Join(listedE2E, " ") != strings.Join(endToEnd, " ") {
		t.Errorf("BENCHMARK.json end_to_end = %v, the harness prints %v", listedE2E, endToEnd)
	}
	if strings.Join(listedLayer, " ") != strings.Join(perLayer, " ") {
		t.Errorf("BENCHMARK.json per_layer = %v, the harness prints %v", listedLayer, perLayer)
	}
	var listedWorkloads []string
	for _, w := range bf.Workloads {
		listedWorkloads = append(listedWorkloads, w.Name)
	}
	if strings.Join(listedWorkloads, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads = %v, the harness has %v", listedWorkloads, workloadNames)
	}

	var mu sync.Mutex
	seen := make(map[string]bool)
	// The workloads run side by side: cold_repair_all's budget-truncated
	// searches cost a second per pass at any scale.
	t.Run("workloads", func(t *testing.T) {
		for _, name := range workloadNames {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				// Half of this is the socket window of a traced run; it must
				// hold the 8 iterations that cover every batch kind of
				// update_repair_stream (≈ 80 ms) with room for a loaded box.
				cfg := defaultConfig(1, time.Second)
				cfg.scales = smokeScales
				cfg.warmup = 0
				cfg.setups, cfg.setupBudget, cfg.recoveries = 1, 0, 1
				cfg.sampleEvery, cfg.maxDerive = 5, 4
				cfg.trace, cfg.traceScale = true, 8
				cfg.openLoop, cfg.openRate = 200*time.Millisecond, 200
				cfg.tmpDir = t.TempDir()
				cfg.newTarget = func(dataDir, _ string) (target, error) { return startInProcess(dataDir) }
				res, err := runWorkload(context.Background(), cfg, name)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%d of %d failed: %v", res.failed, res.attempted, res.failures)
				}
				mu.Lock()
				for _, m := range res.metrics.list {
					seen[m.name] = true
					if !metricName.MatchString(m.name) {
						t.Errorf("metric name %q", m.name)
					}
				}
				mu.Unlock()
				for _, wanted := range [][]string{endToEnd, perLayer} {
					line, err := resultLine(res, wanted)
					if err != nil {
						t.Error(err)
						continue
					}
					var back jsonResult
					if err := json.Unmarshal([]byte(line), &back); err != nil || len(back.Metrics) != len(wanted) {
						t.Errorf("result line %q: %v", line, err)
					}
				}
				if len(res.tables) == 0 || !strings.Contains(res.tables[0], name) {
					t.Error("no budget table")
				}
			})
		}
	})
	for _, m := range issueMetrics {
		if !seen[m] {
			t.Errorf("no workload reports %s", m)
		}
	}
}
