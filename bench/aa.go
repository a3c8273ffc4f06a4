package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runAA runs two interleaved sets (A, B, A, B, ...) of n full runs of the
// same binary, run k of both sets with seed k+1, and prints per end-to-end
// metric and workload both medians, each set's quartile distance as a share
// of its median, and whether the pair stays inside the metric's bound —
// the check the driver applies before it accepts the benchmark. Series
// outside BENCHMARK.json are listed as diagnostics. With fewer than 8 runs
// per set the quartile distance is close to the range of the values and one
// run in a slow spell of the box decides it, so the spreads are printed but
// only the medians are judged.
func runAA(ctx context.Context, cfg runConfig, names []string, n int, root string) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	units := map[string]string{}
	for k := 0; k < n; k++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				c := cfg
				c.seed = int64(k + 1)
				res, err := runWorkload(ctx, c, name)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				if !res.correct() {
					printResult(res)
					return 1
				}
				for _, m := range res.metrics.list {
					if !strings.Contains(m.name, ".") { // every end-to-end series, by the issue's names too
						values[set][key{name, m.name}] = append(values[set][key{name, m.name}], m.value)
						units[m.name] = m.unit
					}
				}
				fmt.Fprintf(os.Stderr, "aa: pair %d set %c %s done\n", k+1, 'A'+set, name)
			}
		}
	}
	bounds, better := map[string]float64{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	keys := make([]key, 0, len(values[0]))
	for k := range values[0] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var b strings.Builder
	fmt.Fprintf(&b, "A/A: 2 x %d runs of the same binary, %d s windows\n", n, int(cfg.window.Seconds()))
	fmt.Fprintf(&b, "%-22s %-26s %-5s %12s %12s %9s %9s %8s %7s  %s\n",
		"workload", "metric", "unit", "median_A", "median_B", "spread_A", "spread_B", "B_vs_A", "bound", "verdict")
	ok := true
	for _, k := range keys {
		a, bb := values[0][k], values[1][k]
		if len(a) != n || len(bb) != n {
			continue // not reported by every run (a percentile short of samples)
		}
		q1a, medA, q3a := quartiles(a)
		q1b, medB, q3b := quartiles(bb)
		if medA == 0 {
			continue // failed_share: expected 0, gated by the failed count
		}
		spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
		worse := (medB - medA) / medA // positive = B is worse for lower-is-better
		if better[k.metric] == "higher" {
			worse = -worse
		}
		verdict := "diagnostic"
		bound, gated := bounds[k.metric]
		if gated {
			verdict = "pass"
			limit := bound
			if k.metric == "setup_s" {
				limit = 1 // set-up's spread is exempt; its medians are not
			}
			if spreadA > limit || spreadB > limit || worse > bound {
				verdict = "FAIL"
				ok = false
			} else if max(spreadA, spreadB) > bound/3 {
				verdict = "pass (spread above a third of the bound)"
			}
		}
		fmt.Fprintf(&b, "%-22s %-26s %-5s %12.5g %12.5g %8.2f%% %8.2f%% %+7.2f%% %6.0f%%  %s\n",
			k.workload, k.metric, units[k.metric], medA, medB, 100*spreadA, 100*spreadB, 100*worse, 100*bound, verdict)
	}
	fmt.Print(b.String())
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		_ = os.WriteFile(filepath.Join(cfg.outDir, "aa.txt"), []byte(b.String()), 0o644) // the table is already on stdout
	}
	if !ok {
		return 1
	}
	return 0
}
