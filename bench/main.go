// Command cfbench is the service-level benchmark of the certain-fix
// service: it builds the real certainfixd from this checkout, boots it on
// loopback, drives whole fix sessions through it, checks every fix, and
// reports what a user of the service sees (end to end) and, in a separate
// traced run, what each layer under it costs. See README.md.
//
//	bash bench/run.sh -seed 1                # every workload, untraced then traced
//	bash bench/run.sh -seed 1 -repeat 2      # A/A self-check of the end-to-end metrics
//	bash bench/run.sh --workload hosp1k_fix --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with its result as one JSON line (default: every workload)")
		seed    = flag.Int64("seed", 1, "seed of datagen.Hosp and datagen.UpdateStorm, the only randomness")
		seconds = flag.Int("seconds", 15, "measured window in seconds; warm-up is a sixth of it")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced per-layer run instead of the end-to-end run")
		repeat  = flag.Int("repeat", 1, "run the end-to-end suite this many times and fail if two runs of the same code disagree beyond a metric's bound")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, repeat int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(root, buildDir)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed: seed, window: time.Duration(seconds) * time.Second, trace: trace,
		boots: boots, tail: minTail, root: root, buildDir: buildDir, bin: bin,
	}

	if name != "" {
		if cfg.wl, err = findWorkload(name); err != nil {
			return err
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		printResult(res)
		return printDriverLine(res)
	}

	var suites [][]*runResult
	for i := 0; i < repeat; i++ {
		var suite []*runResult
		for _, wl := range workloads {
			cfg.wl = wl
			for _, traced := range []bool{false, true} {
				if traced && repeat > 1 {
					continue // the self-check compares end-to-end metrics only
				}
				cfg.trace = traced
				res, err := runWorkload(cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				printResult(res)
				if !res.correct() {
					return fmt.Errorf("%s: %d of %d operations failed, first: %s", wl.name, res.Failed, res.Attempted, res.FirstErr)
				}
				suite = append(suite, res)
			}
		}
		suites = append(suites, suite)
	}
	out := filepath.Join(root, "bench", "out", "result.json")
	if err := writeJSON(out, suites); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	if repeat == 1 {
		for _, line := range budgets(suites[0]) {
			fmt.Println(line)
		}
		return nil
	}
	return selfCheck(suites)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printResult prints every metric by name with its unit, value and sample
// count, after the conditions it was measured under.
func printResult(res *runResult) {
	info, _ := json.Marshal(res.Info) // plain struct of numbers and strings
	fmt.Printf("== %s %s\n", res.Info.Workload, info)
	for _, m := range res.Metrics {
		fmt.Printf("%-42s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("attempted %d, failed %d", res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Printf(", first failure: %s", res.FirstErr)
	}
	fmt.Println()
}

// printDriverLine ends the output with the one JSON object a driver
// reads: an end-to-end run reports the gated metrics (BENCHMARK.json's
// end_to_end), a traced run everything else (its per_layer).
func printDriverLine(res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	gated := map[string]bool{}
	for _, d := range endToEnd {
		gated[d.name] = d.gated
	}
	for _, m := range res.Metrics {
		if res.Info.Trace != gated[m.Name] {
			line.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// selfCheck compares consecutive runs of the same code: an end-to-end
// metric that moves by more than its own bound between them is noise the
// bound cannot tell from a regression, and the count metrics of the
// read-only workloads must not move at all.
func selfCheck(suites [][]*runResult) error {
	var bad []string
	for i := 1; i < len(suites); i++ {
		for j, b := range suites[i] {
			a := suites[i-1][j]
			am, bm := metricSet{list: a.Metrics}, metricSet{list: b.Metrics}
			for _, d := range endToEnd {
				x, ok := am.get(d.name)
				if !ok {
					continue
				}
				y, _ := bm.get(d.name)
				// Counts repeat exactly, except on the storm, whose master
				// moves with the clock.
				exact := (d.unit == "count" || d.unit == "B") && readOnly(a.Info.Workload)
				switch diff := apart(x.Value, y.Value); {
				case exact && x.Value != y.Value:
					bad = append(bad, fmt.Sprintf("%s %s: %v then %v, must repeat exactly", a.Info.Workload, d.name, x.Value, y.Value))
				case diff > d.bound:
					bad = append(bad, fmt.Sprintf("%s %s: %.4f then %.4f %s, %.1f%% apart, bound %.0f%%",
						a.Info.Workload, d.name, x.Value, y.Value, d.unit, 100*diff, 100*d.bound))
				}
			}
		}
	}
	if len(bad) == 0 {
		fmt.Printf("self-check: %d runs of the same code agree on every end-to-end metric within its bound\n", len(suites))
		return nil
	}
	for _, line := range bad {
		fmt.Println("self-check:", line)
	}
	return fmt.Errorf("self-check: %d end-to-end metrics disagree between runs of the same code", len(bad))
}

func readOnly(name string) bool {
	wl, err := findWorkload(name)
	return err == nil && !wl.storm
}

// budgets reports, per traced run, whether the layers add up: the
// library's calls plus the HTTP overhead against the fix the client saw,
// the engine's calls against the library's Provide, and the share of a
// fix spent in suggest and fix.
func budgets(suite []*runResult) []string {
	var out []string
	for _, r := range suite {
		if !r.Info.Trace {
			continue
		}
		ms := metricSet{list: r.Metrics}
		v := func(name string) float64 { m, _ := ms.get(name); return m.Value }
		lib := v("certainfix.begin_us_per_fix") + v("certainfix.resume_us_per_fix") + v("certainfix.marshal_us_per_fix") +
			v("certainfix.provide_us_per_fix") + v("certainfix.result_us_per_fix") + v("certainfix.result_json_us_per_fix")
		engine := v("monitor.self_us_per_fix") + v("suggest.consistent_us_per_fix") + v("suggest.suggest_us_per_fix") + v("fix.transfix_us_per_fix")
		work := engine - v("monitor.self_us_per_fix")
		fix := v("certainfixd.fix_us_per_fix")
		out = append(out, fmt.Sprintf(
			"budget %s: HTTP fix %.0f us = certainfix.* %.0f + http overhead %.0f (%.0f%% accounted); "+
				"monitor+suggest+fix %.0f us vs certainfix.provide %.0f (%.0f%%); suggest+fix are %.0f%% of the HTTP fix",
			r.Info.Workload, fix, lib, v("certainfixd.http_overhead_us_per_fix"),
			100*(lib+v("certainfixd.http_overhead_us_per_fix"))/fix,
			engine, v("certainfix.provide_us_per_fix"), 100*engine/v("certainfix.provide_us_per_fix"), 100*work/fix))
	}
	return out
}
