package main

import (
	"fmt"
	"sort"
	"time"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name, why  string
	masterSize int  // |Dm|
	arena      bool // boot from a -master-snapshot image, not from the CSV
	storm      bool // durable authenticated leader, updates beside the fixes
	clients    int  // closed-loop fix clients
}

// Clients and the updater never add up to more connections than the two
// cores this benchmark was sized on.
var workloads = []workload{
	{
		name: "hosp100k_fix", masterSize: 100_000, clients: 2,
		why: "|Dm|=100k heap-built from CSV, read-only, 2 closed-loop clients: the engine and master probes do most of the work, WAL/authtree/ApplyDelta none",
	},
	{
		name: "hosp1k_fix", masterSize: 1000, clients: 2,
		why: "same traffic at |Dm|=1k: engine work shrinks ~10x so HTTP, JSON and token resume dominate; a master-index change must not move it",
	},
	{
		name: "hosp100k_arena", masterSize: 100_000, arena: true, clients: 2,
		why: "same traffic as hosp100k_fix, server booted from a -master-snapshot arena: frozen tables over mmap instead of Go maps, set-up is page-in",
	},
	{
		name: "hosp100k_storm", masterSize: 100_000, storm: true, clients: 1,
		why: "-wal-dir -fsync always -auth leader: 1 fix client beside a 50 batches/s open-loop updater, parked sessions resumed on retained and evicted epochs, then SIGKILL and recovery",
	},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	boots          = 3                     // set-ups per run, more when they are quick; setup_s is their median
	updateInterval = 20 * time.Millisecond // 50 update batches a second
	checkpointN    = 256                   // -checkpoint-every on the storm leader
)

// metricDef names an end-to-end metric, its unit and which way is better.
// bound is the share of the earlier value by which a later run may be
// worse before -repeat calls it a regression. The gated ones are
// BENCHMARK.json's end_to_end list, with the same bounds: what every
// workload reports, is never 0, and repeats on a shared host to within a
// third of its bound. The others (timings, which this host moves by a
// fifth from one minute to the next, and what only the storm has) are
// printed by every run and listed under per_layer there, where a traced
// run reports them without a bound.
type metricDef struct {
	name, unit  string
	lowerBetter bool
	bound       float64
	gated       bool
	stormOnly   bool
}

// endToEnd lists what a user of the service sees. failed_frac is reported
// with them but has no bound to compare against: it must be 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25, gated: true},
	{name: "fixes_per_s", unit: "1/s", bound: 0.25},
	{name: "fix_p50_ms", unit: "ms", lowerBetter: true, bound: 0.25},
	{name: "fix_p99_ms", unit: "ms", lowerBetter: true, bound: 0.25},
	{name: "answer_p50_ms", unit: "ms", lowerBetter: true, bound: 0.25},
	{name: "answer_p99_ms", unit: "ms", lowerBetter: true, bound: 0.25},
	{name: "rss_mb", unit: "MB", lowerBetter: true, bound: 0.20, gated: true},
	{name: "wire_bytes_per_fix", unit: "B", lowerBetter: true, bound: 0.10, gated: true},
	{name: "user_attrs_per_fix", unit: "count", lowerBetter: true, bound: 0.15, gated: true},
	{name: "rounds_per_fix", unit: "count", lowerBetter: true, bound: 0.10, gated: true},
	{name: "update_p50_ms", unit: "ms", lowerBetter: true, bound: 0.25, stormOnly: true},
	{name: "update_p95_ms", unit: "ms", lowerBetter: true, bound: 0.25, stormOnly: true},
	{name: "recover_s", unit: "s", lowerBetter: true, bound: 0.25, stormOnly: true},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// metricSet collects a run's metrics in the order they were measured.
type metricSet struct {
	list []metric
	err  error // the first percentile that could not be reported
}

func (m *metricSet) add(name, unit string, value float64, n int) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: value, N: n})
}

// timing adds the p-quantile of the durations in the given unit.
func (m *metricSet) timing(name string, ds []time.Duration, p float64, unit time.Duration, tail int) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	v, err := percentile(xs, p, tail)
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("%s: %w", name, err)
	}
	m.add(name, unitName(unit), v, len(xs))
}

// sliced adds the median slice's p-quantile of a window's samples.
func (m *metricSet) sliced(name string, xs []sample, p float64, unit time.Duration, from time.Time, window time.Duration, tail int) {
	v, err := slicedPercentile(xs, p, from, window, tail)
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("%s: %w", name, err)
	}
	m.add(name, unitName(unit), v/float64(unit), len(xs))
}

func unitName(u time.Duration) string {
	switch u {
	case time.Second:
		return "s"
	case time.Millisecond:
		return "ms"
	case time.Microsecond:
		return "us"
	}
	return "ns"
}

func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}
