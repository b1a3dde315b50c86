package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the p-quantile of sorted by nearest rank: the
// smallest sample that has at least a share p of all samples at or below
// it. Above the median it refuses when fewer than tail samples lie beyond
// the chosen one, so a p99 is never read off a handful of values.
func percentile(sorted []float64, p float64, tail int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if beyond := n - 1 - i; p > 0.5 && beyond < tail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, tail)
	}
	return sorted[i], nil
}

// sample is one timed operation and when it completed.
type sample struct {
	at time.Time
	d  time.Duration
}

func durations(xs []sample) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}

// maxSlices is how many equal parts a window is cut into.
const maxSlices = 5

// slices cuts the window starting at from into k equal parts and returns
// the samples of each. A sample completing just past the window's end
// belongs to the last part.
func slices(xs []sample, from time.Time, window time.Duration, k int) [][]time.Duration {
	out := make([][]time.Duration, k)
	for _, x := range xs {
		i := int(int64(x.at.Sub(from)) * int64(k) / int64(window))
		i = max(0, min(i, k-1))
		out[i] = append(out[i], x.d)
	}
	return out
}

// slicedPercentile is the p-quantile of a window that shares its host:
// the quantile of each slice of the window, and of those the median. A
// neighbour's burst, or this benchmark's own collector, inflates the
// slices it hits and leaves the median slice alone, where a quantile over
// the whole window would take every disturbed sample into its tail. The
// window is cut into as many slices, at most maxSlices, as leave each of
// them the samples the quantile needs.
func slicedPercentile(xs []sample, p float64, from time.Time, window time.Duration, tail int) (float64, error) {
	for k := maxSlices; ; k-- {
		per, err := slicePercentiles(slices(xs, from, window, k), p, tail)
		if err == nil {
			return median(per), nil
		}
		if k == 1 {
			return 0, err
		}
	}
}

// slicePercentiles is the p-quantile of every slice, or the first refusal.
func slicePercentiles(parts [][]time.Duration, p float64, tail int) ([]float64, error) {
	per := make([]float64, len(parts))
	for i, part := range parts {
		ds := make([]float64, len(part))
		for j, d := range part {
			ds[j] = float64(d)
		}
		sort.Float64s(ds)
		v, err := percentile(ds, p, tail)
		if err != nil {
			return nil, err
		}
		per[i] = v
	}
	return per, nil
}

// slicedRate is completions per second: the median slice's.
func slicedRate(xs []sample, from time.Time, window time.Duration) float64 {
	per := make([]float64, 0, maxSlices)
	for _, part := range slices(xs, from, window, maxSlices) {
		per = append(per, float64(len(part))*float64(maxSlices)/window.Seconds())
	}
	return median(per)
}

// median is percentile 0.5 of an unsorted sample (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	v, err := percentile(xs, 0.5, 0)
	if err != nil {
		return 0
	}
	return v
}

// ratio is a/b, and 0 when b is 0: a per-fix average over no fixes.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// apart is how far b lies from a, as a share of a.
func apart(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}
