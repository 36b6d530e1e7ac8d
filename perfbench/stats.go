package main

import (
	"math"
	"sort"
	"time"
)

// pct returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0 for an
// empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// latencyMetrics reports the median and a tail percentile of a latency
// sample, in milliseconds, under the given metric names.
func (b *bench) latencyMetrics(set func(string, string, float64, int), p50, tail string, tailP float64, lat []time.Duration) {
	xs := msList(lat)
	set(p50, "ms", median(xs), len(xs))
	set(tail, "ms", pct(xs, tailP), len(xs))
}

// readMetrics reports the heat-batch read latencies: the median end to end,
// and the median, p90 and p99 among the workload's own metrics. Only the
// median is gated: on two shared cores the read tail moves with the other
// work on the machine by more than any bound a regression gate could use
// (see README.md).
func (b *bench) readMetrics(lat []time.Duration) {
	xs := msList(lat)
	b.setE2E("read_p50_ms", "ms", median(xs), len(xs))
	b.setNamed("read_p50_ms", "ms", median(xs), len(xs))
	b.setNamed("read_p90_ms", "ms", pct(xs, 0.90), len(xs))
	b.setNamed("read_p99_ms", "ms", pct(xs, 0.99), len(xs))
}
