package main

import (
	"fmt"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have above
// it: a tail figure resting on fewer samples is one outlier away from a
// different number.
const minBeyond = 10

// Percentiles are given in basis points (1/100 of a percent) so that rank
// arithmetic stays in integers.
const (
	bpP50 = 5000
	bpP95 = 9500
)

// tailLadder is the set of percentiles the report chooses its highest
// supported tail from.
var tailLadder = []int{9000, 9500, 9900, 9990, 9999}

// quantile returns the nearest-rank percentile bp (in basis points) of
// sorted samples and how many samples lie above that rank.
func quantile(sorted []float64, bp int) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := rankOf(n, bp)
	return sorted[rank-1], n - rank
}

// rankOf is the 1-based nearest rank of percentile bp among n samples:
// ceil(bp·n / 10⁴), at least 1.
func rankOf(n, bp int) int {
	if rank := (bp*n + 9999) / 10000; rank > 1 {
		return rank
	}
	return 1
}

// supported reports whether percentile bp of n samples has at least
// minBeyond samples above it.
func supported(n, bp int) bool {
	return n > 0 && n-rankOf(n, bp) >= minBeyond
}

// minSamples returns the smallest sample count that supports percentile bp.
func minSamples(bp int) int {
	n := 1
	for !supported(n, bp) {
		n++
	}
	return n
}

// timing summarizes one latency distribution the way the benchmark reports
// every timing: the median, a fixed tail percentile, and the highest
// percentile of tailLadder that has at least minBeyond samples above it,
// each with the sample counts behind it.
type timing struct {
	n         int
	unit      string
	p50       float64
	p95       float64
	p95Beyond int
	topBP     int // 0 when no ladder percentile is supported
	top       float64
	topBeyond int
}

func summarize(samples []float64, unit string) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{n: len(s), unit: unit}
	t.p50, _ = quantile(s, bpP50)
	t.p95, t.p95Beyond = quantile(s, bpP95)
	for _, bp := range tailLadder {
		if v, beyond := quantile(s, bp); beyond >= minBeyond {
			t.topBP, t.top, t.topBeyond = bp, v, beyond
		}
	}
	return t
}

// lines renders the summary for the human-readable report.
func (t timing) lines(name string) []string {
	out := []string{
		fmt.Sprintf("  %-10s median %.4f %s (n=%d)", name, t.p50, t.unit, t.n),
		fmt.Sprintf("  %-10s p95 %.4f %s (n=%d, %d above)", "", t.p95, t.unit, t.n, t.p95Beyond),
	}
	if t.topBP > 0 && t.topBP != bpP95 {
		out = append(out, fmt.Sprintf("  %-10s p%s %.4f %s (highest percentile with >=%d above: n=%d, %d above)",
			"", bpString(t.topBP), t.top, t.unit, minBeyond, t.n, t.topBeyond))
	}
	return out
}

func bpString(bp int) string {
	if bp%100 == 0 {
		return fmt.Sprint(bp / 100)
	}
	return fmt.Sprintf("%g", float64(bp)/100)
}

// median returns the middle of the samples (the mean of the two middle ones
// for an even count).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
