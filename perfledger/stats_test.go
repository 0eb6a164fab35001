package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		bp     int
		v      float64
		beyond int
	}{{bpP50, 50, 50}, {bpP95, 95, 5}, {9900, 99, 1}, {10000, 100, 0}, {1, 1, 99}} {
		v, beyond := quantile(s, c.bp)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(1..100, %d) = %v with %d above, want %v with %d", c.bp, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := quantile(nil, bpP50); v != 0 || beyond != 0 {
		t.Errorf("quantile(nil) = %v, %d", v, beyond)
	}
}

// The reported tail needs at least ten samples above it: p95 becomes
// reportable at 200 samples and p99 at 1000.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ bp, n int }{{bpP95, 200}, {9900, 1000}, {9990, 10000}, {bpP50, 20}} {
		if got := minSamples(c.bp); got != c.n {
			t.Errorf("minSamples(%d) = %d, want %d", c.bp, got, c.n)
		}
		if supported(c.n-1, c.bp) || !supported(c.n, c.bp) {
			t.Errorf("supported(%d/%d, %d) disagrees with minSamples", c.n-1, c.n, c.bp)
		}
	}
}

func TestSummarizeReportsCounts(t *testing.T) {
	tm := summarize(seq(1000), "ms")
	if tm.n != 1000 || tm.p50 != 500 || tm.p95 != 950 || tm.p95Beyond != 50 {
		t.Errorf("summary = %+v", tm)
	}
	// p99.9 has a single sample above it, so p99 (ten above) is the highest.
	if tm.topBP != 9900 || tm.top != 990 || tm.topBeyond != 10 {
		t.Errorf("highest supported tail = p%d %v with %d above, want p9900 990 with 10", tm.topBP, tm.top, tm.topBeyond)
	}
	// Too few samples for any ladder percentile: none is reported.
	if tm := summarize(seq(50), "ms"); tm.topBP != 0 || len(tm.lines("x")) != 2 {
		t.Errorf("50 samples: top p%d, %d lines", tm.topBP, len(tm.lines("x")))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
