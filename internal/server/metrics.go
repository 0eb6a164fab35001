package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/schedule"
)

// metrics holds the daemon's counters and latency histograms. All counters
// are monotonic totals in the Prometheus style; latencies live in
// fixed-bucket histogram families (obs.LatencyBuckets) labeled by endpoint
// and cache outcome, from which the legacy p50/p99 gauges are derived.
type metrics struct {
	requests       atomic.Int64 // every HTTP request seen
	inflight       atomic.Int64 // requests currently being served (gauge)
	scheduleReqs   atomic.Int64
	sweepReqs      atomic.Int64
	batchReqs      atomic.Int64 // /v1/schedule/batch requests
	batchLoops     atomic.Int64 // loops carried inside batch requests
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	bodyHits       atomic.Int64 // cache hits served off the parse-free body-hash index
	coalesced      atomic.Int64 // requests folded into an in-flight twin
	rejected       atomic.Int64 // 429 backpressure rejections
	badRequests    atomic.Int64 // 400s
	verifyFailures atomic.Int64 // schedules the Verify oracle rejected
	cacheFlushes   atomic.Int64 // cache wipes (epoch bumps)

	machineCacheHits   atomic.Int64 // parsed-machine cache hits
	machineCacheMisses atomic.Int64

	// Scheduler-internal work counters, summed over every computed
	// schedule: modulo-scheduling attempts (II values tried), the failed
	// ones by the reason that ended each, loops that fell back to list
	// scheduling, refinement transformations applied, and the refinement
	// candidate screen's per-stage tallies (see partition.Result).
	scheduleAttempts atomic.Int64
	attemptFailures  [schedule.NumFailReasons]atomic.Int64
	listFallbacks    atomic.Int64
	refineMoves      atomic.Int64
	screenLB         atomic.Int64
	screenExact      atomic.Int64
	screenFull       atomic.Int64

	// durations is gpserved_request_duration_seconds{endpoint,cache}; the
	// hot-path cells are resolved once here. Body-hash hits count as
	// cache="hit" — the finer split stays in cache_body_hits_total.
	durations *obs.Vec
	schedHit  *obs.Histogram
	schedMiss *obs.Histogram
	batchHit  *obs.Histogram
	batchMiss *obs.Histogram
	sweepDur  *obs.Histogram
}

// init wires the histogram families; must run before any observation.
func (m *metrics) init() {
	m.durations = obs.NewVec()
	m.schedHit = m.durations.With(`endpoint="schedule",cache="hit"`)
	m.schedMiss = m.durations.With(`endpoint="schedule",cache="miss"`)
	m.batchHit = m.durations.With(`endpoint="batch",cache="hit"`)
	m.batchMiss = m.durations.With(`endpoint="batch",cache="miss"`)
	m.sweepDur = m.durations.With(`endpoint="sweep",cache="none"`)
}

// quantiles returns the p50 and p99 across every endpoint and outcome —
// derived from the shared-layout buckets, replacing the old sorted ring.
func (m *metrics) quantiles() (p50, p99 time.Duration) {
	return m.durations.Quantile(0.50), m.durations.Quantile(0.99)
}

// workerGauges is the lint allowlist for gpserved metric names that are
// neither counters nor histogram series. The metrics test and the smoke
// observability phase check /metrics against it.
var workerGauges = map[string]bool{
	"gpserved_cache_entries":       true,
	"gpserved_algo_epoch":          true,
	"gpserved_inflight":            true,
	"gpserved_queue_depth":         true,
	"gpserved_latency_p50_seconds": true,
	"gpserved_latency_p99_seconds": true,
}

// render writes the metrics in the Prometheus text exposition format.
func (m *metrics) render(w io.Writer, queueDepth, cacheEntries int, epoch uint64) {
	p50, p99 := m.quantiles()
	fmt.Fprintf(w, "gpserved_requests_total %d\n", m.requests.Load())
	fmt.Fprintf(w, "gpserved_schedule_requests_total %d\n", m.scheduleReqs.Load())
	fmt.Fprintf(w, "gpserved_sweep_requests_total %d\n", m.sweepReqs.Load())
	fmt.Fprintf(w, "gpserved_batch_requests_total %d\n", m.batchReqs.Load())
	fmt.Fprintf(w, "gpserved_batch_loops_total %d\n", m.batchLoops.Load())
	fmt.Fprintf(w, "gpserved_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "gpserved_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(w, "gpserved_cache_body_hits_total %d\n", m.bodyHits.Load())
	fmt.Fprintf(w, "gpserved_machine_cache_hits_total %d\n", m.machineCacheHits.Load())
	fmt.Fprintf(w, "gpserved_machine_cache_misses_total %d\n", m.machineCacheMisses.Load())
	fmt.Fprintf(w, "gpserved_cache_entries %d\n", cacheEntries)
	fmt.Fprintf(w, "gpserved_cache_flushes_total %d\n", m.cacheFlushes.Load())
	fmt.Fprintf(w, "gpserved_algo_epoch %d\n", epoch)
	fmt.Fprintf(w, "gpserved_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "gpserved_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "gpserved_bad_requests_total %d\n", m.badRequests.Load())
	fmt.Fprintf(w, "gpserved_verify_failures_total %d\n", m.verifyFailures.Load())
	fmt.Fprintf(w, "gpserved_schedule_attempts_total %d\n", m.scheduleAttempts.Load())
	for r := schedule.FailNone + 1; r < schedule.NumFailReasons; r++ {
		fmt.Fprintf(w, "gpserved_attempt_failures_total{reason=%q} %d\n", r, m.attemptFailures[r].Load())
	}
	fmt.Fprintf(w, "gpserved_list_fallbacks_total %d\n", m.listFallbacks.Load())
	fmt.Fprintf(w, "gpserved_refine_moves_total %d\n", m.refineMoves.Load())
	fmt.Fprintf(w, "gpserved_refine_screen_total{stage=\"lower_bound\"} %d\n", m.screenLB.Load())
	fmt.Fprintf(w, "gpserved_refine_screen_total{stage=\"exact_t\"} %d\n", m.screenExact.Load())
	fmt.Fprintf(w, "gpserved_refine_screen_total{stage=\"full_eval\"} %d\n", m.screenFull.Load())
	fmt.Fprintf(w, "gpserved_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(w, "gpserved_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "gpserved_latency_p50_seconds %g\n", p50.Seconds())
	fmt.Fprintf(w, "gpserved_latency_p99_seconds %g\n", p99.Seconds())
	m.durations.Write(w, "gpserved_request_duration_seconds")
}
