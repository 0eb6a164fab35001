package cluster

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// metrics holds the coordinator's counters, Prometheus-style monotonic
// totals. Per-node request/failure counters and the health gauges live on
// the registry and are rendered from its snapshot.
type metrics struct {
	requests     atomic.Int64 // every HTTP request seen
	scheduleReqs atomic.Int64
	batchReqs    atomic.Int64 // /v1/schedule/batch requests
	batchLoops   atomic.Int64 // loops fanned out from batch requests
	// batchForwards counts sub-batches forwarded to workers, failover
	// rounds included: over batchReqs, the worker round trips per batch.
	batchForwards atomic.Int64
	placements    atomic.Int64 // successful placement decisions
	spills        atomic.Int64 // placements bounded-load moved off the HRW owner
	retries       atomic.Int64 // re-placements after a worker 429/503
	failovers     atomic.Int64 // re-placements after a worker failure
	noCapacity    atomic.Int64 // requests shed because no node was placeable
	badRequests   atomic.Int64

	// placeTransitions counts every placement-protocol edge taken,
	// [from][to]-indexed; placeInvalid counts refused illegal edges.
	placeTransitions [placeStates][placeStates]atomic.Int64
	placeInvalid     atomic.Int64

	schemaRefusals atomic.Int64 // register/heartbeat refused for a mixed wire schema
	drainFlips     atomic.Int64 // operator drain/undrain requests applied

	jobsCreated      atomic.Int64
	jobsDone         atomic.Int64
	jobsFailed       atomic.Int64
	cellsDone        atomic.Int64
	cellsRequeued    atomic.Int64 // cell attempts redone on another node
	reconcilePlaced  atomic.Int64 // cells canceled off dead nodes by the reconciler
	exclusionsResets atomic.Int64 // cells that exhausted the fleet and started over

	storeErrors   atomic.Int64 // best-effort persistence failures
	nodesAdopted  atomic.Int64 // nodes adopted from the journal at startup
	jobsResumed   atomic.Int64 // unfinished jobs re-dispatched at startup
	cellsRestored atomic.Int64 // done cells restored from the journal, not recomputed

	cacheFlushes    atomic.Int64 // fleet cache-flush fan-outs
	versionRefusals atomic.Int64 // placements refused to avoid mixing algorithm versions in a job
	shadowSampled   atomic.Int64 // schedule responses replayed against a shadow worker
	shadowMismatch  atomic.Int64 // shadow replays whose bytes diverged

	// durations is gpcoordd_request_duration_seconds{endpoint,outcome}: the
	// proxy path's latency histograms over the fleet-shared bucket layout
	// (obs.LatencyBuckets), from which the p50/p99 gauges are derived.
	// Outcomes classify how placement resolved: owner (served by the HRW
	// owner), spill (bounded load moved it), failover (at least one worker
	// failed first), and the terminal failures.
	durations *obs.Vec

	// spillClasses tracks which key classes (first 8 hex chars of the
	// content-address key) spill most, as a space-saving top-K counter so
	// gpcoordd_spills_total{key_class=...} stays bounded-cardinality no
	// matter how many distinct keys pass through.
	spillClasses *obs.TopK
}

// spillClassK bounds the labeled spill series; spillClassLen is the key
// prefix used as the class label.
const (
	spillClassK   = 8
	spillClassLen = 8
)

// keyClass is the low-cardinality spill-attribution label for a
// content-address key.
func keyClass(key string) string {
	if len(key) > spillClassLen {
		return key[:spillClassLen]
	}
	return key
}

// init wires the histogram family and the spill-class counter; must run
// before any observation.
func (m *metrics) init() {
	m.durations = obs.NewVec()
	m.spillClasses = obs.NewTopK(spillClassK)
}

// observe records one proxied request's duration under its endpoint and
// placement outcome.
func (m *metrics) observe(endpoint, outcome string, d time.Duration) {
	m.durations.With(fmt.Sprintf("endpoint=%q,outcome=%q", endpoint, outcome)).Observe(d)
}

// coordGauges is the lint allowlist for gpcoordd metric names that are
// neither counters nor histogram series. The metrics test and the smoke
// observability phase check /metrics against it.
var coordGauges = map[string]bool{
	"gpcoordd_jobs_running":            true,
	"gpcoordd_fleet_epoch":             true,
	"gpcoordd_recovery_nodes_adopted":  true,
	"gpcoordd_recovery_jobs_resumed":   true,
	"gpcoordd_recovery_cells_restored": true,
	"gpcoordd_nodes":                   true,
	"gpcoordd_node_health":             true,
	"gpcoordd_node_epoch":              true,
	"gpcoordd_node_inflight":           true,
	"gpcoordd_node_draining":           true,
	"gpcoordd_latency_p50_seconds":     true,
	"gpcoordd_latency_p99_seconds":     true,
}

// render writes the coordinator metrics in the Prometheus text exposition
// format, including one health gauge (0 ready / 1 suspect / 2 dead) and the
// routed/failed counters per registered node, plus the store's write and
// replay traffic.
func (m *metrics) render(w io.Writer, nodes []NodeInfo, jobsRunning int, epoch uint64, st store.Stats) {
	fmt.Fprintf(w, "gpcoordd_requests_total %d\n", m.requests.Load())
	fmt.Fprintf(w, "gpcoordd_schedule_requests_total %d\n", m.scheduleReqs.Load())
	fmt.Fprintf(w, "gpcoordd_batch_requests_total %d\n", m.batchReqs.Load())
	fmt.Fprintf(w, "gpcoordd_batch_loops_total %d\n", m.batchLoops.Load())
	fmt.Fprintf(w, "gpcoordd_batch_forwards_total %d\n", m.batchForwards.Load())
	fmt.Fprintf(w, "gpcoordd_placements_total %d\n", m.placements.Load())
	// The unlabeled total renders first — existing scrapers (and the smoke
	// script's sed) parse it positionally — then the bounded top-K key-class
	// attribution as labeled series of the same family.
	fmt.Fprintf(w, "gpcoordd_spills_total %d\n", m.spills.Load())
	for _, e := range m.spillClasses.Snapshot() {
		fmt.Fprintf(w, "gpcoordd_spills_total{key_class=%q} %d\n", e.Key, e.Count)
	}
	for from := placementState(0); from < placeStates; from++ {
		for to := placementState(0); to < placeStates; to++ {
			if n := m.placeTransitions[from][to].Load(); n > 0 {
				fmt.Fprintf(w, "gpcoordd_placement_transitions_total{from=%q,to=%q} %d\n", from.String(), to.String(), n)
			}
		}
	}
	if n := m.placeInvalid.Load(); n > 0 {
		fmt.Fprintf(w, "gpcoordd_placement_invalid_transitions_total %d\n", n)
	}
	fmt.Fprintf(w, "gpcoordd_schema_refusals_total %d\n", m.schemaRefusals.Load())
	fmt.Fprintf(w, "gpcoordd_drain_flips_total %d\n", m.drainFlips.Load())
	fmt.Fprintf(w, "gpcoordd_retries_total %d\n", m.retries.Load())
	fmt.Fprintf(w, "gpcoordd_failovers_total %d\n", m.failovers.Load())
	fmt.Fprintf(w, "gpcoordd_no_capacity_total %d\n", m.noCapacity.Load())
	fmt.Fprintf(w, "gpcoordd_bad_requests_total %d\n", m.badRequests.Load())
	fmt.Fprintf(w, "gpcoordd_jobs_created_total %d\n", m.jobsCreated.Load())
	fmt.Fprintf(w, "gpcoordd_jobs_done_total %d\n", m.jobsDone.Load())
	fmt.Fprintf(w, "gpcoordd_jobs_failed_total %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "gpcoordd_jobs_running %d\n", jobsRunning)
	fmt.Fprintf(w, "gpcoordd_cells_done_total %d\n", m.cellsDone.Load())
	fmt.Fprintf(w, "gpcoordd_cells_requeued_total %d\n", m.cellsRequeued.Load())
	fmt.Fprintf(w, "gpcoordd_reconcile_replacements_total %d\n", m.reconcilePlaced.Load())
	fmt.Fprintf(w, "gpcoordd_exclusion_resets_total %d\n", m.exclusionsResets.Load())
	fmt.Fprintf(w, "gpcoordd_fleet_epoch %d\n", epoch)
	fmt.Fprintf(w, "gpcoordd_cache_flushes_total %d\n", m.cacheFlushes.Load())
	fmt.Fprintf(w, "gpcoordd_version_refusals_total %d\n", m.versionRefusals.Load())
	fmt.Fprintf(w, "gpcoordd_shadow_sampled_total %d\n", m.shadowSampled.Load())
	fmt.Fprintf(w, "gpcoordd_shadow_mismatch_total %d\n", m.shadowMismatch.Load())
	fmt.Fprintf(w, "gpcoordd_store_appends_total %d\n", st.Appends)
	fmt.Fprintf(w, "gpcoordd_store_appended_bytes_total %d\n", st.AppendedBytes)
	fmt.Fprintf(w, "gpcoordd_store_compactions_total %d\n", st.Compactions)
	fmt.Fprintf(w, "gpcoordd_store_replayed_records_total %d\n", st.ReplayedRecords)
	fmt.Fprintf(w, "gpcoordd_store_truncated_bytes_total %d\n", st.TruncatedBytes)
	fmt.Fprintf(w, "gpcoordd_store_errors_total %d\n", m.storeErrors.Load())
	fmt.Fprintf(w, "gpcoordd_recovery_nodes_adopted %d\n", m.nodesAdopted.Load())
	fmt.Fprintf(w, "gpcoordd_recovery_jobs_resumed %d\n", m.jobsResumed.Load())
	fmt.Fprintf(w, "gpcoordd_recovery_cells_restored %d\n", m.cellsRestored.Load())
	fmt.Fprintf(w, "gpcoordd_nodes %d\n", len(nodes))
	for _, n := range nodes {
		health := 0
		switch n.State {
		case NodeSuspect.String():
			health = 1
		case NodeDead.String():
			health = 2
		}
		fmt.Fprintf(w, "gpcoordd_node_health{node=%q} %d\n", n.ID, health)
		fmt.Fprintf(w, "gpcoordd_node_requests_total{node=%q} %d\n", n.ID, n.Requests)
		fmt.Fprintf(w, "gpcoordd_node_failures_total{node=%q} %d\n", n.ID, n.Failures)
		fmt.Fprintf(w, "gpcoordd_node_epoch{node=%q} %d\n", n.ID, n.Epoch)
		fmt.Fprintf(w, "gpcoordd_node_inflight{node=%q} %d\n", n.ID, n.Inflight)
		if n.SpillOut > 0 {
			fmt.Fprintf(w, "gpcoordd_node_spill_out_total{node=%q} %d\n", n.ID, n.SpillOut)
		}
		if n.SpillIn > 0 {
			fmt.Fprintf(w, "gpcoordd_node_spill_in_total{node=%q} %d\n", n.ID, n.SpillIn)
		}
		if n.Draining {
			fmt.Fprintf(w, "gpcoordd_node_draining{node=%q} 1\n", n.ID)
		}
	}
	fmt.Fprintf(w, "gpcoordd_latency_p50_seconds %g\n", m.durations.Quantile(0.50).Seconds())
	fmt.Fprintf(w, "gpcoordd_latency_p99_seconds %g\n", m.durations.Quantile(0.99).Seconds())
	m.durations.Write(w, "gpcoordd_request_duration_seconds")
}
