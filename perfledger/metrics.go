package main

// metricDef is one end-to-end metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	bound float64
}

// endToEnd lists the end-to-end metrics every workload reports in an
// untraced run. An operation is one compilation on the compile workloads
// and one HTTP request on fleet-zipf; every time is CPU time, scaled by
// the run's calibration (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"ipc", "ops/cycle", "higher", 0.001},
}

// layerDef is one per-layer metric of the traced run together with its
// row of the interaction table: the end-to-end metric it should move, the
// workloads where its layer does the work, and those where no change is
// predicted.
type layerDef struct {
	name, unit, better string
	moves              string
	works              string
	noChange           string
}

const (
	compileWorkloads = "specfp-paper, dsp-sweep"
	fleetWorkload    = "fleet-zipf"
)

var perLayer = []layerDef{
	{"schedule.attempts", "count", "lower", "ops_per_s; p50_ms on dsp-sweep", compileWorkloads, fleetWorkload},
	{"schedule.busy_ms", "ms", "lower", "ops_per_s; p50_ms on dsp-sweep", compileWorkloads, fleetWorkload},
	{"schedule.us_per_attempt", "us", "lower", "ops_per_s; p50_ms on dsp-sweep", compileWorkloads, fleetWorkload},
	{"schedule.modulo_ratio", "ratio", "higher", "ops_per_s; p50_ms on dsp-sweep", compileWorkloads, fleetWorkload},
	{"schedule.list_fallbacks", "count", "lower", "count guard", compileWorkloads, fleetWorkload},
	{"core.residual_ms", "ms", "lower", "guard (under 0.1% of a pass)", compileWorkloads, fleetWorkload},
	{"partition.calls", "count", "lower", "p50_ms, p95_ms; ~15% of ops_per_s", "specfp-paper", "URACAM half of dsp-sweep, fleet-zipf"},
	{"partition.busy_ms", "ms", "lower", "p50_ms, p95_ms; ~15% of ops_per_s", "specfp-paper", "URACAM half of dsp-sweep, fleet-zipf"},
	{"partition.us_per_call", "us", "lower", "p50_ms, p95_ms; ~15% of ops_per_s", "specfp-paper", "URACAM half of dsp-sweep, fleet-zipf"},
	{"partition.refine_moves", "count", "lower", "p50_ms, p95_ms; ~15% of ops_per_s", "specfp-paper", "URACAM half of dsp-sweep, fleet-zipf"},
	{"ddg.mii_us", "us", "lower", "none (under 0.1%), regression guard", compileWorkloads, fleetWorkload},
	{"ddgio.decode_us", "us", "lower", "p50_ms on dsp-sweep (~1% of a small loop)", "dsp-sweep", "fleet-zipf (body-hash hits never parse)"},
	{"machine.parse_us", "us", "lower", "p50_ms on dsp-sweep (~1% of a small loop)", "dsp-sweep", "fleet-zipf (body-hash hits never parse)"},
	{"schedule.verify_us", "us", "lower", "none (under 0.3%)", compileWorkloads, fleetWorkload},
	{"core.alloc_kb_per_loop", "KiB", "lower", "ops_per_s, through GC CPU", "specfp-paper", fleetWorkload},
	{"cluster.hop_us", "us", "lower", "p50_ms, ops_per_s", "fleet-zipf singletons", compileWorkloads},
	{"cluster.batch_hop_us", "us", "lower", "p95_ms, ops_per_s", "fleet-zipf batches", compileWorkloads},
	{"cluster.worker_hops", "1/req", "lower", "count (hops per client request)", fleetWorkload, compileWorkloads},
	{"cluster.failovers", "count", "lower", "guard: 0 with one client", fleetWorkload, compileWorkloads},
	{"cluster.spills", "count", "lower", "guard: 0 with one client", fleetWorkload, compileWorkloads},
	{"http.client_us", "us", "lower", "p50_ms, ops_per_s", fleetWorkload, compileWorkloads},
	{"server.hit_us", "us", "lower", "a few % of p50_ms", fleetWorkload, compileWorkloads},
	{"server.hit_ratio", "ratio", "higher", "guard: 1.0 in the timed phase", fleetWorkload, compileWorkloads},
	{"server.rejected", "count", "lower", "guard: 0 in the timed phase", fleetWorkload, compileWorkloads},
	{"server.miss_ms", "ms", "lower", "setup_s", "fleet-zipf set-up", "timed phase of fleet-zipf"},
	{"ledger.unattributed_pct", "%", "lower", "reconciliation residual", "all", "none"},
	{"ledger.unstitched", "count", "lower", "fleet spans without a parent", "all", "none"},
	{"trace.overhead_pct", "%", "lower", "traced vs untraced time per operation", "all", "none"},
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
