// Package cluster is the distributed scheduling control plane: the
// gpcoordd coordinator fronting a fleet of gpserved workers.
//
// Workers register with capacity and endpoint, heartbeat periodically and
// deregister on graceful shutdown; the coordinator tracks their health
// (ready / suspect / dead via missed-heartbeat thresholds), routes
// POST /v1/schedule by rendezvous hashing on the request's content-address
// key — so identical requests land on the same worker and the per-worker
// LRU caches form one sharded distributed cache — and fails over to the
// next-ranked node, with the failed one excluded, when a worker dies
// mid-request. An async job layer (POST /v1/jobs) shards a machines ×
// corpora sweep cell-by-cell across the fleet and survives worker loss: a
// reconciliation loop cancels work stranded on dead nodes and the cells are
// re-placed on survivors, so a finished job's CSV is byte-identical to the
// single-node bench.Sweep output no matter how many workers died on the
// way.
//
// Endpoints:
//
//	POST /v1/nodes/register              worker announces {id, endpoint, capacity}
//	POST /v1/nodes/heartbeat             worker liveness (+ piggybacked load report)
//	POST /v1/nodes/deregister            graceful worker exit
//	GET  /v1/fleet/nodes                 node table: health, schema, in-flight, load
//	POST /v1/fleet/nodes/{id}/drain      stop placing on a node
//	POST /v1/fleet/nodes/{id}/undrain    place on it again
//	POST /v1/schedule                    proxied single-loop scheduling (cache-affine)
//	POST /v1/schedule/batch              one sub-batch per worker, reassembled in order
//	POST /v1/cache/flush                 raise the fleet cache epoch, fan the flush out
//	POST /v1/jobs                        async sweep job; returns {id, cells}
//	GET  /v1/jobs                        all retained jobs' status summaries
//	GET  /v1/jobs/{id}                   job status and per-cell placement detail
//	GET  /v1/jobs/{id}/csv               assembled CSV once the job is done
//	GET  /healthz                        liveness + fleet summary (JSON)
//	GET  /metrics                        coordinator + per-node Prometheus text
//	GET  /v1/debug/traces                recent placement traces
//	GET  /v1/debug/traces/{id}           one placement trace by request ID
//
// Placement is rendezvous hashing with bounded loads (place, in hrw.go):
// the HRW owner of a key serves it while its in-flight count stays under
// LoadBound × the fleet mean; beyond that the request spills to the
// next-ranked node, so a Zipf-hot key saturates neither its owner nor the
// response contract — responses stay byte-identical wherever they are
// computed. Sweep cells walk the explicit placement protocol in
// placement.go; proxied requests only count their in-flight work.
//
// All mutable control-plane state — node registrations, job specs,
// completed cell fragments — is written through a pluggable store
// (internal/store). With the default in-memory store a restart forgets
// everything, exactly the pre-durability behavior; with the journal store
// (gpcoordd -journal <dir>) a restarted coordinator replays the journal,
// adopts the registered nodes as suspect until their next heartbeat, and
// resumes every unfinished job, re-dispatching only the cells the journal
// does not prove done.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// Config tunes the coordinator. The zero value picks the defaults noted on
// each field; New resolves them once (withDefaults).
type Config struct {
	// Store persists the coordinator's control-plane state. Nil means a
	// fresh in-memory store: no durability, no recovery, the exact
	// behavior of a journal-less gpcoordd. The Coordinator takes ownership
	// and closes it in Close.
	Store store.Store
	// Logger, when set, receives the coordinator's structured events —
	// recovery, store failures, failovers, suspect/dead transitions — with
	// request and node identities as fields. Nil drops them.
	Logger *slog.Logger
	// HeartbeatInterval is the cadence workers are told to heartbeat at
	// (default 2s).
	HeartbeatInterval time.Duration
	// SuspectAfter is the heartbeat age that turns a node suspect
	// (default 3 × HeartbeatInterval).
	SuspectAfter time.Duration
	// DeadAfter is the heartbeat age that turns a node dead and hands its
	// in-flight work to the reconciler (default 6 × HeartbeatInterval).
	DeadAfter time.Duration
	// ReconcileInterval is the health-sweep and reconciliation cadence
	// (default HeartbeatInterval / 2).
	ReconcileInterval time.Duration
	// ScheduleTimeout bounds one proxied /v1/schedule attempt (default 60s).
	ScheduleTimeout time.Duration
	// CellTimeout bounds one job-cell attempt on one worker (default 10m —
	// a full four-scheme panel over a corpus is real work; the reconciler
	// usually re-places a dead node's cells long before this backstop).
	CellTimeout time.Duration
	// MaxCellAttempts bounds how many workers one cell is tried on before
	// the job is failed (default 8).
	MaxCellAttempts int
	// JobWorkers is the number of concurrently dispatched cells per job
	// (default 4).
	JobWorkers int
	// ShadowRate is the fraction of successful proxied /v1/schedule
	// responses replayed against a second worker and byte-compared
	// (0 disables, 1 shadows everything). Any divergence increments
	// gpcoordd_shadow_mismatch_total and marks the outlier-version node
	// suspect: determinism across the fleet is a correctness invariant, so
	// a mismatch means a worker is running a different algorithm than it
	// claims — exactly the failure a rolling upgrade can smuggle in.
	ShadowRate float64
	// ShadowCanary, when set, names the node every shadow replay is sent
	// to (a designated canary running the incoming version). Empty picks
	// the next-HRW-ranked worker after the one that served the request.
	ShadowCanary string
	// LoadBound is the bounded-load factor c of placement: the HRW owner
	// serves a key only while its in-flight count stays under
	// ceil(c·(m+1)/n) (m = fleet in-flight, n = candidates); an overloaded
	// owner spills to the next-ranked node under the bound. 0 picks the
	// default 1.25; negative disables spilling (pure HRW).
	LoadBound float64
}

// withDefaults resolves every zero (or negative) field to its documented
// default. HeartbeatInterval resolves first: the health thresholds and the
// reconcile cadence derive from it. A negative LoadBound stays negative —
// place reads any bound <= 0 as pure HRW.
func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * c.HeartbeatInterval
	}
	if c.ReconcileInterval <= 0 {
		c.ReconcileInterval = c.HeartbeatInterval / 2
	}
	if c.ScheduleTimeout <= 0 {
		c.ScheduleTimeout = 60 * time.Second
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 10 * time.Minute
	}
	if c.MaxCellAttempts <= 0 {
		c.MaxCellAttempts = 8
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 4
	}
	if c.LoadBound == 0 {
		c.LoadBound = 1.25
	}
	return c
}

const (
	// deadExpiry is how long a dead node is retained for observability
	// before it is garbage-collected from the registry.
	deadExpiry = 10 * time.Minute
	// maxJobs bounds the retained job table; creating a job beyond it
	// evicts the oldest finished job, and fails with 429 when every
	// retained job is still running.
	maxJobs = 64
)

// Coordinator is the gpcoordd daemon. Create with New, serve Handler, and
// Close after the HTTP server has shut down (Close stops the reconciler
// and aborts running jobs).
type Coordinator struct {
	cfg     Config
	reg     *registry
	st      store.Store
	metrics metrics
	mux     *http.ServeMux
	client  *http.Client
	log     *slog.Logger

	// traces is the bounded ring of recent placement traces behind
	// GET /v1/debug/traces; one request ID indexes the coordinator's view
	// here and the worker's view in its own ring.
	traces *obs.Ring

	ctx           context.Context
	stop          context.CancelFunc
	reconcileDone chan struct{}

	// epoch is the fleet cache epoch: raised (and journaled first) by
	// POST /v1/cache/flush, pushed to workers by the fan-out and by every
	// heartbeat response, restored from the store on restart.
	epoch atomic.Uint64
	// flushMu serializes flush fan-outs so two concurrent flushes cannot
	// interleave their journal write and fleet broadcast.
	flushMu sync.Mutex

	shadow shadowVerifier

	jobs jobTable

	// placements is the live table of sweep-cell placements, mirroring
	// the store.
	placements placementTable
}

// New returns a running coordinator (its reconciliation loop is live),
// after replaying whatever state cfg.Store holds: journaled nodes are
// adopted as suspect, journaled unfinished jobs are resumed. A store that
// cannot be loaded or whose jobs cannot be indexed fails construction —
// silently discarding a journal would break the durability promise.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		st = store.NewMemory()
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:           cfg,
		st:            st,
		mux:           http.NewServeMux(),
		client:        &http.Client{},
		log:           log,
		traces:        obs.NewRing(coordTraceRingSize),
		ctx:           ctx,
		stop:          stop,
		reconcileDone: make(chan struct{}),
	}
	c.metrics.init()
	c.reg = newRegistry(st, c.storeError)
	c.shadow.c = c
	c.jobs.byID = make(map[string]*job)
	c.mux.HandleFunc("POST /v1/nodes/register", c.handleRegister)
	c.mux.HandleFunc("POST /v1/nodes/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/nodes/deregister", c.handleDeregister)
	c.mux.HandleFunc("GET /v1/fleet/nodes", c.handleNodes)
	c.mux.HandleFunc("POST /v1/fleet/nodes/{id}/drain", c.handleDrain)
	c.mux.HandleFunc("POST /v1/fleet/nodes/{id}/undrain", c.handleUndrain)
	c.mux.HandleFunc("POST /v1/schedule", c.handleSchedule)
	c.mux.HandleFunc("POST /v1/schedule/batch", c.handleScheduleBatch)
	c.mux.HandleFunc("POST /v1/cache/flush", c.handleCacheFlush)
	c.mux.HandleFunc("POST /v1/jobs", c.handleCreateJob)
	c.mux.HandleFunc("GET /v1/jobs", c.handleListJobs)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/csv", c.handleJobCSV)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /v1/debug/traces", c.handleDebugTraces)
	c.mux.HandleFunc("GET /v1/debug/traces/{id}", c.handleDebugTrace)
	if err := c.recover(); err != nil {
		stop()
		close(c.reconcileDone)
		return nil, err
	}
	go c.reconcileLoop()
	return c, nil
}

// coordTraceRingSize bounds the coordinator's buffer of recent placement
// traces served by /v1/debug/traces.
const coordTraceRingSize = 128

// storeError records a best-effort persistence failure: counted, logged,
// never fatal to the serving path.
func (c *Coordinator) storeError(op string, err error) {
	c.metrics.storeErrors.Add(1)
	c.log.Warn("store operation failed", "op", op, "err", err.Error())
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c }

// ServeHTTP dispatches to the coordinator's endpoints. Every response
// carries the fleet cache epoch, so clients can tell at a glance whether
// the fleet has converged past a flush they initiated; every response also
// echoes the request ID (propagated or minted here — the coordinator is the
// edge), which the proxy paths forward to workers so one ID stitches the
// coordinator's placement trace to the worker's phase trace.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.metrics.requests.Add(1)
	id, _ := obs.RequestID(r)
	w.Header().Set(obs.RequestIDHeader, id)
	w.Header().Set("X-Algo-Epoch", strconv.FormatUint(c.epoch.Load(), 10))
	c.mux.ServeHTTP(w, r)
}

// Close stops the reconciler, cancels running jobs, waits for their
// dispatchers to exit, and closes the store. Running jobs are abandoned,
// not failed: their journaled state stays "running" so the next
// coordinator on the same journal resumes them. Call after the HTTP
// server has shut down.
func (c *Coordinator) Close() {
	c.stop()
	<-c.reconcileDone
	c.jobs.wg.Wait()
	c.shadow.wg.Wait()
	if err := c.st.Close(); err != nil {
		c.log.Warn("store close failed", "err", err.Error())
	}
}

// Nodes returns the current node table (tests and gpcoordd logs use it).
func (c *Coordinator) Nodes() []NodeInfo { return c.reg.snapshot() }

// HealthSummary is the body of the coordinator's GET /healthz: liveness
// plus a one-glance fleet summary (durability mode, node-health counts,
// running jobs and the epoch).
type HealthSummary struct {
	Status  string `json:"status"`
	Journal bool   `json:"journal"`
	Epoch   uint64 `json:"epoch"`
	Nodes   struct {
		Ready    int `json:"ready"`
		Suspect  int `json:"suspect"`
		Dead     int `json:"dead"`
		Draining int `json:"draining"`
	} `json:"nodes"`
	JobsRunning int `json:"jobs_running"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sum := HealthSummary{Status: "ok", Journal: c.st.Durable(), Epoch: c.epoch.Load()}
	for _, n := range c.reg.snapshot() {
		switch {
		case n.Draining:
			sum.Nodes.Draining++
		case n.State == NodeReady.String():
			sum.Nodes.Ready++
		case n.State == NodeSuspect.String():
			sum.Nodes.Suspect++
		default:
			sum.Nodes.Dead++
		}
	}
	sum.JobsRunning = c.jobs.running()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(sum)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	c.metrics.render(w, c.reg.snapshot(), c.jobs.running(), c.epoch.Load(), c.st.Stats())
}

// writeError answers with the fleet-wide error envelope
// {"error":{"code","message","retryable"}} — the same shape gpserved
// renders, so clients parse one format no matter which daemon refused them.
func (c *Coordinator) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	if status == http.StatusBadRequest {
		c.metrics.badRequests.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(server.MarshalError(code, fmt.Sprintf(format, args...)))
	_, _ = io.WriteString(w, "\n")
}

func (c *Coordinator) readJSON(w http.ResponseWriter, r *http.Request, out any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req server.RegisterRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad register body: %v", err)
		return
	}
	if req.ID == "" || req.Endpoint == "" {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "register needs id and endpoint")
		return
	}
	// A joiner speaking a different wire schema is refused outright: the
	// coordinator relays worker bytes verbatim, so one fleet must speak one
	// codec or clients would see responses they cannot parse.
	if fleet, conflict := c.reg.schemaConflict(req.SchemaVersion); conflict {
		c.metrics.schemaRefusals.Add(1)
		c.writeError(w, http.StatusConflict, server.ErrCodeSchemaMismatch,
			"node %s speaks schema %q but the fleet speaks %q", req.ID, req.SchemaVersion, fleet)
		return
	}
	if err := c.reg.register(req.ID, req.Endpoint, req.Capacity, req.AlgoVersion, req.Epoch); err != nil {
		c.storeError("put_node", err)
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "persist registration: %v", err)
		return
	}
	c.reg.noteSchema(req.ID, req.SchemaVersion)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.RegisterResponse{
		HeartbeatMillis: int(c.cfg.HeartbeatInterval / time.Millisecond),
		Epoch:           c.epoch.Load(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req server.HeartbeatRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad heartbeat body: %v", err)
		return
	}
	// A worker that upgraded in place to a different wire schema is as
	// unwelcome as a mixed-schema joiner (it restarted, so the register
	// gate never saw the new codec): refuse the beat so it stops serving
	// the fleet rather than smuggling a second codec in.
	if fleet, conflict := c.reg.schemaConflict(req.SchemaVersion); conflict {
		c.metrics.schemaRefusals.Add(1)
		c.writeError(w, http.StatusConflict, server.ErrCodeSchemaMismatch,
			"node %s speaks schema %q but the fleet speaks %q", req.ID, req.SchemaVersion, fleet)
		return
	}
	if !c.reg.heartbeat(req.ID, req.AlgoVersion, req.Epoch) {
		// Unknown ID: the coordinator restarted (or the node was evicted);
		// 404 tells the agent to fall back to the register path.
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown node %q, re-register", req.ID)
		return
	}
	c.reg.noteSchema(req.ID, req.SchemaVersion)
	if req.Load != nil {
		c.reg.absorbLoad(req.ID, req.Load.Inflight, req.Load.Shed, req.Load.P99Micros)
	}
	// Answer with the fleet epoch: a worker that missed the flush fan-out
	// converges on its next beat instead of serving stale bytes forever.
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.HeartbeatResponse{Epoch: c.epoch.Load()})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req server.HeartbeatRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad deregister body: %v", err)
		return
	}
	c.reg.deregister(req.ID)
	w.WriteHeader(http.StatusNoContent)
}

// handleDrain and handleUndrain flip a node's drain flag
// (POST /v1/fleet/nodes/{id}/drain and /undrain): a draining node keeps
// its in-flight work and heartbeats but attracts no new placements, and
// its cell placements walk the Ready→Draining edge (back on undrain).
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request)   { c.setDrain(w, r, true) }
func (c *Coordinator) handleUndrain(w http.ResponseWriter, r *http.Request) { c.setDrain(w, r, false) }

func (c *Coordinator) setDrain(w http.ResponseWriter, r *http.Request, draining bool) {
	id := r.PathValue("id")
	if !c.reg.setDraining(id, draining) {
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown node %q", id)
		return
	}
	c.metrics.drainFlips.Add(1)
	flipped := c.drainPlacements(id, draining)
	c.log.Info("node drain flag flipped", "node", id, "draining", draining, "placements_flipped", flipped)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"node": id, "draining": draining, "placements_flipped": flipped})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.reg.snapshot())
}

// handleDebugTraces is GET /v1/debug/traces: the most recent placement
// traces, newest first. Debug surface only — never part of a relayed body.
func (c *Coordinator) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.traces.Recent(64))
}

// handleDebugTrace is GET /v1/debug/traces/{id}: one placement trace by
// request ID, if it is still in the ring.
func (c *Coordinator) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := c.traces.Get(r.PathValue("id"))
	if !ok {
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "no trace for request id %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&t)
}

// finishProxy stamps a proxy trace's outcome, exposes its phases in the
// X-Phase-Timing response header (strictly outside the relayed body — the
// byte-determinism contract covers bodies only), publishes it to the debug
// ring, and observes the endpoint/outcome latency cell. Must run before the
// response status is written.
func (c *Coordinator) finishProxy(w http.ResponseWriter, tr *obs.Trace, endpoint, outcome string, start time.Time) {
	tr.SetOutcome(outcome)
	if st := tr.ServerTiming(); st != "" {
		w.Header().Set("X-Phase-Timing", st)
	}
	c.traces.Publish(tr)
	c.metrics.observe(endpoint, outcome, time.Since(start))
}

// outcomeOf classifies how placement resolved a served request, the
// low-cardinality outcome label of the duration histogram.
func outcomeOf(fr fleetResult) string { return placementOutcome(fr.failedOver, fr.spilled) }

// placementOutcome is the outcome label of a request or batch loop that a
// worker answered: failover when some worker failed it first, spill when
// bounded load moved it off its owner, owner otherwise.
func placementOutcome(failedOver, spilled bool) string {
	switch {
	case failedOver:
		return "failover"
	case spilled:
		return "spill"
	}
	return "owner"
}

// handleSchedule proxies one scheduling request to the fleet: rendezvous
// placement on the content-address key, then failover down the ranking
// with an exclusion list when workers fail. The worker's response —
// including its X-Cache verdict — is relayed byte-for-byte, plus an X-Node
// header naming the worker that served it.
func (c *Coordinator) handleSchedule(w http.ResponseWriter, r *http.Request) {
	c.metrics.scheduleReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "proxy-schedule")
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)); err != nil {
		c.finishProxy(w, tr, "schedule", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "read body: %v", err)
		return
	}
	reqBody := buf.Bytes()
	// Admission at the edge: a body gpserved would reject burns no worker,
	// and the parse yields the placement key.
	key, err := server.ScheduleCacheKey(reqBody)
	if err != nil {
		c.finishProxy(w, tr, "schedule", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	tr.Phase("admission", time.Since(start))

	fr := c.scheduleOnFleet(r.Context(), key, reqBody, tr.ID, tr)
	if fr.resp != nil {
		// 2xx and request-defect 4xx relay as-is: a 400 is wrong on
		// every worker, retrying it elsewhere would just burn the fleet.
		tr.SetNode(fr.node.id)
		relayServed(w, fr.node.id, fr.resp)
		c.finishProxy(w, tr, "schedule", outcomeOf(fr), start)
		w.WriteHeader(fr.resp.StatusCode)
		_, _ = w.Write(fr.body)
		if fr.resp.StatusCode == http.StatusOK {
			c.shadow.maybeReplay(fr.node, key, reqBody, fr.body)
		}
		return
	}
	switch {
	case fr.canceled:
		// The client hung up: nobody is left to read an answer.
		c.finishProxy(w, tr, "schedule", "canceled", start)
	case fr.noWorkers:
		c.metrics.noCapacity.Add(1)
		c.finishProxy(w, tr, "schedule", "no-workers", start)
		c.writeError(w, http.StatusServiceUnavailable, server.ErrCodeNoWorkers, "no ready workers")
	case fr.allSaturated:
		// Every worker shed with 429: the fleet is loaded, not broken.
		// Relay the single-node backpressure contract so clients back off
		// instead of hard-retrying a "failure".
		c.metrics.noCapacity.Add(1)
		w.Header().Set("Retry-After", "1")
		c.finishProxy(w, tr, "schedule", "saturated", start)
		c.writeError(w, http.StatusTooManyRequests, server.ErrCodeSaturated, "every worker is saturated, retry later")
	default:
		c.finishProxy(w, tr, "schedule", "error", start)
		c.writeError(w, http.StatusBadGateway, server.ErrCodeUpstreamFailed, "all workers failed, last: %v", fr.lastErr)
	}
}

// fleetResult is scheduleOnFleet's outcome: a served response (resp != nil,
// any status below 500 except 429) or a terminal failure classification.
type fleetResult struct {
	node candidate
	resp *http.Response
	body []byte

	spilled    bool // some attempt was placed on a bounded-load spill target
	failedOver bool // at least one worker failed before one served

	canceled     bool  // the caller's context ended first; no worker was blamed
	noWorkers    bool  // no placeable candidate remained
	allSaturated bool  // at least one attempt, every one shed with 429
	lastErr      error // last worker failure; nil when noWorkers
}

// scheduleOnFleet places one singleton schedule body and forwards it:
// bounded-load rendezvous placement on the content-address key, then — when
// the chosen worker fails — the next round places down the HRW ranking with
// the failed node excluded. The batch fan-out (batch.go) walks each loop
// the same way. The request is transient, so it stays outside the placement
// protocol: each attempt holds one in-flight slot on its node (bind) for
// exactly the length of its forward. Every attempt is recorded on tr
// (nil-safe) and forwarded under reqID, and every failure emits one
// structured event carrying the request ID, node, attempt number and
// reason. When ctx ends (the client hung up) the walk stops: a forward the
// caller canceled is no verdict on the worker, so no node is blamed,
// excluded or counted as a failover.
func (c *Coordinator) scheduleOnFleet(ctx context.Context, key string, reqBody []byte, reqID string, tr *obs.Trace) fleetResult {
	exclude := map[string]bool{}
	var lastErr error
	var spilled, failedOver bool
	allSaturated := true
	for attempt := 1; ctx.Err() == nil; attempt++ {
		placeStart := time.Now()
		node, owner, rank, ok := place(c.reg.candidates(), key, exclude, c.cfg.LoadBound)
		if !ok {
			break
		}
		c.bind(node, owner, rank, key)
		spilled = spilled || rank > 0
		tr.PhaseNote("place", fmt.Sprintf("node=%s rank=%d owner=%s spilled=%t excluded=%d",
			node.id, rank, owner, rank > 0, len(exclude)), time.Since(placeStart))
		proxyStart := time.Now()
		resp, body, err := c.forward(ctx, node, "/v1/schedule", reqBody, c.cfg.ScheduleTimeout, reqID)
		c.reg.decInflight(node.id)
		switch {
		case err != nil && ctx.Err() != nil:
			// The caller is gone, not the worker; the loop condition ends
			// the walk. forward's own per-attempt timeout is a child of
			// ctx, so a slow worker still lands in the next case.
			tr.PhaseNote("proxy", "node="+node.id+" canceled", time.Since(proxyStart))
			continue
		case err != nil, resp.StatusCode >= 500:
			// Transport failure, truncated body or 5xx: the worker is gone
			// or going — suspect it and fail over down the HRW ranking.
			var note string
			note, lastErr = workerFailure(node.id, resp, body, err)
			c.reg.reportFailure(node.id)
			c.metrics.failovers.Add(1)
			exclude[node.id] = true
			failedOver, allSaturated = true, false
			tr.PhaseNote("proxy", "node="+node.id+" "+note, time.Since(proxyStart))
			c.log.Warn("worker attempt failed, failing over",
				"request", reqID, "node", node.id, "attempt", attempt, "reason", lastErr.Error())
		case resp.StatusCode == http.StatusTooManyRequests:
			// Saturation is load, not sickness: try another worker without
			// marking this one suspect.
			c.metrics.retries.Add(1)
			exclude[node.id] = true
			lastErr = fmt.Errorf("worker %s saturated", node.id)
			tr.PhaseNote("proxy", "node="+node.id+" saturated", time.Since(proxyStart))
			c.log.Info("worker saturated, retrying on another",
				"request", reqID, "node", node.id, "attempt", attempt)
		default:
			tr.PhaseNote("proxy", fmt.Sprintf("node=%s http-%d", node.id, resp.StatusCode), time.Since(proxyStart))
			return fleetResult{node: node, resp: resp, body: body, spilled: spilled, failedOver: failedOver}
		}
	}
	return fleetResult{
		spilled:      spilled,
		failedOver:   failedOver,
		canceled:     ctx.Err() != nil,
		noWorkers:    lastErr == nil,
		allSaturated: lastErr != nil && allSaturated,
		lastErr:      lastErr,
	}
}

// workerFailure describes a forward the worker failed — a transport error
// (err) or a 5xx answer — as a trace note and as the error a request that
// runs out of workers reports last.
func workerFailure(nodeID string, resp *http.Response, body []byte, err error) (note string, lastErr error) {
	if err != nil {
		return "transport-error", fmt.Errorf("worker %s: %v", nodeID, err)
	}
	return "http-" + strconv.Itoa(resp.StatusCode), fmt.Errorf("worker %s answered %d: %s", nodeID, resp.StatusCode, firstLine(body))
}

// bind commits one placement decision, for a proxied request and a sweep
// cell alike: it counts the placement and takes one in-flight slot on the
// node — the load signal place spills on, which the caller releases
// (reg.decInflight) once its forward returns.
func (c *Coordinator) bind(node candidate, owner string, rank int, key string) {
	c.countPlacement(node, owner, rank, key)
	c.reg.incInflight(node.id)
}

// countPlacement counts one placement decision: the placement, the node's
// routed request, and a spill (rank > 0) against the fleet total, the owner
// that shed the key, the node that absorbed it and the key's class.
func (c *Coordinator) countPlacement(node candidate, owner string, rank int, key string) {
	c.metrics.placements.Add(1)
	c.reg.countPlacement(node.id, owner, rank > 0)
	if rank > 0 {
		c.metrics.spills.Add(1)
		c.metrics.spillClasses.Add(keyClass(key))
	}
}

// relayServed copies the response headers of the attempt actually being
// relayed to the client, by explicit whitelist. Only this helper may write
// proxied headers: failed attempts (a 429's Retry-After, a dying worker's
// X-Cache) never touch w, so a failover can't leak headers from a worker
// whose body the client never sees.
func relayServed(w http.ResponseWriter, nodeID string, resp *http.Response) {
	h := w.Header()
	h.Set("X-Node", nodeID)
	for _, name := range []string{"Content-Type", "X-Cache", "Retry-After", "X-Algo-Version", "X-Algo-Epoch", "X-Schema-Version"} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
}

// Epoch returns the current fleet cache epoch (tests and gpcoordd logs).
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// FlushNodeResult is one node's outcome in a flush fan-out response.
type FlushNodeResult struct {
	Node  string `json:"node"`
	Epoch uint64 `json:"epoch,omitempty"`
	Error string `json:"error,omitempty"`
}

// FlushFleetResponse is the body of a successful coordinator
// POST /v1/cache/flush.
type FlushFleetResponse struct {
	Epoch uint64            `json:"epoch"`
	Nodes []FlushNodeResult `json:"nodes"`
}

// handleCacheFlush is POST /v1/cache/flush on the coordinator: raise the
// fleet cache epoch and fan the flush out to every non-dead worker. The
// order is the durability contract: the new epoch is journaled before
// anything else happens, so a coordinator that crashes mid-fan-out
// restarts at the post-flush epoch and the heartbeat path converges the
// workers the broadcast missed — the one unacceptable outcome, a restart
// resurrecting the pre-flush view, cannot happen. A journal failure is a
// 500 with the epoch unchanged.
func (c *Coordinator) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	var req server.FlushRequest
	if err := c.readJSON(w, r, &req); err != nil && err != io.EOF {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad flush body: %v", err)
		return
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	epoch := c.epoch.Load() + 1
	if req.Epoch > epoch {
		epoch = req.Epoch
	}
	if err := c.st.SetEpoch(epoch); err != nil {
		c.storeError("set_epoch", err)
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "persist epoch: %v", err)
		return
	}
	c.epoch.Store(epoch)
	c.metrics.cacheFlushes.Add(1)
	c.log.Info("cache flush raised fleet epoch",
		"request", r.Header.Get(obs.RequestIDHeader), "epoch", epoch)

	flushBody, _ := json.Marshal(server.FlushRequest{Epoch: epoch})
	out := FlushFleetResponse{Epoch: epoch}
	for _, node := range c.reg.candidates() {
		res := FlushNodeResult{Node: node.id}
		resp, body, err := c.forward(r.Context(), node, "/v1/cache/flush", flushBody, c.cfg.ScheduleTimeout, r.Header.Get(obs.RequestIDHeader))
		switch {
		case err != nil:
			res.Error = err.Error()
		case resp.StatusCode != http.StatusOK:
			res.Error = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, firstLine(body))
		default:
			var fr server.FlushResponse
			if err := json.Unmarshal(body, &fr); err != nil {
				res.Error = fmt.Sprintf("bad flush response: %v", err)
				break
			}
			res.Epoch = fr.Epoch
			c.reg.setNodeEpoch(node.id, fr.Epoch)
		}
		out.Nodes = append(out.Nodes, res)
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Algo-Epoch", strconv.FormatUint(epoch, 10)) // ServeHTTP stamped the pre-flush epoch
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// forward posts body to node's path and reads the full response body
// before reporting success, so a connection that dies mid-response counts
// as a node failure while the coordinator can still fail over (nothing has
// been written to the client yet). A non-empty reqID propagates as the
// X-Request-Id header, so the worker's own trace of the forwarded request
// files under the same identity the coordinator's placement trace carries.
func (c *Coordinator) forward(ctx context.Context, node candidate, path string, body []byte, timeout time.Duration, reqID string) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.endpoint+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	// Read to EOF, which returns the connection to the idle pool, into a
	// buffer sized by Content-Length when the worker sent one.
	var out bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= server.MaxBodyBytes {
		out.Grow(int(n) + bytes.MinRead)
	}
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, out.Bytes(), nil
}

// firstLine trims an error body for log/relay contexts.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// reconcileLoop is the coordinator's health detector and work re-placer:
// every tick it applies the missed-heartbeat thresholds, then cancels
// in-flight job cells assigned to nodes that just died so their
// dispatchers immediately re-place them on survivors (the persys-style
// desired-state reconciliation, specialized to sweep cells).
func (c *Coordinator) reconcileLoop() {
	defer close(c.reconcileDone)
	t := time.NewTicker(c.cfg.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		suspected, died := c.reg.sweepHealth(c.cfg.SuspectAfter, c.cfg.DeadAfter)
		for _, id := range suspected {
			c.log.Warn("node suspected: missed heartbeats", "node", id)
		}
		for _, id := range died {
			canceled := c.jobs.cancelInflightOn(id)
			c.metrics.reconcilePlaced.Add(canceled)
			c.log.Warn("node dead, re-placing its work", "node", id, "cells_canceled", canceled)
		}
		c.reg.expireDead(deadExpiry)
	}
}
