package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Config tunes the daemon. The zero value picks the defaults below.
type Config struct {
	// Workers is the number of scheduling goroutines (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started jobs
	// (default 64). A full queue sheds load with 429.
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity (default 1024).
	CacheEntries int
	// NodeID, when set, is stamped on every response as the X-Node header
	// so a cluster coordinator (and its clients) can observe which worker
	// actually served a proxied request.
	NodeID string
	// AlgoVersion overrides the compiled-in schedule.AlgoVersion this
	// daemon advertises and salts its cache keys with. Tests and canary
	// deploys use it; production builds leave it empty.
	AlgoVersion string
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 1024
}

// MaxBodyBytes caps a request body on both daemons: gpserved reads at
// most this much, and the gpcoordd edge, which relays bodies to it, applies
// the same cap.
const MaxBodyBytes = 8 << 20

// retryAfter is the Retry-After hint (seconds) on every 429 response.
const retryAfter = "1"

// algoVersion is the algorithm identity this daemon advertises and salts
// its cache keys with.
func (c Config) algoVersion() string {
	if c.AlgoVersion != "" {
		return c.AlgoVersion
	}
	return schedule.AlgoVersion
}

// Server is the gpserved HTTP daemon. Create with New, serve its Handler,
// and Close it after the HTTP server has shut down (Close drains the
// worker pool).
type Server struct {
	cfg     Config
	algo    string // advertised algorithm identity, from cfg.algoVersion()
	cache   *lruCache
	flight  flightGroup
	pool    *workerPool
	metrics metrics
	traces  *obs.Ring
	mux     *http.ServeMux

	// computeHook, when set, observes every actual schedule computation
	// (cache misses that reached a worker). Tests use it to prove
	// singleflight coalescing.
	computeHook func(key string)
}

// New returns a ready-to-serve daemon.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		algo:   cfg.algoVersion(),
		cache:  newLRUCache(cfg.cacheEntries()),
		pool:   newWorkerPool(cfg.workers(), cfg.queueDepth()),
		traces: obs.NewRing(traceRingSize),
		mux:    http.NewServeMux(),
	}
	s.metrics.init()
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/schedule/batch", s.handleScheduleBatch)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/cache/flush", s.handleCacheFlush)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("GET /v1/debug/traces/{id}", s.handleDebugTrace)
	return s
}

// traceRingSize bounds the per-daemon buffer of recent request traces
// served by /v1/debug/traces.
const traceRingSize = 128

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP dispatches to the daemon's endpoints. Every response carries
// the worker's algorithm identity and cache epoch so clients — above all
// the coordinator's shadow verifier — can attribute any byte divergence to
// a specific scheduler generation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	// Resolve the request ID: keep a propagated one (the coordinator is the
	// edge), mint otherwise (this worker is). Handlers read it back off
	// r.Header; every response echoes it.
	id, _ := obs.RequestID(r)
	w.Header().Set(obs.RequestIDHeader, id)
	if s.cfg.NodeID != "" {
		w.Header().Set("X-Node", s.cfg.NodeID)
	}
	w.Header().Set("X-Algo-Version", s.algo)
	w.Header().Set("X-Algo-Epoch", strconv.FormatUint(s.cache.Epoch(), 10))
	w.Header().Set("X-Schema-Version", SchemaVersion)
	s.mux.ServeHTTP(w, r)
}

// Close drains the worker pool: queued work finishes, later submissions
// get 503. Normally called after the HTTP server has shut down, but safe
// against stragglers either way.
func (s *Server) Close() { s.pool.Close() }

// Metrics returns a point-in-time snapshot of selected counters (used by
// the perfledger benchmark and tests).
func (s *Server) Metrics() (cacheHits, cacheMisses, coalesced, rejected int64) {
	return s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load(),
		s.metrics.coalesced.Load(), s.metrics.rejected.Load()
}

// AlgoVersion returns the complete algorithm identity this daemon
// advertises (compiled-in version plus option suffixes).
func (s *Server) AlgoVersion() string { return s.algo }

// Load returns the daemon's live load signals: requests currently in
// flight, the cumulative shed (429) count, and the rolling p99 latency.
// The agent reports them to the coordinator on every heartbeat, which
// shows them on GET /v1/fleet/nodes.
func (s *Server) Load() LoadReport {
	_, p99 := s.metrics.quantiles()
	return LoadReport{
		Inflight:  s.metrics.inflight.Load(),
		Shed:      s.metrics.rejected.Load(),
		P99Micros: float64(p99) / float64(time.Microsecond),
	}
}

// Epoch returns the daemon's current cache epoch.
func (s *Server) Epoch() uint64 { return s.cache.Epoch() }

// FlushTo wipes the result cache and raises the epoch to at least target
// (a lower or zero target still bumps by one). The coordinator's agent
// calls it when the fleet epoch moves; the /v1/cache/flush endpoint is the
// same operation over HTTP.
func (s *Server) FlushTo(target uint64) uint64 {
	e := s.cache.FlushTo(target)
	s.metrics.cacheFlushes.Add(1)
	return e
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.render(w, s.pool.QueueDepth(), s.cache.Len(), s.cache.Epoch())
}

// handleDebugTraces is GET /v1/debug/traces: the most recent request
// traces, newest first. Debug surface only — never part of a cached body.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.traces.Recent(64))
}

// handleDebugTrace is GET /v1/debug/traces/{id}: one trace by request ID,
// if it is still in the ring.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, ErrCodeNotFound, "no trace for request id %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&t)
}

// finishTrace stamps the trace's outcome, exposes its phases in the
// X-Phase-Timing response header (Server-Timing syntax; strictly outside
// the body, so cached bytes are untouched), and publishes it to the ring.
// Must run before the response body is written.
func (s *Server) finishTrace(w http.ResponseWriter, tr *obs.Trace, outcome string) {
	if tr == nil {
		return
	}
	tr.SetOutcome(outcome)
	if st := tr.ServerTiming(); st != "" {
		w.Header().Set("X-Phase-Timing", st)
	}
	s.traces.Publish(tr)
}

// bodyPool recycles request-body read buffers across requests (part of the
// request-arena discipline: the schedule hot path should not pay a growing
// buffer per request).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBodyPooled reads at most MaxBodyBytes of the request body into pooled
// storage. The returned release func recycles the backing array; the caller
// must not retain the bytes past it. That holds on every path that reads a
// body: parsing copies everything it keeps (JSON decoding allocates fresh
// strings, and a machine text is parsed from a copy), cache entries store
// response bytes, the alias index stores only a hash, and a flush request
// decodes to a number.
func (s *Server) readBodyPooled(w http.ResponseWriter, r *http.Request) ([]byte, func(), error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	release := func() { bodyPool.Put(buf) }
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		release()
		return nil, nil, err
	}
	return buf.Bytes(), release, nil
}

// writeError renders the unified error envelope
// {"error": {"code", "message", "retryable"}}. code is one of the ErrCode
// constants; retryable derives from it.
func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	if status == http.StatusBadRequest {
		s.metrics.badRequests.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(MarshalError(code, fmt.Sprintf(format, args...)))
	_, _ = w.Write([]byte("\n"))
}

// handleCacheFlush is POST /v1/cache/flush: wipe the result cache and
// raise the cache epoch. The body is an optional JSON FlushRequest naming
// the fleet epoch to converge to; an empty body (or a lower epoch) is a
// plain local flush that bumps by one. The response reports the epoch now
// in force.
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	body, release, err := s.readBodyPooled(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: %v", err)
		return
	}
	defer release()
	var req FlushRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
			return
		}
	}
	epoch := s.FlushTo(req.Epoch)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Algo-Epoch", strconv.FormatUint(epoch, 10)) // ServeHTTP stamped the pre-flush epoch
	_ = json.NewEncoder(w).Encode(FlushResponse{Epoch: epoch})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.metrics.scheduleReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "schedule")
	tr.SetNode(s.cfg.NodeID)

	body, release, err := s.readBodyPooled(w, r)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: %v", err)
		return
	}
	defer release()

	// Parse-free fast path: a verbatim repeat of a previously served body
	// is answered from the body-hash alias index with zero schedule-side
	// allocations — one sha256 over the bytes, one map probe, write.
	lookup := time.Now()
	bodyHash := sha256.Sum256(body)
	if cached, ok := s.cache.GetByBody(bodyHash); ok {
		s.metrics.cacheHits.Add(1)
		s.metrics.bodyHits.Add(1)
		tr.PhaseNote("cache-lookup", "body-hit", time.Since(lookup))
		s.finishTrace(w, tr, "hit")
		s.writeScheduleBody(w, cached, "hit")
		s.metrics.schedHit.Observe(time.Since(start))
		return
	}

	parse := time.Now()
	job, err := parseScheduleRequest(body)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	tr.Phase("parse", time.Since(parse))
	// Snapshot the epoch once: the key is salted with it, and the same
	// value travels to cache.Add, so a flush that lands mid-computation
	// invalidates this request's insert instead of being overwritten.
	epoch := s.cache.Epoch()
	key := job.cacheKey(keySalt(s.algo, epoch))

	lookup = time.Now()
	if cached, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.cache.LinkBody(key, bodyHash)
		tr.PhaseNote("cache-lookup", "key-hit", time.Since(lookup))
		s.finishTrace(w, tr, "hit")
		s.writeScheduleBody(w, cached, "hit")
		s.metrics.schedHit.Observe(time.Since(start))
		return
	}
	s.metrics.cacheMisses.Add(1)
	tr.PhaseNote("cache-lookup", "miss", time.Since(lookup))

	// Coalesce concurrent identical requests: one leader computes on the
	// pool, followers share its bytes without occupying a worker slot. The
	// leader waits with a detached context: a compute is short, its result
	// is cached for everyone, and tying the wait to the leader's request
	// context would turn one client's disconnect into spurious
	// context-canceled errors for every coalesced follower. The closure
	// runs on the leader's goroutine, so the leader's trace records the
	// queue wait and compute phases; followers record only the fold.
	flightStart := time.Now()
	resp, shared, err := s.flight.Do(key, func() ([]byte, error) {
		queued := time.Now()
		var out []byte
		var computeErr error
		poolErr := s.pool.Do(context.Background(), func() {
			tr.Phase("queue-wait", time.Since(queued))
			out, computeErr = s.compute(key, job, epoch, tr)
		})
		if poolErr != nil {
			return nil, poolErr
		}
		return out, computeErr
	})
	if shared {
		s.metrics.coalesced.Add(1)
		tr.PhaseNote("coalesced-wait", "folded into in-flight twin", time.Since(flightStart))
	}
	var cerr *clientError
	switch {
	case errors.Is(err, ErrSaturated):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		s.finishTrace(w, tr, "shed")
		s.writeError(w, http.StatusTooManyRequests, ErrCodeSaturated, "scheduling queue is full, retry later")
		return
	case errors.Is(err, ErrClosed):
		s.finishTrace(w, tr, "shutting-down")
		s.writeError(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server is shutting down")
		return
	case errors.As(err, &cerr):
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", cerr)
		return
	case err != nil:
		s.finishTrace(w, tr, "error")
		s.writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	s.cache.LinkBody(key, bodyHash)
	s.finishTrace(w, tr, "miss")
	s.writeScheduleBody(w, resp, "miss")
	s.metrics.schedMiss.Observe(time.Since(start))
}

func (s *Server) writeScheduleBody(w http.ResponseWriter, body []byte, xcache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xcache)
	_, _ = w.Write(body)
}

// encBufPool recycles response-encoding buffers: the encoder's growth
// reallocs are paid once per pool entry instead of once per compute; the
// cached body is a single exact-size copy out of the pooled buffer.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// compute schedules the job, Verify-checks the result, marshals the
// deterministic response body and inserts it into the cache under the
// epoch the request was keyed with (a flush in between rejects the
// insert). It runs on a pool worker; tr (nil-safe) collects the scheduler
// phase spans.
func (s *Server) compute(key string, job *scheduleJob, epoch uint64, tr *obs.Trace) ([]byte, error) {
	if s.computeHook != nil {
		s.computeHook(key)
	}
	// The expensive half of admission, deliberately behind backpressure.
	adm := time.Now()
	if err := job.admissionCheck(); err != nil {
		return nil, err
	}
	tr.Phase("admission", time.Since(adm))
	res, err := core.ScheduleLoop(job.g, job.m, &core.Options{Algorithm: job.alg})
	if err != nil {
		return nil, fmt.Errorf("schedule: %v", err)
	}
	tr.Phase("mii", res.MIIDur)
	tr.PhaseNote("partition",
		fmt.Sprintf("partitions=%d reused=%d moves=%d screen=%d/%d/%d",
			res.Partitions, res.PartitionsReused, res.RefineMoves, res.ScreenLowerBound, res.ScreenExact, res.ScreenFull),
		res.PartitionDur)
	tr.PhaseNote("schedule",
		fmt.Sprintf("attempts=%d ii=%d list=%t", res.Attempts, res.Schedule.II, res.ListFallback),
		res.ScheduleDur)
	s.metrics.scheduleAttempts.Add(int64(res.Attempts))
	for r, n := range res.AttemptFailures {
		s.metrics.attemptFailures[r].Add(int64(n))
	}
	if res.ListFallback {
		s.metrics.listFallbacks.Add(1)
	}
	s.metrics.refineMoves.Add(res.RefineMoves)
	s.metrics.screenLB.Add(res.ScreenLowerBound)
	s.metrics.screenExact.Add(res.ScreenExact)
	s.metrics.screenFull.Add(res.ScreenFull)
	// The oracle gate: nothing unverified is ever served or cached.
	ver := time.Now()
	if err := schedule.Verify(job.g, job.m, res.Schedule); err != nil {
		s.metrics.verifyFailures.Add(1)
		return nil, fmt.Errorf("schedule failed verification: %v", err)
	}
	tr.Phase("verify", time.Since(ver))
	encT := time.Now()
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	if err := encodeScheduleResponse(buf, buildResponse(job, res)); err != nil {
		return nil, err
	}
	body := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	s.cache.Add(key, body, epoch)
	tr.Phase("encode", time.Since(encT))
	return body, nil
}

// encodeScheduleResponse writes a response body: indented JSON and a
// trailing newline. The indent is what lets SplitBatch find a batch's
// element boundaries.
func encodeScheduleResponse(buf *bytes.Buffer, r *ScheduleResponse) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SweepRequest is the body of POST /v1/sweep. Empty Machines means the
// built-in machine.SweepSet; empty Corpora means both workload families.
type SweepRequest struct {
	// Machines are machine-description texts on the wire (JSON strings,
	// machine.Parse format); decoding parses and validates each via
	// machine.Config's TextUnmarshaler.
	Machines []machine.Config `json:"machines,omitempty"`
	// Corpora picks workload families by name: "SPECfp95", "DSP".
	Corpora []string `json:"corpora,omitempty"`
	// MaxLoops > 0 trims every benchmark to its first MaxLoops loops.
	MaxLoops int `json:"max_loops,omitempty"`
	// Verify runs the schedule.Verify oracle on every produced schedule.
	Verify bool `json:"verify,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.sweepReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "sweep")
	tr.SetNode(s.cfg.NodeID)

	body, release, err := s.readBodyPooled(w, r)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: %v", err)
		return
	}
	defer release()
	var req SweepRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.finishTrace(w, tr, "bad-request")
			s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
			return
		}
	}
	machines, corpora, err := ResolveSweep(&req)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}

	// A sweep is one long-running unit of work: it takes a single pool slot
	// so schedule traffic and sweeps share the same admission control. The
	// handler waits for the task with a detached context — the task writes
	// to w, so it must never outlive this handler (net/http recycles the
	// ResponseWriter once the handler returns). A disconnected client
	// cancels r.Context(), which aborts the sweep itself promptly.
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w}
	var streamErr error
	queued := time.Now()
	poolErr := s.pool.Do(context.Background(), func() {
		tr.Phase("queue-wait", time.Since(queued))
		// Streaming starts now, so only the phases recorded so far can make
		// the header; the stream phase itself lands in the published trace.
		if st := tr.ServerTiming(); st != "" {
			w.Header().Set("X-Phase-Timing", st)
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		streamStart := time.Now()
		defer func() { tr.Phase("stream", time.Since(streamStart)) }()
		if streamErr = bench.WriteSweepHeader(cw); streamErr != nil {
			return
		}
		cfg := bench.Config{Verify: req.Verify, Parallel: 1}
		streamErr = bench.SweepStream(r.Context(), machines, corpora, cfg, func(pt bench.SweepPoint) error {
			if err := bench.WriteSweepPointCSV(cw, pt); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	})
	outcome := "ok"
	switch {
	case errors.Is(poolErr, ErrSaturated):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		s.writeError(w, http.StatusTooManyRequests, ErrCodeSaturated, "scheduling queue is full, retry later")
		outcome = "shed"
	case errors.Is(poolErr, ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server is shutting down")
		outcome = "shutting-down"
	case streamErr != nil && cw.n == 0:
		// Nothing streamed yet: the status code is still ours to set.
		s.writeError(w, http.StatusInternalServerError, ErrCodeInternal, "sweep: %v", streamErr)
		outcome = "error"
	case streamErr != nil:
		// The 200 and part of the CSV are already on the wire; mark the
		// truncation in-band so clients can tell it from a complete sweep.
		fmt.Fprintf(w, "ERROR,%q,,,,,\n", streamErr.Error())
		outcome = "truncated"
	}
	tr.SetOutcome(outcome)
	s.traces.Publish(tr)
	s.metrics.sweepDur.Observe(time.Since(start))
}

// maxSweepMachines bounds a sweep request's machine list (a sweep runs one
// full four-scheme panel per machine × corpus cell).
const maxSweepMachines = 32

// countingWriter tracks whether any response bytes were written, i.e.
// whether the status code is already committed.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ResolveSweep materializes a sweep request's machine and corpus lists with
// the daemon's defaults and limits applied (empty machines → the built-in
// sweep set, empty corpora → both families, every machine validated and
// size-bounded). Exported for the cluster coordinator, which enumerates the
// same cross-product to shard a job cell-by-cell across the fleet.
func ResolveSweep(req *SweepRequest) ([]*machine.Config, []bench.Corpus, error) {
	var machines []*machine.Config
	if len(req.Machines) == 0 {
		machines = machine.SweepSet()
	} else {
		if len(req.Machines) > maxSweepMachines {
			return nil, nil, fmt.Errorf("%d machines, limit %d", len(req.Machines), maxSweepMachines)
		}
		for i := range req.Machines {
			if err := checkServedMachine(&req.Machines[i]); err != nil {
				return nil, nil, fmt.Errorf("machines[%d]: %v", i, err)
			}
			machines = append(machines, &req.Machines[i])
		}
	}
	if req.MaxLoops < 0 {
		return nil, nil, fmt.Errorf("max_loops %d < 0", req.MaxLoops)
	}

	all := bench.SweepCorpora(req.MaxLoops)
	if len(req.Corpora) == 0 {
		return machines, all, nil
	}
	var corpora []bench.Corpus
	for _, name := range req.Corpora {
		found := false
		for _, c := range all {
			if strings.EqualFold(c.Name, name) {
				corpora = append(corpora, c)
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("unknown corpus %q (want SPECfp95 or DSP)", name)
		}
	}
	return machines, corpora, nil
}
