// Package server implements the gpserved HTTP daemon: modulo scheduling as
// a service over the repository's core packages.
//
// Endpoints:
//
//	POST /v1/schedule          one loop + machine + scheme → schedule, IPC, verdict
//	POST /v1/schedule/batch    many loops on one machine → one element per loop
//	POST /v1/sweep             machines × corpora × schemes sweep, streamed as CSV
//	POST /v1/cache/flush       wipe the result cache and raise its epoch
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus-style counters and latency histograms
//	GET  /v1/debug/traces      recent request traces, newest first
//	GET  /v1/debug/traces/{id} one request's trace
//
// Identical requests are content-hash keyed into an LRU cache and replayed
// byte-identically; concurrent identical requests coalesce into a single
// computation (singleflight); distinct requests run on a bounded worker
// pool whose full queue sheds load with 429 + Retry-After. Every cache miss
// is re-checked by the schedule.Verify oracle before the result is cached.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ddgio"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// ScheduleRequest is the body of POST /v1/schedule. The loop arrives either
// as the ddgio text format (LoopText) or as the JSON encoding (Loop) —
// exactly one. The machine is either a machine-description text (Machine)
// or the paper's homogeneous grid (Clusters/Regs/NBus/LatBus). Scheme
// defaults to GP.
type ScheduleRequest struct {
	Loop     *ddgio.JSONLoop `json:"loop,omitempty"`
	LoopText string          `json:"loop_text,omitempty"`

	// Machine is a machine-description text on the wire (a JSON string);
	// machine.Config's TextMarshaler/TextUnmarshaler do the round-trip, so
	// decoding parses and validates it in one step.
	Machine  *machine.Config `json:"machine,omitempty"`
	Clusters int             `json:"clusters,omitempty"`
	Regs     int             `json:"regs,omitempty"`
	NBus     int             `json:"nbus,omitempty"`
	LatBus   int             `json:"latbus,omitempty"`

	Scheme string `json:"scheme,omitempty"`
}

// scheduleRequestWire mirrors ScheduleRequest but holds the loop and
// machine values raw, so that a malformed one is reported as "bad loop:"
// or "bad machine:" rather than as a bad request body, and so that
// AppendSubBatch can splice a batch envelope's values into a sub-batch
// verbatim.
type scheduleRequestWire struct {
	Loop     json.RawMessage `json:"loop,omitempty"`
	LoopText string          `json:"loop_text,omitempty"`
	Machine  json.RawMessage `json:"machine,omitempty"`
	Clusters int             `json:"clusters,omitempty"`
	Regs     int             `json:"regs,omitempty"`
	NBus     int             `json:"nbus,omitempty"`
	LatBus   int             `json:"latbus,omitempty"`
	Scheme   string          `json:"scheme,omitempty"`
}

// rawPresent reports whether a raw JSON field carries a value ("null"
// counts as absent, matching the typed decode it replaced).
func rawPresent(raw json.RawMessage) bool {
	return len(raw) > 0 && string(raw) != "null"
}

// ScheduleResponse is the body of a successful POST /v1/schedule. It is
// fully deterministic for a given request — no wall-clock fields — so a
// cache hit is byte-identical to the cold response. Whether a response came
// from the cache is reported out of band in the X-Cache header.
type ScheduleResponse struct {
	// Loop is the loop's canonical name (ddgio.CanonicalName), the one its
	// cache key hashes, so responses under one key name the loop alike.
	Loop    string `json:"loop"`
	Machine string `json:"machine"`
	Scheme  string `json:"scheme"`

	MII          int     `json:"mii"`
	II           int     `json:"ii"`
	SL           int     `json:"sl"`
	Stages       int     `json:"stages"`
	IPC          float64 `json:"ipc"`
	Cycles       int64   `json:"cycles"`
	ListFallback bool    `json:"list_fallback,omitempty"`
	Spills       int     `json:"spills"`
	MemRoutes    int     `json:"mem_routes"`
	MaxLive      []int   `json:"max_live"`

	Time    []int            `json:"time"`
	Cluster []int            `json:"cluster"`
	Comms   []schedule.Comm  `json:"comms,omitempty"`
	MemOps  []schedule.MemOp `json:"mem_ops,omitempty"`

	// Verified reports that the schedule.Verify oracle re-checked this
	// schedule from scratch. Always true in a served response: a verdict
	// failure is a 500, never a cached result.
	Verified bool `json:"verified"`
}

// SchemaVersion identifies the wire codec: the request/response JSON
// shapes, the batch framing, and the error envelope. Bump it on any
// incompatible change to those shapes. It is folded into every cache key
// (two codec generations never share an entry), advertised on every
// response as X-Schema-Version and in the register/heartbeat payloads, and
// the coordinator refuses mixed-schema fleets the same way it refuses
// mixed algorithm versions.
const SchemaVersion = "wire/1"

// Stable machine-readable error codes carried by every error envelope.
// Clients branch on the code, not the message; the message is for humans.
const (
	ErrCodeBadRequest     = "bad_request"     // 400: request failed admission
	ErrCodeSaturated      = "saturated"       // 429: queue full, Retry-After set
	ErrCodeShuttingDown   = "shutting_down"   // 503: daemon draining
	ErrCodeNotFound       = "not_found"       // 404: unknown resource
	ErrCodeInternal       = "internal"        // 500: scheduling or verify failure
	ErrCodeNoWorkers      = "no_workers"      // 503: coordinator has no ready workers
	ErrCodeUpstreamFailed = "upstream_failed" // 502: every placement attempt failed
	ErrCodeSchemaMismatch = "schema_mismatch" // 409: worker's wire codec differs from the fleet's
	ErrCodeJobTableFull   = "job_table_full"  // 429: job table at capacity
)

// ErrorRetryable reports whether a code names a condition a client should
// retry (possibly after Retry-After) rather than a permanent failure.
func ErrorRetryable(code string) bool {
	switch code {
	case ErrCodeSaturated, ErrCodeShuttingDown, ErrCodeNoWorkers, ErrCodeUpstreamFailed, ErrCodeJobTableFull:
		return true
	}
	return false
}

// ErrorBody is the inner object of the unified error envelope
// {"error": {"code", "message", "retryable"}} shared by gpserved and
// gpcoordd.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// MarshalError renders the unified error envelope for a code and message:
// a non-2xx response body without its newline, or a failed loop's batch
// element. The coordinator shares it so both daemons' error bodies and
// batch elements are shaped — and byte-rendered — identically.
func MarshalError(code, msg string) []byte {
	b, err := json.Marshal(errorResponse{Error: ErrorBody{Code: code, Message: msg, Retryable: ErrorRetryable(code)}})
	if err != nil {
		// ErrorBody has only plain fields; Marshal cannot fail.
		return []byte(`{"error":{"code":"internal","message":"unrenderable error"}}`)
	}
	return b
}

// scheduleJob is a decoded, validated schedule request.
type scheduleJob struct {
	g      *ddg.Graph
	m      *machine.Config
	alg    core.Algorithm
	scheme string
}

// parseScheduleRequest decodes and validates a request body. Any error is a
// client error (HTTP 400).
func parseScheduleRequest(body []byte) (*scheduleJob, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req scheduleRequestWire
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	g, err := parseLoop(req.Loop, req.LoopText)
	if err != nil {
		return nil, err
	}
	m, err := requestMachine(req.Machine, req.Clusters, req.Regs, req.NBus, req.LatBus)
	if err != nil {
		return nil, err
	}
	alg, scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}
	if err := admitLoop(g, m); err != nil {
		return nil, err
	}
	return &scheduleJob{g: g, m: m, alg: alg, scheme: scheme}, nil
}

// parseLoop parses the loop half of a request: the JSON encoding (raw) or
// the ddgio text, exactly one of them.
func parseLoop(raw json.RawMessage, text string) (*ddg.Graph, error) {
	haveLoop := rawPresent(raw)
	switch {
	case haveLoop && text != "":
		return nil, fmt.Errorf("give exactly one of loop and loop_text, not both")
	case haveLoop:
		jl := new(ddgio.JSONLoop)
		if err := json.Unmarshal(raw, jl); err != nil {
			return nil, fmt.Errorf("bad loop: %v", err)
		}
		return ddgio.FromJSON(jl)
	case text != "":
		loops, err := ddgio.ReadString(text)
		if err != nil {
			return nil, err
		}
		if len(loops) != 1 {
			return nil, fmt.Errorf("loop_text must contain exactly one loop, got %d", len(loops))
		}
		return loops[0], nil
	}
	return nil, fmt.Errorf("missing loop: give loop (JSON) or loop_text (ddgio text)")
}

// requestMachine resolves the machine half of a request: a description
// text (raw, a JSON string) or the clusters/regs/nbus/latbus grid. The
// machine is validated and within the served size limits.
func requestMachine(raw json.RawMessage, clusters, regs, nbus, latbus int) (*machine.Config, error) {
	var m *machine.Config
	switch {
	case rawPresent(raw) && (clusters != 0 || regs != 0 || nbus != 0 || latbus != 0):
		return nil, fmt.Errorf("give either machine or the clusters/regs/nbus/latbus grid, not both")
	case rawPresent(raw):
		m = new(machine.Config)
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, fmt.Errorf("bad machine: %v", err)
		}
	case clusters == 1:
		m = machine.NewUnified(defaultRegs(regs))
	case clusters != 0:
		var err error
		m, err = machine.NewClustered(clusters, defaultRegs(regs), defaultOne(nbus), defaultOne(latbus))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("missing machine: give machine (description text) or clusters")
	}
	// The grid constructors check divisibility, not positivity (e.g. -8
	// registers split evenly); Parse validates internally, the grid paths
	// must too, so nothing invalid gets past admission.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkServedMachine(m); err != nil {
		return nil, err
	}
	return m, nil
}

// admitLoop applies the cheap admission guards, O(nodes + edges), to a
// parsed loop on its machine. Everything on the handler goroutine must
// stay linear; the expensive MII analysis runs behind the worker pool (see
// admissionCheck). The scheduler's working-set size scales with loop size
// and initiation interval (reservation tables allocate O(units·II) per
// cluster), so an unauthenticated request must not drive either unbounded:
// a loop needing a unit kind the machine lacks has an unbounded resource
// MII, and a single huge edge latency drives the recurrence MII (and every
// schedule-time buffer) to its own magnitude.
func admitLoop(g *ddg.Graph, m *machine.Config) error {
	if g.N() > maxServedNodes {
		return fmt.Errorf("loop has %d nodes, limit %d", g.N(), maxServedNodes)
	}
	if len(g.Edges) > maxServedEdges {
		return fmt.Errorf("loop has %d edges, limit %d", len(g.Edges), maxServedEdges)
	}
	if g.Niter > maxServedNiter {
		return fmt.Errorf("trip count %d exceeds limit %d", g.Niter, maxServedNiter)
	}
	for i, e := range g.Edges {
		if e.Lat > maxServedLat {
			return fmt.Errorf("edge %d latency %d exceeds limit %d", i, e.Lat, maxServedLat)
		}
		if e.Dist > maxServedDist {
			return fmt.Errorf("edge %d distance %d exceeds limit %d", i, e.Dist, maxServedDist)
		}
	}
	counts := g.OpCounts()
	for k := 0; k < isa.NumUnitKinds; k++ {
		if counts[k] > 0 && m.TotalUnits(isa.UnitKind(k)) == 0 {
			return fmt.Errorf("machine %s has no %v units but the loop needs %d", m.Name, isa.UnitKind(k), counts[k])
		}
	}
	return nil
}

// Admission limits for served scheduling work. Generous against every real
// workload (the corpora top out at ~100 ops, latencies and distances in
// single digits) while keeping the worst admitted request's memory — and
// the pooled MII analysis, which is O(nodes·edges) per feasibility probe —
// bounded.
const (
	maxServedNodes = 1024
	maxServedEdges = 8192
	maxServedNiter = 1 << 31
	maxServedLat   = 1 << 16
	maxServedDist  = 256
	maxServedII    = 4096
)

// checkServedMachine bounds the machine half of a request the same way the
// loop half is bounded: machine.Validate accepts arbitrarily large
// configurations (it checks consistency, not size), but reservation tables
// allocate O(clusters·II) functional-unit slots and O(channels·II)
// transfer slots — channels is clusters² on point-to-point machines — and
// scheduling work grows with every latency. None of that may scale with a
// hostile description.
func checkServedMachine(m *machine.Config) error {
	if m.Clusters > maxServedClusters {
		return fmt.Errorf("machine has %d clusters, limit %d", m.Clusters, maxServedClusters)
	}
	if m.NBus > maxServedNBus {
		return fmt.Errorf("machine has %d buses/links, limit %d", m.NBus, maxServedNBus)
	}
	if m.LatBus > maxServedLat {
		return fmt.Errorf("bus latency %d exceeds limit %d", m.LatBus, maxServedLat)
	}
	for op := 0; op < isa.NumOpClasses; op++ {
		if m.Latency[op] > maxServedLat {
			return fmt.Errorf("latency %d for %v exceeds limit %d", m.Latency[op], isa.OpClass(op), maxServedLat)
		}
	}
	for cl := 0; cl < m.Clusters; cl++ {
		for k := 0; k < isa.NumUnitKinds; k++ {
			if u := m.UnitsIn(cl, isa.UnitKind(k)); u > maxServedUnits {
				return fmt.Errorf("cluster %d has %d %v units, limit %d", cl, u, isa.UnitKind(k), maxServedUnits)
			}
		}
	}
	return nil
}

const (
	maxServedClusters = 16
	maxServedNBus     = 64
	maxServedUnits    = 64
)

// clientError marks a defect in the request content discovered after
// admission, on a worker; the handler maps it to 400 instead of 500.
type clientError struct{ err error }

func (e *clientError) Error() string { return e.err.Error() }
func (e *clientError) Unwrap() error { return e.err }

// admissionCheck runs the request-dependent analysis too expensive for the
// handler goroutine: the MII (a Bellman-Ford binary search) must land in
// the served range, or the schedule-time buffers would scale with a
// hostile request. It runs on a pool worker, behind backpressure.
func (j *scheduleJob) admissionCheck() error {
	if mii := j.g.MII(j.m); mii < 1 || mii > maxServedII {
		return &clientError{fmt.Errorf("minimum initiation interval %d outside served range [1, %d]", mii, maxServedII)}
	}
	return nil
}

func defaultRegs(v int) int {
	if v == 0 {
		return 64
	}
	return v
}

func defaultOne(v int) int {
	if v == 0 {
		return 1
	}
	return v
}

// parseScheme maps the wire scheme name to the algorithm and its canonical
// spelling.
func parseScheme(s string) (core.Algorithm, string, error) {
	switch strings.ToLower(s) {
	case "", "gp":
		return core.GP, "GP", nil
	case "fixed", "fixedpartition":
		return core.FixedPartition, "Fixed", nil
	case "uracam":
		return core.URACAM, "URACAM", nil
	}
	return 0, "", fmt.Errorf("unknown scheme %q (want GP, Fixed or URACAM)", s)
}

// keySalt builds the identity salt folded into every cache key: the wire
// schema version, the algorithm version string and the cache epoch. Two
// workers running different scheduler generations or codec generations —
// or one worker across a flush — can therefore never collide on a key,
// even for byte-identical requests.
func keySalt(algoVersion string, epoch uint64) string {
	return SchemaVersion + "\x00" + algoVersion + "\x00" + strconv.FormatUint(epoch, 10)
}

// cacheKey content-addresses the job under an algorithm-identity salt: the
// salt, the canonical machine description, the canonical ddgio text of the
// loop, and the scheme. Equivalent requests — JSON loop vs. text loop,
// grid machine vs. its description — share one cache entry; requests
// scheduled by different algorithm generations never do. The hashed text
// is rendered into one pooled buffer and hashed in a single call.
func (j *scheduleJob) cacheKey(salt string) string {
	bp := keyBufPool.Get().(*[]byte)
	b := append((*bp)[:0], salt...)
	b = append(b, 0)
	b = machine.AppendFormat(b, j.m)
	b = append(b, 0)
	b = append(b, j.scheme...)
	b = append(b, 0)
	b = ddgio.AppendText(b, j.g)
	sum := sha256.Sum256(b)
	if cap(b) <= maxPooledKeyBuf {
		*bp = b
		keyBufPool.Put(bp)
	}
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// keyBufPool recycles cacheKey's text buffers. A buffer that grew past
// maxPooledKeyBuf for an outsized loop is left to the collector.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledKeyBuf = 64 << 10

// ScheduleCacheKey parses and validates a /v1/schedule body exactly as the
// daemon's admission does and returns the request's content-address cache
// key under the compiled-in algorithm version at epoch zero. The cluster
// coordinator routes on it — rendezvous hashing the key over the worker
// fleet sends identical requests to the same worker, whose LRU then acts
// as one shard of a distributed cache — and uses the parse error to shed
// malformed bodies before they consume a worker. Placement deliberately
// ignores the runtime epoch: a fleet-wide flush must invalidate bytes, not
// reshuffle which shard owns which request.
func ScheduleCacheKey(body []byte) (string, error) {
	job, err := parseScheduleRequest(body)
	if err != nil {
		return "", err
	}
	return job.cacheKey(keySalt(schedule.AlgoVersion, 0)), nil
}

// buildResponse assembles the deterministic response body from a scheduling
// result. It excludes every wall-clock field of core.Result on purpose.
func buildResponse(j *scheduleJob, res *core.Result) *ScheduleResponse {
	s := res.Schedule
	return &ScheduleResponse{
		Loop:         ddgio.CanonicalName(j.g.Name),
		Machine:      j.m.Name,
		Scheme:       j.scheme,
		MII:          res.MII,
		II:           s.II,
		SL:           s.SL,
		Stages:       s.Stages(),
		IPC:          res.IPC(j.g),
		Cycles:       s.Cycles(j.g.Niter),
		ListFallback: res.ListFallback,
		Spills:       s.Spills,
		MemRoutes:    s.MemRoutes,
		MaxLive:      s.MaxLive,
		Time:         s.Time,
		Cluster:      s.Cluster,
		Comms:        s.Comms,
		MemOps:       s.MemOps,
		Verified:     true,
	}
}
