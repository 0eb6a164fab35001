// POST /v1/schedule/batch: many loops against one machine, amortizing the
// machine parse, the admission bookkeeping and the HTTP round-trips over the
// whole compilation unit.
//
// The response is a streamed JSON array, one element per loop in input
// order. Each element is either the exact singleton /v1/schedule response
// body for that loop — batch and singleton requests share cache entries, so
// the bytes are identical by construction — or an errorResponse object when
// that loop fails admission or scheduling (partial failure is per-loop: one
// bad loop never turns the whole batch into a 400). The framing constants
// below are exported so the cluster coordinator's distributed reassembly is
// byte-identical to a single worker's batch.

package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// BatchRequest is the body of POST /v1/schedule/batch: the shared machine
// half of a ScheduleRequest (machine text or grid), the shared scheme, and
// one entry per loop.
type BatchRequest struct {
	Machine  *machine.Config `json:"machine,omitempty"`
	Clusters int             `json:"clusters,omitempty"`
	Regs     int             `json:"regs,omitempty"`
	NBus     int             `json:"nbus,omitempty"`
	LatBus   int             `json:"latbus,omitempty"`
	Scheme   string          `json:"scheme,omitempty"`
	Loops    []BatchLoop     `json:"loops"`
}

// BatchLoop is one loop of a batch, in either ScheduleRequest encoding.
type BatchLoop struct {
	Loop     *ddgio.JSONLoop `json:"loop,omitempty"`
	LoopText string          `json:"loop_text,omitempty"`
}

// Batch response framing. An N-element batch is exactly
//
//	BatchOpen elem1 BatchSep elem2 ... BatchSep elemN BatchClose
//
// where each element is a singleton response body with its trailing newline
// trimmed, or an ErrorElement. The result is valid JSON.
const (
	BatchOpen  = "[\n"
	BatchSep   = ",\n"
	BatchClose = "\n]\n"
)

// ErrorElement renders one failed loop's batch element in the unified
// error envelope. The coordinator uses it for loops it cannot forward,
// producing the same bytes the worker batch path would for the same code
// and message.
func ErrorElement(code, msg string) []byte {
	return MarshalError(code, msg)
}

// Batch admission: per-loop limits are the singleton ones (each synthesized
// item passes parseScheduleRequest); on top, the loop count and the summed
// graph size are capped so a batch cannot multiply the worst admitted
// request by an unbounded fan-out.
const (
	maxBatchLoops = 64
	maxBatchNodes = 8 * maxServedNodes
	maxBatchEdges = 8 * maxServedEdges
)

// batchRequestWire is the raw-decode mirror of BatchRequest (see
// scheduleRequestWire for why the machine and loops stay raw).
type batchRequestWire struct {
	Machine  json.RawMessage `json:"machine,omitempty"`
	Clusters int             `json:"clusters,omitempty"`
	Regs     int             `json:"regs,omitempty"`
	NBus     int             `json:"nbus,omitempty"`
	LatBus   int             `json:"latbus,omitempty"`
	Scheme   string          `json:"scheme,omitempty"`
	Loops    []batchLoopWire `json:"loops"`
}

type batchLoopWire struct {
	Loop     json.RawMessage `json:"loop,omitempty"`
	LoopText string          `json:"loop_text,omitempty"`
}

// batchItem is one parsed loop of a batch: the synthesized singleton body
// (identical at worker and coordinator, so both sides parse, key and render
// the same bytes), plus its parse outcome.
type batchItem struct {
	body []byte
	job  *scheduleJob // nil when err != nil
	err  error        // this loop's admission error, rendered per-loop
}

// parseBatch decodes a batch envelope, synthesizes each loop's singleton
// body, and parses every item. A returned error is an envelope-level client
// error (HTTP 400); per-loop failures land in the item's err instead.
func parseBatch(body []byte, mc *machineCache) ([]batchItem, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req batchRequestWire
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Loops) == 0 {
		return nil, fmt.Errorf("batch has no loops")
	}
	if len(req.Loops) > maxBatchLoops {
		return nil, fmt.Errorf("batch has %d loops, limit %d", len(req.Loops), maxBatchLoops)
	}

	items := make([]batchItem, len(req.Loops))
	nodes, edges := 0, 0
	for i, l := range req.Loops {
		single := scheduleRequestWire{
			Loop:     l.Loop,
			LoopText: l.LoopText,
			Machine:  req.Machine,
			Clusters: req.Clusters,
			Regs:     req.Regs,
			NBus:     req.NBus,
			LatBus:   req.LatBus,
			Scheme:   req.Scheme,
		}
		b, err := json.Marshal(single)
		if err != nil {
			return nil, fmt.Errorf("loops[%d]: %v", i, err)
		}
		items[i].body = b
		items[i].job, items[i].err = parseScheduleRequestCached(b, mc)
		if j := items[i].job; j != nil {
			nodes += j.g.N()
			edges += len(j.g.Edges)
		}
	}
	if nodes > maxBatchNodes {
		return nil, fmt.Errorf("batch carries %d nodes, limit %d", nodes, maxBatchNodes)
	}
	if edges > maxBatchEdges {
		return nil, fmt.Errorf("batch carries %d edges, limit %d", edges, maxBatchEdges)
	}
	return items, nil
}

// BatchItem is one loop of a batch envelope as the cluster coordinator sees
// it: the singleton body to forward, the placement key to route it by, and
// the loop's own admission error when it has one (the coordinator renders
// ErrorElement in place instead of consuming a worker).
type BatchItem struct {
	Key  string // content-address key at epoch 0; empty when Err != nil
	Body []byte // synthesized singleton /v1/schedule body
	Err  error
}

// BatchItems validates a /v1/schedule/batch body exactly as a worker's
// envelope admission does and splits it into per-loop singleton requests.
// The keys are computed like ScheduleCacheKey — compiled-in algorithm
// version, epoch zero — so rendezvous placement of a batch's loops matches
// the placement of the equivalent singleton requests.
func BatchItems(body []byte) ([]BatchItem, error) {
	items, err := parseBatch(body, nil)
	if err != nil {
		return nil, err
	}
	out := make([]BatchItem, len(items))
	for i := range items {
		out[i] = BatchItem{Body: items[i].body, Err: items[i].err}
		if items[i].job != nil {
			out[i].Key = items[i].job.cacheKey(keySalt(schedule.AlgoVersion, 0))
		}
	}
	return out, nil
}

func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batchReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "batch")
	tr.SetNode(s.cfg.NodeID)

	body, release, err := s.readBodyPooled(w, r)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: %v", err)
		return
	}
	defer release()

	// Parse-free fast path, envelope-wide: a verbatim repeat of a fully
	// served batch body is answered from the body-hash alias index without
	// re-parsing a single loop — the same one-hash-one-probe-one-write
	// path singletons take, amortized over the whole compilation unit.
	// (No per-loop bookkeeping happens here, so batchLoops only counts
	// parsed fan-outs.)
	lookup := time.Now()
	bodyHash := sha256.Sum256(body)
	if cached, ok := s.cache.GetByBody(bodyHash); ok {
		s.metrics.cacheHits.Add(1)
		s.metrics.bodyHits.Add(1)
		tr.PhaseNote("cache-lookup", "body-hit", time.Since(lookup))
		s.finishTrace(w, tr, "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		_, _ = w.Write(cached)
		s.metrics.batchHit.Observe(time.Since(start))
		return
	}

	parse := time.Now()
	items, err := parseBatch(body, s.machines)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	tr.PhaseNote("parse", fmt.Sprintf("loops=%d", len(items)), time.Since(parse))
	s.metrics.batchLoops.Add(int64(len(items)))
	for i := range items {
		if items[i].job == nil {
			continue
		}
		switch items[i].job.mcState {
		case "hit":
			s.metrics.machineCacheHits.Add(1)
		case "miss":
			s.metrics.machineCacheMisses.Add(1)
		}
	}

	// Snapshot the epoch once for the whole batch: every element keys with
	// it and the assembled response is inserted under it, so a flush that
	// lands mid-batch invalidates this envelope's insert instead of letting
	// a mixed-epoch body linger.
	epoch := s.cache.Epoch()

	// Like a sweep, the whole batch is one long-running unit of work on a
	// single pool slot; its loops run sequentially inside it. Batch items
	// deliberately bypass the singleflight group: a batch already inside
	// its slot waiting as a follower on a singleton leader that is queued
	// behind that same slot would deadlock, so a rare concurrent identical
	// computation is recomputed instead. The shared cache still unifies
	// the bytes either way.
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer encBufPool.Put(buf)
	clean := true
	flusher, _ := w.(http.Flusher)
	queued := time.Now()
	poolErr := s.pool.Do(context.Background(), func() {
		tr.Phase("queue-wait", time.Since(queued))
		// The envelope streams from here on: only the phases so far make
		// the header. Per-loop compute phases keep accumulating in the
		// trace (past MaxPhases they count as Dropped — the ring entry
		// still shows the first loops' spans and the drop tally).
		if st := tr.ServerTiming(); st != "" {
			w.Header().Set("X-Phase-Timing", st)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		mw := io.MultiWriter(w, buf)
		_, _ = io.WriteString(mw, BatchOpen)
		for i := range items {
			if i > 0 {
				_, _ = io.WriteString(mw, BatchSep)
			}
			elem, ok := s.batchElement(&items[i], epoch, tr)
			if !ok {
				clean = false
			}
			_, _ = mw.Write(elem)
			if flusher != nil {
				flusher.Flush()
			}
		}
		_, _ = io.WriteString(mw, BatchClose)
	})
	outcome := "miss"
	switch {
	case errors.Is(poolErr, ErrSaturated):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		s.writeError(w, http.StatusTooManyRequests, ErrCodeSaturated, "scheduling queue is full, retry later")
		outcome = "shed"
	case errors.Is(poolErr, ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server is shutting down")
		outcome = "shutting-down"
	default:
		// Cache the assembled envelope for the verbatim fast path — but
		// only fully served ones, matching the singleton rule that error
		// responses are never cached. The "batch!" prefix cannot collide
		// with content-address keys (those are pure hex).
		if clean {
			out := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
			key := "batch!" + hex.EncodeToString(bodyHash[:])
			if s.cache.Add(key, out, epoch) {
				s.cache.LinkBody(key, bodyHash)
			}
		}
		s.metrics.batchMiss.Observe(time.Since(start))
	}
	tr.SetOutcome(outcome)
	s.traces.Publish(tr)
}

// batchElement produces one loop's element: the singleton response body
// (shared cache entry, trailing newline trimmed) or an error object, with
// ok reporting which. Runs inside the batch's pool slot; tr is the
// envelope's trace, accumulating each computed loop's scheduler phases.
func (s *Server) batchElement(it *batchItem, epoch uint64, tr *obs.Trace) ([]byte, bool) {
	if it.err != nil {
		return ErrorElement(ErrCodeBadRequest, it.err.Error()), false
	}
	key := it.job.cacheKey(keySalt(s.algo, epoch))
	if cached, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return trimElement(cached), true
	}
	s.metrics.cacheMisses.Add(1)
	out, err := s.compute(key, it.job, epoch, tr)
	if err != nil {
		code := ErrCodeInternal
		var cerr *clientError
		if errors.As(err, &cerr) {
			code = ErrCodeBadRequest
		}
		return ErrorElement(code, err.Error()), false
	}
	return trimElement(out), true
}

// trimElement strips the trailing newline a singleton response body carries
// (json.Encoder appends one) so elements join cleanly under the framing.
func trimElement(body []byte) []byte {
	if n := len(body); n > 0 && body[n-1] == '\n' {
		return body[:n-1]
	}
	return body
}
