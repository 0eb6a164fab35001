// POST /v1/schedule/batch: many loops against one machine, amortizing the
// machine parse, the admission bookkeeping and the HTTP round-trips over the
// whole compilation unit.
//
// The response is a streamed JSON array, one element per loop in input
// order. Each element is either the exact singleton /v1/schedule response
// body for that loop — batch and singleton requests share cache entries, so
// the bytes are identical by construction — or an errorResponse object when
// that loop fails admission or scheduling (partial failure is per-loop: one
// bad loop never turns the whole batch into a 400). The cluster coordinator
// forwards a batch as one sub-batch per worker and reassembles the replies;
// the sub-batch encoder, the reply splitter and the framing live here so
// that reassembly is byte-identical to a single worker's batch.

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
	"strconv"
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
// trimmed, or a MarshalError envelope. The result is valid JSON. Every
// element is a JSON object that opens with '{': an error envelope is
// compact, and a singleton body is indented, so each of its lines after the
// first starts with an indent or is its closing '}'. BatchSep followed by
// '{' therefore occurs only between elements, which is how SplitBatch finds
// them.
const (
	BatchOpen  = "[\n"
	BatchSep   = ",\n"
	BatchClose = "\n]\n"
)

// Batch admission: per-loop limits are the singleton ones (each loop is
// admitted exactly as its singleton request would be); on top, the loop
// count and the summed graph size are capped so a batch cannot multiply the
// worst admitted request by an unbounded fan-out.
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

// batchItem is one parsed loop of a batch: the job its singleton request
// would admit, or that request's admission error.
type batchItem struct {
	job *scheduleJob // nil when err != nil
	err error        // this loop's admission error, rendered per-loop
}

// parseBatch decodes a batch envelope and parses every loop. A returned
// error is an envelope-level client error (HTTP 400); per-loop failures land
// in the item's err instead.
//
// The shared machine and scheme are resolved once, and each loop is parsed
// from the envelope's own fields; every item's job and error are those
// parseScheduleRequest gives the loop's singleton request. The decoded
// envelope is returned too, for AppendSubBatch.
func parseBatch(body []byte) (*batchRequestWire, []batchItem, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := new(batchRequestWire)
	if err := dec.Decode(req); err != nil {
		return nil, nil, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Loops) == 0 {
		return nil, nil, fmt.Errorf("batch has no loops")
	}
	if len(req.Loops) > maxBatchLoops {
		return nil, nil, fmt.Errorf("batch has %d loops, limit %d", len(req.Loops), maxBatchLoops)
	}

	m, merr := requestMachine(req.Machine, req.Clusters, req.Regs, req.NBus, req.LatBus)
	alg, scheme, serr := parseScheme(req.Scheme)
	items := make([]batchItem, len(req.Loops))
	nodes, edges := 0, 0
	for i, l := range req.Loops {
		g, err := parseLoop(l.Loop, l.LoopText)
		if err == nil {
			err = merr
		}
		if err == nil {
			err = serr
		}
		if err == nil {
			err = admitLoop(g, m)
		}
		if err != nil {
			items[i].err = err
			continue
		}
		items[i].job = &scheduleJob{g: g, m: m, alg: alg, scheme: scheme}
		nodes += g.N()
		edges += len(g.Edges)
	}
	if nodes > maxBatchNodes {
		return nil, nil, fmt.Errorf("batch carries %d nodes, limit %d", nodes, maxBatchNodes)
	}
	if edges > maxBatchEdges {
		return nil, nil, fmt.Errorf("batch carries %d edges, limit %d", edges, maxBatchEdges)
	}
	return req, items, nil
}

// BatchItem is one loop of a batch envelope as the cluster coordinator sees
// it: the placement key to route it by, or the loop's own admission error
// when it has one (the coordinator renders its MarshalError element in
// place instead of consuming a worker). AppendSubBatch re-encodes forwarded
// loops.
type BatchItem struct {
	Key string // content-address key at epoch 0; empty when Err != nil
	Err error

	env  *batchRequestWire // the envelope the loop came from
	loop *batchLoopWire    // the loop's own fields in it
}

// BatchItems validates a /v1/schedule/batch body exactly as a worker's
// envelope admission does and splits it into per-loop items. The keys are
// computed like ScheduleCacheKey — compiled-in algorithm version, epoch
// zero — so rendezvous placement of a batch's loops matches the placement
// of the equivalent singleton requests.
func BatchItems(body []byte) ([]BatchItem, error) {
	req, items, err := parseBatch(body)
	if err != nil {
		return nil, err
	}
	out := make([]BatchItem, len(items))
	for i := range items {
		out[i] = BatchItem{Err: items[i].err, env: req, loop: &req.Loops[i]}
		if items[i].job != nil {
			out[i].Key = items[i].job.cacheKey(keySalt(schedule.AlgoVersion, 0))
		}
	}
	return out, nil
}

// AppendSubBatch appends to dst the /v1/schedule/batch body that carries
// the loops items[idx[0]], items[idx[1]], … of one envelope, in that order,
// under the envelope's machine and scheme. A worker admits each of its
// loops exactly as it would in the whole envelope — same job, same key,
// same error — so its reply holds the elements the whole envelope's would
// at those positions. The encoding is deterministic, so a repeated
// sub-batch is a verbatim repeat to the worker's body-hash fast path. idx
// must not be empty.
func AppendSubBatch(dst []byte, items []BatchItem, idx []int) []byte {
	env := items[idx[0]].env
	dst = append(dst, '{')
	if len(env.Machine) > 0 {
		dst = append(dst, `"machine":`...)
		dst = append(dst, env.Machine...)
		dst = append(dst, ',')
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{`"clusters":`, env.Clusters}, {`"regs":`, env.Regs}, {`"nbus":`, env.NBus}, {`"latbus":`, env.LatBus}} {
		if f.v != 0 {
			dst = append(dst, f.name...)
			dst = strconv.AppendInt(dst, int64(f.v), 10)
			dst = append(dst, ',')
		}
	}
	if env.Scheme != "" {
		dst = append(dst, `"scheme":`...)
		dst = appendJSONString(dst, env.Scheme)
		dst = append(dst, ',')
	}
	dst = append(dst, `"loops":[`...)
	for k, i := range idx {
		if k > 0 {
			dst = append(dst, ',')
		}
		l := items[i].loop
		dst = append(dst, '{')
		if len(l.Loop) > 0 {
			dst = append(dst, `"loop":`...)
			dst = append(dst, l.Loop...)
			if l.LoopText != "" {
				dst = append(dst, ',')
			}
		}
		if l.LoopText != "" {
			dst = append(dst, `"loop_text":`...)
			dst = appendJSONString(dst, l.LoopText)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendJSONString appends s as a JSON string. s comes out of a JSON
// decode, which leaves only valid UTF-8, so escaping the quote, the
// backslash and the control characters is all JSON requires.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// SplitBatch splits a worker's n-element batch reply into its elements,
// which alias reply. A reply that is not n elements under the framing —
// cut short, or not a batch at all — is an error.
func SplitBatch(reply []byte, n int) ([][]byte, error) {
	if len(reply) < len(BatchOpen)+len(BatchClose) ||
		!bytes.HasPrefix(reply, []byte(BatchOpen)) || !bytes.HasSuffix(reply, []byte(BatchClose)) {
		return nil, fmt.Errorf("batch reply is not framed")
	}
	rest := reply[len(BatchOpen) : len(reply)-len(BatchClose)]
	elems := make([][]byte, 0, n)
	for len(elems) < n {
		end := bytes.Index(rest, elemBoundary)
		if end < 0 {
			end = len(rest)
		}
		e := rest[:end]
		if len(e) < 2 || e[0] != '{' || e[len(e)-1] != '}' {
			return nil, fmt.Errorf("batch reply element %d is not an object", len(elems))
		}
		elems = append(elems, e)
		rest = rest[min(end+len(BatchSep), len(rest)):]
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("batch reply has more than %d elements", n)
	}
	return elems, nil
}

// elemBoundary is where one element ends and the next begins.
var elemBoundary = []byte(BatchSep + "{")

// internalElementPrefix opens every error element with code ErrCodeInternal.
var internalElementPrefix = []byte(`{"error":{"code":"` + ErrCodeInternal + `",`)

// InternalElement reports whether a batch element is an ErrCodeInternal
// error: the loop's schedule computation failed on that worker, where the
// loop's singleton request would have been answered with a 500.
func InternalElement(elem []byte) bool {
	return bytes.HasPrefix(elem, internalElementPrefix)
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
		w.Header().Set("Content-Length", strconv.Itoa(len(cached)))
		w.Header().Set("X-Cache", "hit")
		_, _ = w.Write(cached)
		s.metrics.batchHit.Observe(time.Since(start))
		return
	}

	parse := time.Now()
	_, items, err := parseBatch(body)
	if err != nil {
		s.finishTrace(w, tr, "bad-request")
		s.writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	tr.PhaseNote("parse", fmt.Sprintf("loops=%d", len(items)), time.Since(parse))
	s.metrics.batchLoops.Add(int64(len(items)))

	// Snapshot the epoch once for the whole batch: every element keys with
	// it and the assembled response is inserted under it, so a flush that
	// lands mid-batch invalidates this envelope's insert instead of letting
	// a mixed-epoch body linger.
	epoch := s.cache.Epoch()
	salt := keySalt(s.algo, epoch)
	keys := make([]string, len(items))
	for i := range items {
		if items[i].job != nil {
			keys[i] = items[i].job.cacheKey(salt)
		}
	}

	// A batch whose every loop is cached computes nothing: like a
	// singleton's key hit it is answered here, without a pool slot, and
	// reported as a hit.
	lookup = time.Now()
	if out, ok := s.cachedBatch(items, keys); ok {
		s.metrics.cacheHits.Add(int64(len(items)))
		tr.PhaseNote("cache-lookup", "key-hits", time.Since(lookup))
		s.finishTrace(w, tr, "hit")
		s.cacheBatch(bodyHash, out, epoch)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Header().Set("X-Cache", "hit")
		_, _ = w.Write(out)
		s.metrics.batchHit.Observe(time.Since(start))
		return
	}

	// Like a sweep, the whole batch is one long-running unit of work on a
	// single pool slot; its loops run sequentially inside it. Batch items
	// deliberately bypass the singleflight group: a batch already inside
	// its slot waiting as a follower on a singleton leader that is queued
	// behind that same slot would deadlock, so a rare concurrent identical
	// computation is recomputed instead. The shared cache still unifies
	// the bytes either way. The task writes the response, so it runs to
	// its end once started; it checks the request's context between loops
	// instead, and stops there once the caller is gone.
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer encBufPool.Put(buf)
	clean, canceled := true, false
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
			if r.Context().Err() != nil {
				// Nobody reads the rest; the cut-short envelope is not
				// cached either.
				canceled = true
				return
			}
			if i > 0 {
				_, _ = io.WriteString(mw, BatchSep)
			}
			elem, ok := s.batchElement(&items[i], keys[i], epoch, tr)
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
	case canceled:
		outcome = "canceled"
	default:
		// Only fully served envelopes are cached, matching the singleton
		// rule that error responses are never cached.
		if clean {
			s.cacheBatch(bodyHash, append(make([]byte, 0, buf.Len()), buf.Bytes()...), epoch)
		}
		s.metrics.batchMiss.Observe(time.Since(start))
	}
	tr.SetOutcome(outcome)
	s.traces.Publish(tr)
}

// cachedBatch assembles a batch's reply from the cache alone: ok is false
// when a loop failed admission or is not cached under its key.
func (s *Server) cachedBatch(items []batchItem, keys []string) ([]byte, bool) {
	elems := make([][]byte, len(items))
	n := len(BatchOpen) + len(BatchClose)
	for i := range items {
		if items[i].err != nil {
			return nil, false
		}
		cached, ok := s.cache.Get(keys[i])
		if !ok {
			return nil, false
		}
		elems[i] = trimElement(cached)
		n += len(BatchSep) + len(elems[i])
	}
	out := append(make([]byte, 0, n), BatchOpen...)
	for i, e := range elems {
		if i > 0 {
			out = append(out, BatchSep...)
		}
		out = append(out, e...)
	}
	return append(out, BatchClose...), true
}

// cacheBatch caches a fully served envelope's reply for the verbatim fast
// path, linked to the hash of its request body. The "batch!" prefix cannot
// collide with content-address keys (those are pure hex).
func (s *Server) cacheBatch(bodyHash [sha256.Size]byte, out []byte, epoch uint64) {
	key := "batch!" + hex.EncodeToString(bodyHash[:])
	if s.cache.Add(key, out, epoch) {
		s.cache.LinkBody(key, bodyHash)
	}
}

// batchElement produces one loop's element: the singleton response body
// (shared cache entry under key, trailing newline trimmed) or an error
// object, with ok reporting which. Runs inside the batch's pool slot; tr is
// the envelope's trace, accumulating each computed loop's scheduler phases.
func (s *Server) batchElement(it *batchItem, key string, epoch uint64, tr *obs.Trace) ([]byte, bool) {
	if it.err != nil {
		return MarshalError(ErrCodeBadRequest, it.err.Error()), false
	}
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
		return MarshalError(code, err.Error()), false
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
