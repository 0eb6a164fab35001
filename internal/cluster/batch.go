package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// handleScheduleBatch fans a /v1/schedule/batch envelope out across the
// fleet as one sub-batch per worker. Every loop is placed by its own key,
// exactly as its singleton request would be — so batch loops hit the cache
// shards singleton traffic warms — and the loops are grouped by the node
// chosen. Each group goes to that node's /v1/schedule/batch, and the
// replies are split under the server package's framing and reassembled in
// input order, byte-identical to a single worker's batch of the same
// envelope (asserted by the cluster smoke test, including under worker
// kill: a dead worker's loops fail over and the bytes do not change).
// Per-loop failures render as error elements in place; loops that cannot
// be forwarded at all (no workers, fleet saturated) do too, keeping partial
// results useful. A client that hangs up stops the fan-out. Shadow replay
// stays a singleton-path concern.
func (c *Coordinator) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	c.metrics.batchReqs.Add(1)
	start := time.Now()
	tr := obs.AcquireTrace(r.Header.Get(obs.RequestIDHeader), "proxy-batch")
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= server.MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)); err != nil {
		c.finishProxy(w, tr, "batch", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "read body: %v", err)
		return
	}
	items, err := server.BatchItems(buf.Bytes())
	if err != nil {
		c.finishProxy(w, tr, "batch", "bad-request", start)
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	c.metrics.batchLoops.Add(int64(len(items)))
	tr.PhaseNote("admission", fmt.Sprintf("loops=%d", len(items)), time.Since(start))

	w.Header().Set("Content-Type", "application/json")
	// The envelope streams, so X-Phase-Timing goes out before any loop is
	// forwarded and carries admission only; the place and proxy phases
	// land in the published trace, each sub-batch forwarded under the
	// deterministic request ID <envelope>#<its first loop> so a client can
	// pull the whole fan-out from /v1/debug/traces by prefix.
	if st := tr.ServerTiming(); st != "" {
		w.Header().Set("X-Phase-Timing", st)
	}
	f := &batchFanOut{c: c, ctx: r.Context(), tr: tr, items: items, loops: make([]batchLoop, len(items)), w: w, start: time.Now(),
		body: make([]byte, 0, buf.Len())}
	f.flusher, _ = w.(http.Flusher)
	_, _ = io.WriteString(w, server.BatchOpen)
	outcome := f.run()
	_, _ = io.WriteString(w, server.BatchClose)
	tr.SetOutcome(outcome)
	c.traces.Publish(tr)
}

// batchFanOut is one envelope's walk across the fleet. It goes in rounds:
// a round places every loop still unanswered against one candidates()
// snapshot, then forwards the resulting sub-batches one at a time in order
// of their first loop. Loops a round could not answer — their node failed
// or shed them — carry that node in their exclusion set into the next
// round, which is the walk each would take as a singleton.
type batchFanOut struct {
	c     *Coordinator
	ctx   context.Context
	tr    *obs.Trace
	items []server.BatchItem
	loops []batchLoop
	// start is when forwarding began; each loop's latency sample runs from
	// it to the moment its element is known.
	start time.Time

	w       io.Writer
	flusher http.Flusher
	written int    // elements written so far: a prefix of the envelope
	body    []byte // sub-batch encoding, reused across forwards; sized to the envelope's body
}

// batchLoop is one loop's state in a fan-out: what its walk down the HRW
// ranking has seen, as scheduleOnFleet tracks it for a singleton, and its
// element once known.
type batchLoop struct {
	exclude    map[string]bool
	lastErr    error // last worker failure or shed
	spilled    bool  // some attempt was placed on a bounded-load spill target
	failedOver bool  // some worker failed the loop (a shed is no failure)
	elem       []byte
	done       bool
}

// subBatch is the loops of one round placed on one node, in envelope order.
type subBatch struct {
	node  candidate
	loops []int
}

// run drives the fan-out to its end and returns the envelope's trace
// outcome: "ok", or "canceled" when the client hung up first.
func (f *batchFanOut) run() string {
	pending := make([]int, 0, len(f.items))
	for i := range f.items {
		if err := f.items[i].Err; err != nil {
			// A loop that fails admission renders locally, burning no
			// worker.
			f.loops[i].elem, f.loops[i].done = server.MarshalError(server.ErrCodeBadRequest, err.Error()), true
			continue
		}
		pending = append(pending, i)
	}
	f.emit()
	for len(pending) > 0 && f.ctx.Err() == nil {
		groups := f.place(pending)
		pending = pending[:0]
		f.emit() // loops left without a candidate are answered
		for _, g := range groups {
			if f.ctx.Err() != nil {
				break
			}
			pending = f.forward(g, pending)
			f.emit()
		}
		slices.Sort(pending)
	}
	if f.ctx.Err() == nil {
		return "ok"
	}
	// The client hung up: nobody reads the remaining elements.
	for i := range f.loops {
		if !f.loops[i].done {
			f.c.metrics.observe("batch", "canceled", time.Since(f.start))
		}
	}
	return "canceled"
}

// place places every pending loop by its own key and exclusion set against
// one candidates() snapshot, taken before any of the round's forwards holds
// a slot — otherwise the batch's own in-flight count would push its later
// loops past the load bound and off their owners. A loop with no candidate
// left is answered here. The sub-batches come back in order of their first
// loop.
func (f *batchFanOut) place(pending []int) []subBatch {
	cands := f.c.reg.candidates()
	var groups []subBatch
	for _, i := range pending {
		l := &f.loops[i]
		key := f.items[i].Key
		placeStart := time.Now()
		node, owner, rank, ok := place(cands, key, l.exclude, f.c.cfg.LoadBound)
		if !ok {
			f.exhausted(i)
			continue
		}
		f.c.countPlacement(node, owner, rank, key)
		l.spilled = l.spilled || rank > 0
		f.tr.PhaseNote("place", fmt.Sprintf("loop=%d node=%s rank=%d owner=%s spilled=%t excluded=%d",
			i, node.id, rank, owner, rank > 0, len(l.exclude)), time.Since(placeStart))
		k := slices.IndexFunc(groups, func(g subBatch) bool { return g.node.id == node.id })
		if k < 0 {
			k = len(groups)
			groups = append(groups, subBatch{node: node})
		}
		groups[k].loops = append(groups[k].loops, i)
	}
	return groups
}

// forward sends one sub-batch to its node under one in-flight slot and a
// timeout of ScheduleTimeout per loop, so no loop gets less time than it
// would alone. Loops it answers are resolved; the ones to re-place next
// round are appended to pending, which is returned.
//
// A sub-batch that fails whole — transport error, a reply cut short or not
// framed as n elements, a 5xx — suspects its node and fails every loop
// over. A 429 excludes the node without suspecting it. An element with
// code internal, the worker's rendering of what a singleton answers with a
// 500, fails that loop alone over. A canceled forward is no verdict on the
// worker: its loops stay unanswered and the fan-out stops.
func (f *batchFanOut) forward(g subBatch, pending []int) []int {
	c, node := f.c, g.node
	f.body = server.AppendSubBatch(f.body[:0], f.items, g.loops)
	reqID := obs.SuffixID(f.tr.ID, g.loops[0])
	note := "node=" + node.id + " loops=" + joinLoops(g.loops)
	proxyStart := time.Now()
	c.metrics.batchForwards.Add(1)
	c.reg.incInflight(node.id)
	resp, reply, err := c.forward(f.ctx, node, "/v1/schedule/batch", f.body, c.cfg.ScheduleTimeout*time.Duration(len(g.loops)), reqID)
	c.reg.decInflight(node.id)
	var elems [][]byte
	if err == nil && resp.StatusCode == http.StatusOK {
		elems, err = server.SplitBatch(reply, len(g.loops))
	}
	switch {
	case err != nil && f.ctx.Err() != nil:
		f.tr.PhaseNote("proxy", note+" canceled", time.Since(proxyStart))
	case err != nil, resp.StatusCode >= 500:
		tag, lastErr := workerFailure(node.id, resp, reply, err)
		c.reg.reportFailure(node.id)
		f.tr.PhaseNote("proxy", note+" "+tag, time.Since(proxyStart))
		c.log.Warn("worker sub-batch failed, failing its loops over",
			"request", reqID, "node", node.id, "loops", len(g.loops), "reason", lastErr.Error())
		for _, i := range g.loops {
			f.failOver(i, node.id, lastErr)
		}
		pending = append(pending, g.loops...)
	case resp.StatusCode == http.StatusTooManyRequests:
		// Saturation is load, not sickness: try another worker without
		// marking this one suspect.
		c.metrics.retries.Add(int64(len(g.loops)))
		f.tr.PhaseNote("proxy", note+" saturated", time.Since(proxyStart))
		c.log.Info("worker saturated, re-placing its sub-batch", "request", reqID, "node", node.id, "loops", len(g.loops))
		for _, i := range g.loops {
			l := &f.loops[i]
			l.excludeNode(node.id)
			l.lastErr = fmt.Errorf("worker %s saturated", node.id)
		}
		pending = append(pending, g.loops...)
	case resp.StatusCode != http.StatusOK:
		// A request-defect 4xx is wrong on every worker: relay it as each
		// loop's element, as the singleton path relays it.
		f.tr.PhaseNote("proxy", note+" http-"+strconv.Itoa(resp.StatusCode), time.Since(proxyStart))
		elem := bytes.TrimSuffix(reply, []byte("\n"))
		for _, i := range g.loops {
			f.resolve(i, elem)
		}
	default:
		var internal []int
		for k, i := range g.loops {
			if !server.InternalElement(elems[k]) {
				f.resolve(i, elems[k])
				continue
			}
			// The message a singleton's 500 would have carried.
			lastErr := fmt.Errorf("worker %s answered %d: %s", node.id, http.StatusInternalServerError, firstLine(elems[k]))
			c.reg.reportFailure(node.id)
			c.log.Warn("worker failed a batch loop, failing it over",
				"request", reqID, "node", node.id, "loop", i, "reason", lastErr.Error())
			f.failOver(i, node.id, lastErr)
			internal = append(internal, i)
		}
		if len(internal) > 0 {
			note += " internal=" + joinLoops(internal)
		}
		f.tr.PhaseNote("proxy", note+" http-200", time.Since(proxyStart))
		pending = append(pending, internal...)
	}
	return pending
}

// failOver records that node failed loop i: the node is excluded from the
// loop's next placement and the failover counted.
func (f *batchFanOut) failOver(i int, nodeID string, err error) {
	l := &f.loops[i]
	l.excludeNode(nodeID)
	l.lastErr, l.failedOver = err, true
	f.c.metrics.failovers.Add(1)
}

func (l *batchLoop) excludeNode(id string) {
	if l.exclude == nil {
		l.exclude = map[string]bool{}
	}
	l.exclude[id] = true
}

// resolve records loop i's element, observed as one endpoint="batch"
// latency sample under the loop's own placement outcome.
func (f *batchFanOut) resolve(i int, elem []byte) {
	l := &f.loops[i]
	l.elem, l.done = elem, true
	f.c.metrics.observe("batch", placementOutcome(l.failedOver, l.spilled), time.Since(f.start))
}

// exhausted answers a loop that has no candidate left, with the code and
// message its singleton request would get.
func (f *batchFanOut) exhausted(i int) {
	l := &f.loops[i]
	var outcome string
	switch {
	case l.lastErr == nil:
		f.c.metrics.noCapacity.Add(1)
		outcome = "no-workers"
		l.elem = server.MarshalError(server.ErrCodeNoWorkers, "no ready workers")
	case !l.failedOver:
		f.c.metrics.noCapacity.Add(1)
		outcome = "saturated"
		l.elem = server.MarshalError(server.ErrCodeSaturated, "every worker is saturated, retry later")
	default:
		outcome = "error"
		l.elem = server.MarshalError(server.ErrCodeUpstreamFailed, fmt.Sprintf("all workers failed, last: %v", l.lastErr))
	}
	l.done = true
	f.c.metrics.observe("batch", outcome, time.Since(f.start))
}

// emit writes every element whose predecessors are all written, then
// flushes, so the client sees each element as soon as the envelope's
// prefix up to it is known. Once every element is written the flush is
// left to the handler's return, which sends them with the closing bracket.
func (f *batchFanOut) emit() {
	from := f.written
	for f.written < len(f.loops) && f.loops[f.written].done {
		if f.written > 0 {
			_, _ = io.WriteString(f.w, server.BatchSep)
		}
		_, _ = f.w.Write(f.loops[f.written].elem)
		f.written++
	}
	if f.written > from && f.written < len(f.loops) && f.flusher != nil {
		f.flusher.Flush()
	}
}

// joinLoops renders loop indices for a trace note: "0,2,5".
func joinLoops(loops []int) string {
	b := make([]byte, 0, 4*len(loops))
	for k, i := range loops {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return string(b)
}
