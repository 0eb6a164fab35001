package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// Fleet shape: gpcoordd with two gpserved workers and one closed-loop
// client, so that the CPU time the process spends while a request is in
// flight is that request's cost. One request in flight stays under the
// bounded-load threshold, so every request lands on its key's HRW owner.
const (
	fleetWorkers = 2
	fleetSetups  = 3 // set-ups per untraced run; setup_s is their median
)

// Span names of the fleet ledger. The worker span is named after the
// worker's X-Cache verdict once its handler has returned.
const (
	rootRequest  = "bench.request"
	spanHTTP     = "http.roundtrip"
	spanSchedule = "cluster.schedule"
	spanBatch    = "cluster.batch"
	spanWorker   = "server."
)

type fleetNode struct {
	srv   *server.Server
	hs    *http.Server
	agent *server.Agent
}

// fleet is gpcoordd and its workers running in-process on loopback.
type fleet struct {
	coord   *cluster.Coordinator
	chs     *http.Server
	base    string
	nodes   []*fleetNode
	serving sync.WaitGroup
}

// timed wraps a daemon's handler so that, while rec records, every
// scheduling request it serves becomes a span named by name(r, w) under the
// request ID the caller sent. A nil recorder leaves the handler untouched.
func timed(rec *recorder, next http.Handler, name func(*http.Request, http.ResponseWriter) string) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/schedule") {
			next.ServeHTTP(w, r)
			return
		}
		start := rec.now()
		next.ServeHTTP(w, r)
		end := rec.now()
		rec.add(span{Name: name(r, w), ID: r.Header.Get(obs.RequestIDHeader), Start: start, End: end, Parent: -1})
	})
}

func coordinatorSpan(r *http.Request, _ http.ResponseWriter) string {
	if r.URL.Path == "/v1/schedule/batch" {
		return spanBatch
	}
	return spanSchedule
}

func workerSpan(_ *http.Request, w http.ResponseWriter) string {
	return spanWorker + w.Header().Get("X-Cache")
}

func (f *fleet) serve(hs *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet boots the coordinator and its workers, registers the workers
// through the real agent protocol and waits until all are ready.
func startFleet(rec *recorder) (*fleet, error) {
	coord, err := cluster.New(cluster.Config{})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord}
	f.chs = &http.Server{Handler: timed(rec, coord.Handler(), coordinatorSpan)}
	if f.base, err = f.serve(f.chs); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		id := "worker-" + strconv.Itoa(i)
		srv := server.New(server.Config{NodeID: id})
		n := &fleetNode{srv: srv, hs: &http.Server{Handler: timed(rec, srv.Handler(), workerSpan)}}
		f.nodes = append(f.nodes, n)
		endpoint, err := f.serve(n.hs)
		if err != nil {
			f.close()
			return nil, err
		}
		n.agent = server.StartAgent(server.AgentConfig{
			Coordinator: f.base,
			NodeID:      id,
			Endpoint:    endpoint,
			Capacity:    runtime.GOMAXPROCS(0),
			AlgoVersion: srv.AlgoVersion(),
			Load:        srv.Load,
			Epoch:       srv.Epoch,
			ApplyEpoch:  func(e uint64) { srv.FlushTo(e) },
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := 0
		for _, n := range coord.Nodes() {
			if n.State == cluster.NodeReady.String() {
				ready++
			}
		}
		if ready == fleetWorkers {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("only %d of %d workers registered", ready, fleetWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the agents, the workers and the coordinator, and waits for
// every listener goroutine to return.
func (f *fleet) close() {
	for _, n := range f.nodes {
		if n.agent != nil {
			n.agent.Close()
		}
	}
	for _, n := range f.nodes {
		_ = n.hs.Close()
		n.srv.Close()
	}
	if f.chs != nil {
		_ = f.chs.Close()
	}
	f.coord.Close()
	f.serving.Wait()
}

// newClient returns an HTTP client that keeps one connection alive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// post sends one scheduling request under request ID id and reads the
// whole reply. While rec records, the round trip, request construction
// included, becomes an http span.
func post(hc *http.Client, rec *recorder, url, id string, body []byte) (int, []byte, error) {
	start := rec.now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.add(span{Name: spanHTTP, ID: id, Start: start, End: rec.now(), Parent: -1})
	return resp.StatusCode, got, err
}

// fill sends every singleton once, cold, through the coordinator and keeps
// each response as the reference copy of its key, then sends every batch
// once and checks it against the framed references. Any failure here is
// fatal: without references there is nothing to check the timed phase by.
func (f *fleet) fill(in *fleetInputs, rec *recorder) ([][]byte, error) {
	refs := make([][]byte, len(in.singles))
	hc := newClient()
	defer hc.CloseIdleConnections()
	for i, single := range in.singles {
		id := "fill-" + strconv.Itoa(i)
		start := rec.now()
		status, body, err := post(hc, rec, f.base+"/v1/schedule", id, single)
		rec.add(span{Name: rootRequest, ID: id, Start: start, End: rec.now(), Parent: -1})
		switch {
		case err != nil:
			return nil, fmt.Errorf("fill %s: %w", in.names[i], err)
		case status != http.StatusOK:
			return nil, fmt.Errorf("fill %s: HTTP %d: %s", in.names[i], status, firstLine(body))
		}
		var reply server.ScheduleResponse
		if err := json.Unmarshal(body, &reply); err != nil {
			return nil, fmt.Errorf("fill %s: decode reply: %w", in.names[i], err)
		}
		if !reply.Verified {
			return nil, fmt.Errorf("fill %s: reply is not verified", in.names[i])
		}
		refs[i] = body
	}
	for b, fb := range in.batches {
		id := "warm-" + strconv.Itoa(b)
		start := rec.now()
		status, body, err := post(hc, rec, f.base+"/v1/schedule/batch", id, fb.body)
		rec.add(span{Name: rootRequest, ID: id, Start: start, End: rec.now(), Parent: -1})
		if err != nil {
			return nil, fmt.Errorf("warm batch %s: %w", fb.name, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm batch %s: HTTP %d: %s", fb.name, status, firstLine(body))
		}
		if !bytes.Equal(body, frameBatch(members(refs, fb.members))) {
			return nil, fmt.Errorf("warm batch %s: envelope differs from its framed singleton bodies", fb.name)
		}
	}
	return refs, nil
}

func members(refs [][]byte, idx []int) [][]byte {
	out := make([][]byte, len(idx))
	for i, k := range idx {
		out[i] = refs[k]
	}
	return out
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}

// closedLoop is one timed phase of fleet-zipf.
type closedLoop struct {
	dur      time.Duration // wall time, calibration excluded
	lat      []float64     // round-trip latency, ms
	cpuLat   []float64     // CPU time of the whole process per request, ms
	requests int
	failed   failures
}

// expected holds the reply bytes every request of the stream must get.
type expected struct {
	singles [][]byte
	batches [][]byte
}

func newExpected(in *fleetInputs, refs [][]byte) *expected {
	e := &expected{singles: refs}
	for _, fb := range in.batches {
		e.batches = append(e.batches, frameBatch(members(refs, fb.members)))
	}
	return e
}

// run is one timed phase: a single closed-loop client sends the seeded
// request stream for d, checking every reply. Each request is timed on the
// wall clock and on the process's CPU clock; with one request in flight,
// the CPU time is what the client, the coordinator and the worker spent on
// it. Calibration bursts due between requests run outside every timing.
func (f *fleet) run(in *fleetInputs, want *expected, seed int64, d time.Duration, rec *recorder, phase int, cal *calibrator) closedLoop {
	var cl closedLoop
	hc := newClient()
	defer hc.CloseIdleConnections()
	stream := newRequestStream(seed, len(in.singles), len(in.batches))
	prefix := "p" + strconv.Itoa(phase) + "-"
	start := time.Now()
	var paused time.Duration
	for n := 0; time.Since(start)-paused < d; n++ {
		it0 := rec.now()
		batch, idx := stream.next()
		url, body, exp := f.base+"/v1/schedule", in.singles[idx], want.singles[idx]
		if batch {
			url, body, exp = f.base+"/v1/schedule/batch", in.batches[idx].body, want.batches[idx]
		}
		id := prefix + strconv.Itoa(n)
		t0, c0 := time.Now(), processCPU()
		status, got, err := post(hc, rec, url, id, body)
		c1, t1 := processCPU(), time.Now()
		cl.lat = append(cl.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
		cl.cpuLat = append(cl.cpuLat, float64(c1-c0)/float64(time.Millisecond))
		switch {
		case err != nil:
			cl.failed.add(fmt.Errorf("request %s: %w", id, err))
		case status != http.StatusOK:
			cl.failed.add(fmt.Errorf("request %s: HTTP %d: %s", id, status, firstLine(got)))
		case !bytes.Equal(got, exp):
			cl.failed.add(fmt.Errorf("request %s: reply differs from the reference bytes", id))
		}
		rec.add(span{Name: rootRequest, ID: id, Start: it0, End: rec.now(), Parent: -1})
		paused += cal.due()
	}
	cl.dur = time.Since(start) - paused
	cl.requests = len(cl.lat)
	return cl
}

// blockOps is the number of consecutive requests one sample of the
// throughput and of the per-block percentiles spans.
const blockOps = 500

// blocks splits the per-request CPU times into whole blocks of blockOps
// consecutive requests.
func (cl *closedLoop) blocks() [][]float64 {
	var out [][]float64
	for end := blockOps; end <= len(cl.cpuLat); end += blockOps {
		out = append(out, cl.cpuLat[end-blockOps:end])
	}
	return out
}

// stitch links the fleet spans of one phase by request ID: a client round
// trip to the client operation, a coordinator span to the round trip, and a
// worker span to the coordinator span with its ID or, for batch loop
// "id#i", with id. A span whose parent is missing or itself unstitched
// stays unstitched.
func stitch(spans []span) {
	byID := map[string]map[string]int{rootRequest: {}, spanHTTP: {}, spanSchedule: {}, spanBatch: {}}
	for i := range spans {
		if m, ok := byID[spans[i].Name]; ok {
			m[spans[i].ID] = i
		}
	}
	link := func(child func(*span) bool, parentNames ...string) {
		for i := range spans {
			s := &spans[i]
			if !child(s) {
				continue
			}
			id, _, _ := strings.Cut(s.ID, "#")
			for _, pn := range parentNames {
				if p, ok := byID[pn][id]; ok && (pn == rootRequest || spans[p].Parent >= 0) {
					s.Parent = p
				}
			}
		}
	}
	// Link top-down, so each level sees whether its parent was stitched.
	link(func(s *span) bool { return s.Name == spanHTTP }, rootRequest)
	link(func(s *span) bool { return s.Name == spanSchedule || s.Name == spanBatch }, spanHTTP)
	link(func(s *span) bool { return strings.HasPrefix(s.Name, spanWorker) }, spanSchedule, spanBatch)
}

// coordCounters scrapes the coordinator's failover and spill totals from
// its /metrics page.
func (f *fleet) coordCounters() (failovers, spills float64, err error) {
	resp, err := http.Get(f.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "gpcoordd_failovers_total":
			failovers, err = strconv.ParseFloat(val, 64)
		case "gpcoordd_spills_total":
			spills, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("coordinator metric %s: %w", name, err)
		}
	}
	return failovers, spills, sc.Err()
}

// serverCounters sums the workers' cache and admission counters.
func (f *fleet) serverCounters() (hits, misses, rejected int64) {
	for _, n := range f.nodes {
		h, m, _, r := n.srv.Metrics()
		hits += h
		misses += m
		rejected += r
	}
	return hits, misses, rejected
}

// setUpFleet runs one complete fleet-zipf set-up: encode the request
// population, boot the daemons and fill every key.
func setUpFleet(rec *recorder) (*fleet, *fleetInputs, [][]byte, error) {
	in, err := newFleetInputs(append(workload.SPECfp95(), workload.DSP()...))
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := startFleet(rec)
	if err != nil {
		return nil, nil, nil, err
	}
	refs, err := f.fill(in, rec)
	if err != nil {
		f.close()
		return nil, nil, nil, err
	}
	return f, in, refs, nil
}

func runFleetWorkload(o options) (*result, error) {
	res := &result{metrics: map[string]metricValue{}}
	var rec *recorder
	reps := fleetSetups
	if o.trace {
		rec = newRecorder()
		rec.on.Store(true)
		reps = 1
	}
	var f *fleet
	var in *fleetInputs
	var refs [][]byte
	var setups []float64
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC() // every set-up starts from the same heap
		c0 := processCPU()
		nf, nin, nrefs, err := setUpFleet(rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		for k := range refs {
			if !bytes.Equal(refs[k], nrefs[k]) {
				nf.close()
				return nil, fmt.Errorf("set-up %d: %s differs from the first set-up's reply", i+1, in.names[k])
			}
		}
		f, in, refs = nf, nin, nrefs
	}
	defer f.close()
	want := newExpected(in, refs)
	res.addLine("request population: %d singletons and %d batch units on %s; zipf s=%.1f, %.0f%% batches, one closed-loop client",
		len(in.singles), len(in.batches), paperMachine().Name, zipfS, 100*batchFrac)
	ipc, err := fleetIPC(refs, in)
	if err != nil {
		return nil, err
	}

	if !o.trace {
		ref, err := echoReference()
		if err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		defer ref.close()
		cal := newCalibrator(ref)
		cal.burst()
		cl := f.run(in, want, o.seed, o.seconds, nil, 0, cal)
		cal.burst()
		if cal.err != nil {
			return nil, fmt.Errorf("calibration: %w", cal.err)
		}
		blocks := cl.blocks()
		rates := make([]float64, len(blocks))
		for i, b := range blocks {
			var cpu float64
			for _, v := range b {
				cpu += v
			}
			rates[i] = float64(len(b)) / (cpu / 1e3)
		}
		res.reportTimings(cal, "requests", "blocks", setups, rates, blocks,
			[]float64{float64(cl.requests) / cl.dur.Seconds()}, cl.lat)
		res.set("ipc", ipc)
		res.addLine("ipc        %.6f ops/cycle (of the served schedules)", ipc)
		res.attempted, res.failed = cl.requests, cl.failed
		return res, nil
	}

	if err := f.tracedRun(res, in, want, o, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedRun is fleet-zipf's traced run: the set-up already recorded the
// fill, then the timed phase runs untraced for half the time and traced for
// the other half, and the per-layer metrics come from the traced half.
func (f *fleet) tracedRun(res *result, in *fleetInputs, want *expected, o options, rec *recorder) error {
	fillSpans := rec.take()
	stitch(fillSpans)
	fillLedger := buildLedger(fillSpans, rootRequest)
	rec.on.Store(false)
	failovers0, spills0, err := f.coordCounters()
	if err != nil {
		return err
	}
	hits0, misses0, rejected0 := f.serverCounters()
	untraced := f.run(in, want, o.seed, o.seconds/2, rec, 1, nil)
	rec.on.Store(true)
	traced := f.run(in, want, o.seed, o.seconds/2, rec, 2, nil)
	rec.on.Store(false)
	hits1, misses1, rejected1 := f.serverCounters()
	failovers1, spills1, err := f.coordCounters()
	if err != nil {
		return err
	}
	spans := rec.take()
	stitch(spans)
	l := buildLedger(spans, rootRequest)
	hops := 0
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, spanWorker) {
			hops++
		}
	}
	us := func(name string) float64 { return l.meanSelf(name) / 1e3 }
	res.set("cluster.hop_us", us(spanSchedule))
	res.set("cluster.batch_hop_us", us(spanBatch))
	res.set("cluster.worker_hops", float64(hops)/float64(max(traced.requests, 1)))
	res.set("cluster.failovers", failovers1-failovers0)
	res.set("cluster.spills", spills1-spills0)
	res.set("http.client_us", us(spanHTTP))
	res.set("server.hit_us", us(spanWorker+"hit"))
	hitRatio := 0.0
	if hits1-hits0+misses1-misses0 > 0 {
		hitRatio = float64(hits1-hits0) / float64(hits1-hits0+misses1-misses0)
	}
	res.set("server.hit_ratio", hitRatio)
	res.set("server.rejected", float64(rejected1-rejected0))
	res.set("server.miss_ms", fillLedger.meanSelf(spanWorker+"miss")/1e6)
	res.set("ledger.unattributed_pct", l.unattributedPct())
	res.set("ledger.unstitched", float64(l.unstitched+fillLedger.unstitched))
	res.set("trace.overhead_pct", overheadPct(untraced.dur.Seconds()/float64(max(untraced.requests, 1)), traced.dur.Seconds()/float64(max(traced.requests, 1))))
	res.addLine("traced %d requests after %d untraced; %d worker hops", traced.requests, untraced.requests, hops)
	res.report = append(res.report, l.lines()...)
	for i := range fillSpans {
		fillSpans[i].Phase = "fill"
	}
	for i := range spans {
		spans[i].Phase = "timed"
	}
	if err := writeSpans(o.spanPath(), append(fillSpans, spans...)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.addLine("spans written to %s", o.spanPath())
	res.attempted = untraced.requests + traced.requests
	res.failed = untraced.failed
	res.failed.merge(traced.failed)
	if !l.reconciles() {
		return fmt.Errorf("ledger does not reconcile within %.1f%%", reconcileTolerancePct)
	}
	return nil
}

// fleetIPC is the paper's quality measure over the schedules the fleet
// serves: weighted IPC per benchmark from each reply's cycle count,
// averaged over the benchmarks of both corpora.
func fleetIPC(refs [][]byte, in *fleetInputs) (float64, error) {
	var sum float64
	for _, fb := range in.batches {
		var ops, cycles float64
		for _, k := range fb.members {
			var reply server.ScheduleResponse
			if err := json.Unmarshal(refs[k], &reply); err != nil {
				return 0, fmt.Errorf("ipc: %s: %w", in.names[k], err)
			}
			w := in.weights[k]
			ops += w * float64(in.nodes[k]) * float64(in.trips[k])
			cycles += w * float64(reply.Cycles)
		}
		if cycles == 0 {
			return 0, fmt.Errorf("ipc: benchmark %s has no cycles", fb.name)
		}
		sum += ops / cycles
	}
	return sum / float64(len(in.batches)), nil
}
