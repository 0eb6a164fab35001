package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// tinyLoopText is a small, fast-to-schedule loop in the ddgio text format.
const tinyLoopText = `loop tiny 100
node 0 Load a[i]
node 1 IntALU +1
node 2 Store a[i]=
edge 0 1 2 0 data
edge 1 2 1 0 data
`

func scheduleBody(t *testing.T, mutate func(*ScheduleRequest)) []byte {
	t.Helper()
	req := &ScheduleRequest{LoopText: tinyLoopText, Clusters: 2, Regs: 32, NBus: 1, LatBus: 1, Scheme: "GP"}
	if mutate != nil {
		mutate(req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSchedule(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestScheduleCacheHitByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	body := scheduleBody(t, nil)
	respCold, cold := postSchedule(t, ts, body)
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", respCold.StatusCode, cold)
	}
	if got := respCold.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q", got)
	}

	respHot, hot := postSchedule(t, ts, body)
	if respHot.StatusCode != http.StatusOK {
		t.Fatalf("hot: %d %s", respHot.StatusCode, hot)
	}
	if got := respHot.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("hot X-Cache = %q", got)
	}
	if !bytes.Equal(cold, hot) {
		t.Fatalf("cache hit not byte-identical:\ncold: %s\nhot:  %s", cold, hot)
	}

	var parsed ScheduleResponse
	if err := json.Unmarshal(cold, &parsed); err != nil {
		t.Fatalf("response not valid JSON: %v", err)
	}
	if !parsed.Verified || parsed.II < 1 || len(parsed.Time) != 3 || parsed.Scheme != "GP" {
		t.Fatalf("bad response: %+v", parsed)
	}

	hits, misses, _, _ := srv.Metrics()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestScheduleEquivalentEncodingsShareCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// Text encoding, grid machine.
	respA, bodyA := postSchedule(t, ts, scheduleBody(t, nil))
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("text: %d %s", respA.StatusCode, bodyA)
	}

	// Same loop as JSON: content-addressing must find the same entry.
	respB, bodyB := postSchedule(t, ts, scheduleBody(t, func(r *ScheduleRequest) {
		r.LoopText = ""
		r.Loop = &ddgio.JSONLoop{
			Name: "tiny", Niter: 100,
			Nodes: []ddgio.JSONNode{{Op: "Load", Name: "a[i]"}, {Op: "IntALU", Name: "+1"}, {Op: "Store", Name: "a[i]="}},
			Edges: []ddgio.JSONEdge{{From: 0, To: 1, Lat: 2}, {From: 1, To: 2, Lat: 1}},
		}
	}))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("json: %d %s", respB.StatusCode, bodyB)
	}
	if respB.Header.Get("X-Cache") != "hit" {
		t.Fatalf("JSON twin was not a cache hit (X-Cache=%q)", respB.Header.Get("X-Cache"))
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("equivalent encodings produced different bytes")
	}
	if hits, misses, _, _ := srv.Metrics(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestScheduleCacheKeyStable pins the key derivation on two fixed bodies,
// one on the grid and one with a machine text and a JSON loop: under the
// gp/6 salt each key equals the hex the gp/6 binaries computed, and
// ScheduleCacheKey is the same derivation under the compiled-in
// schedule.AlgoVersion. A change to the derivation moves every cached
// entry and every request's place in the coordinator's rendezvous
// ranking, so it belongs only with a SchemaVersion bump; an AlgoVersion
// bump moves the keys through the salt alone.
func TestScheduleCacheKeyStable(t *testing.T) {
	for _, tc := range []struct{ name, body, key string }{
		{"grid", `{"loop_text":"loop tiny 100\nnode 0 Load a[i]\nnode 1 IntALU +1\nnode 2 Store a[i]=\nedge 0 1 2 0 data\nedge 1 2 1 0 data\n","clusters":2,"regs":32,"nbus":1,"latbus":1,"scheme":"GP"}`,
			"89e7036d63dc058e98a1daf5b1dafa27d98c04c2436a97363079b1a7a54bdf0d"},
		{"machine text", `{"loop":{"name":"rec","niter":50,"nodes":[{"op":"Load"},{"op":"FPMul"},{"op":"FPAdd"},{"op":"Store"}],"edges":[{"from":0,"to":1,"lat":2},{"from":1,"to":2,"lat":4},{"from":2,"to":3,"lat":4},{"from":2,"to":2,"lat":4,"dist":1}]},"machine":"machine m2\ncluster 2 2 2 16\ncluster 2 2 2 16\ninterconnect bus 1 1 blocking\n","scheme":"Fixed"}`,
			"7d567d7d9df723e2a18d16a42ea817d4e1243fa5c269dc9f5ba53b4ee25edce5"},
	} {
		job, err := parseScheduleRequest([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if key := job.cacheKey(keySalt("gp/6", 0)); key != tc.key {
			t.Errorf("%s: gp/6 cache key %s, want %s", tc.name, key, tc.key)
		}
		key, err := ScheduleCacheKey([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := job.cacheKey(keySalt(schedule.AlgoVersion, 0)); key != want {
			t.Errorf("%s: ScheduleCacheKey %s, want %s", tc.name, key, want)
		}
	}
}

func mustJSON(t *testing.T, s string) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{{{`},
		{"unknown field", `{"loop_text":"x","clusters":2,"bogus":1}`},
		// A retired wire field is an unknown field, not an ignored knob.
		{"portfolio field", `{"loop_text":"loop x 1\nnode 0 IntALU\n","clusters":2,"portfolio":4}`},
		{"missing loop", `{"clusters":2}`},
		{"both loops", `{"loop_text":"loop x 1\nnode 0 IntALU\n","loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"clusters":2}`},
		{"bad loop text", `{"loop_text":"loop broken","clusters":2}`},
		{"two loops in text", `{"loop_text":"loop a 1\nnode 0 IntALU\nloop b 1\nnode 0 IntALU\n","clusters":2}`},
		{"bad op class", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"Quantum"}]},"clusters":2}`},
		{"missing machine", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]}}`},
		{"machine and grid", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"machine":"machine m\ncluster 1 1 1 8\n","clusters":2}`},
		{"bad machine text", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"machine":"machine broken"}`},
		{"bad grid", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"clusters":3}`},
		{"negative regs unified", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"clusters":1,"regs":-8}`},
		{"negative regs clustered", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"clusters":2,"regs":-8}`},
		// A single huge self-recurrence latency would drive the MII — and
		// the scheduler's O(units·II) reservation tables — to its own
		// magnitude; admission must shed it, not the OOM killer.
		{"huge latency", `{"loop":{"name":"x","niter":2,"nodes":[{"op":"FPAdd"}],"edges":[{"from":0,"to":0,"lat":1099511627776,"dist":1}]},"clusters":4}`},
		{"huge distance", `{"loop":{"name":"x","niter":2,"nodes":[{"op":"FPAdd"}],"edges":[{"from":0,"to":0,"lat":1,"dist":1000000}]},"clusters":4}`},
		{"mii over cap", `{"loop":{"name":"x","niter":2,"nodes":[{"op":"FPAdd"}],"edges":[{"from":0,"to":0,"lat":65536,"dist":1}]},"clusters":4}`},
		// The machine half of a request is bounded like the loop half:
		// reservation tables scale with clusters² on p2p machines and with
		// every latency, so hostile descriptions are shed at admission.
		{"too many clusters", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"machine":` +
			string(mustJSON(t, "machine big\n"+strings.Repeat("cluster 1 1 1 8\n", 20)+"interconnect p2p 1 1 blocking\n")) + `}`},
		{"huge op latency", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"machine":` +
			string(mustJSON(t, "machine slow\ncluster 1 1 1 8\nlatency FPDiv 1000000000\n")) + `}`},
		{"unknown scheme", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"IntALU"}]},"clusters":2,"scheme":"LLM"}`},
		{"infeasible machine", `{"loop":{"name":"x","niter":1,"nodes":[{"op":"FPAdd"}]},"machine":"machine intonly\ncluster 1 0 1 8\n"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSchedule(t, ts, []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (want 400), body %s", resp.StatusCode, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != ErrCodeBadRequest || e.Error.Message == "" {
				t.Fatalf("error body not a bad_request envelope: %s", body)
			}
			if e.Error.Retryable {
				t.Fatalf("bad_request marked retryable: %s", body)
			}
		})
	}
}

func TestScheduleSingleflightCoalescing(t *testing.T) {
	const followers = 7

	srv := New(Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	entered := make(chan string, 1)
	computes := 0
	srv.computeHook = func(key string) {
		computes++
		entered <- key
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	body := scheduleBody(t, nil)

	// Leader: occupies the worker inside computeHook.
	results := make(chan []byte, followers+1)
	var wg sync.WaitGroup
	fire := func() {
		defer wg.Done()
		resp, out := postSchedule(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", resp.StatusCode, out)
		}
		results <- out
	}
	wg.Add(1)
	go fire()
	key := <-entered

	// Followers: must coalesce behind the in-flight leader, not enqueue
	// their own pool tasks. Wait until every one of them is registered as
	// a waiter before releasing the leader — fully deterministic.
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go fire()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.flight.Waiters(key) != followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers coalesced", srv.flight.Waiters(key), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("%d computations for %d concurrent identical requests, want exactly 1", computes, followers+1)
	}
	first := <-results
	for i := 0; i < followers; i++ {
		if got := <-results; !bytes.Equal(first, got) {
			t.Fatal("coalesced responses are not byte-identical")
		}
	}
	if _, _, coalesced, _ := srv.Metrics(); coalesced != followers {
		t.Fatalf("coalesced metric = %d, want %d", coalesced, followers)
	}
}

func TestScheduleSaturation429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	entered := make(chan string, 2)
	srv.computeHook = func(key string) {
		entered <- key
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	distinct := func(i int) []byte {
		return scheduleBody(t, func(r *ScheduleRequest) {
			r.LoopText = strings.Replace(tinyLoopText, "loop tiny 100", fmt.Sprintf("loop tiny%d 100", i), 1)
		})
	}

	var wg sync.WaitGroup
	// Request 1 occupies the worker (blocked in the hook).
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, out := postSchedule(t, ts, distinct(1))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first request: %d %s", resp.StatusCode, out)
		}
	}()
	<-entered

	// Request 2 fills the single queue slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, out := postSchedule(t, ts, distinct(2))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("second request: %d %s", resp.StatusCode, out)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Request 3 must be shed with 429 + Retry-After, not queued.
	resp, out := postSchedule(t, ts, distinct(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d %s (want 429)", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	wg.Wait()
	// The gated hook consumed one `entered` send per computation; drain the
	// second request's if present.
	select {
	case <-entered:
	default:
	}
	if _, _, _, rejected := srv.Metrics(); rejected != 1 {
		t.Fatalf("rejected metric = %d, want 1", rejected)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	entered := make(chan string, 1)
	srv.computeHook = func(key string) {
		entered <- key
		<-gate
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// An in-flight request is blocked inside the worker.
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(scheduleBody(t, nil)))
		if err != nil {
			done <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: b}
	}()
	<-entered

	// Shutdown must wait for that request, serve it fully, then return.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	// Give Shutdown a moment to stop the listener, then release the worker.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d body %s", res.status, res.body)
	}
	var parsed ScheduleResponse
	if err := json.Unmarshal(res.body, &parsed); err != nil || !parsed.Verified {
		t.Fatalf("drained response invalid: %v %s", err, res.body)
	}
	srv.Close()
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postSchedule(t, ts, scheduleBody(t, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"gpserved_requests_total",
		"gpserved_schedule_requests_total",
		"gpserved_cache_hits_total",
		"gpserved_cache_misses_total 1",
		"gpserved_cache_entries 1",
		"gpserved_cache_body_hits_total",
		"gpserved_machine_cache_hits_total",
		"gpserved_machine_cache_misses_total",
		"gpserved_batch_requests_total",
		"gpserved_batch_loops_total",
		"gpserved_queue_depth",
		"gpserved_latency_p50_seconds",
		"gpserved_latency_p99_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsLint holds a traffic-warmed /metrics page to the fleet naming
// contract: counters end _total, gauges are allowlisted, histogram families
// emit their complete _bucket/_sum/_count triple — including the
// endpoint/cache-labeled duration histogram over the shared bucket layout.
func TestMetricsLint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := scheduleBody(t, nil)
	for i := 0; i < 2; i++ { // one miss, one hit: both cache label values
		if resp, _ := postSchedule(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule %d: %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	if problems := obs.CheckMetrics(text, workerGauges); len(problems) != 0 {
		t.Fatalf("metrics lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		`gpserved_request_duration_seconds_bucket{endpoint="schedule",cache="miss",le="+Inf"}`,
		`gpserved_request_duration_seconds_bucket{endpoint="schedule",cache="hit",le="+Inf"}`,
		`gpserved_request_duration_seconds_sum{endpoint="schedule",cache="miss"}`,
		`gpserved_request_duration_seconds_count{endpoint="schedule",cache="miss"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// metricValue scrapes /metrics and returns the value of the unlabeled
// series name.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics missing %s:\n%s", name, raw)
	return 0
}

// specLoopText returns loop i of the named SPECfp95 benchmark and its
// ddgio text.
func specLoopText(t *testing.T, name string, i int) (*ddg.Graph, string) {
	t.Helper()
	for _, bm := range workload.SPECfp95() {
		if bm.Name == name {
			var text bytes.Buffer
			if err := ddgio.Write(&text, bm.Loops[i].G); err != nil {
				t.Fatal(err)
			}
			return bm.Loops[i].G, text.String()
		}
	}
	t.Fatalf("no SPECfp95 benchmark %s", name)
	return nil, ""
}

// TestEscalationCounters pins the worker's escalation counters: computing
// applu/loop3 on the paper machine, which fails 19 IIs and falls back to
// list scheduling, adds 19 to gpserved_schedule_attempts_total, 6 to
// gpserved_attempt_failures_total{reason="bus"} and 13 to its
// reason="regs" series, and 1 to gpserved_list_fallbacks_total, and notes
// list=true on the trace's schedule phase; the cache hit that repeats the
// request moves none of them.
func TestEscalationCounters(t *testing.T) {
	_, text := specLoopText(t, "applu", 3)
	srv, ts := newTestServer(t, Config{})
	body := scheduleBody(t, func(r *ScheduleRequest) {
		r.LoopText, r.Clusters, r.Regs = text, 4, 64
	})
	for i, xcache := range []string{"miss", "hit"} {
		resp, out := postSchedule(t, ts, body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != xcache {
			t.Fatalf("request %d: %d X-Cache=%q %s", i, resp.StatusCode, resp.Header.Get("X-Cache"), out)
		}
		for _, want := range []struct {
			metric string
			n      int64
		}{
			{"gpserved_schedule_attempts_total", 19},
			{`gpserved_attempt_failures_total{reason="fu"}`, 0},
			{`gpserved_attempt_failures_total{reason="window"}`, 0},
			{`gpserved_attempt_failures_total{reason="bus"}`, 6},
			{`gpserved_attempt_failures_total{reason="regs"}`, 13},
			{`gpserved_attempt_failures_total{reason="mem"}`, 0},
			{"gpserved_list_fallbacks_total", 1},
		} {
			if got := metricValue(t, ts, want.metric); got != want.n {
				t.Errorf("request %d: %s %d, want %d", i, want.metric, got, want.n)
			}
		}
	}
	note := ""
	for _, tr := range srv.traces.Recent(0) {
		for _, ph := range tr.Phases() {
			if ph.Name == "schedule" {
				note = ph.Note
			}
		}
	}
	if !slices.Contains(strings.Fields(note), "list=true") {
		t.Errorf("schedule phase note %q lacks list=true", note)
	}
}

// TestPartitionTraceNote pins the trace's partition phase note on a loop
// whose escalation repartitions: computing fpppp/loop0 on the 4-cluster,
// 64-register machine uses 9 partitions, and the note's partitions= and
// reused= fields equal the counts core.ScheduleLoop reports for the same
// loop and machine.
func TestPartitionTraceNote(t *testing.T) {
	loop, text := specLoopText(t, "fpppp", 0)
	srv, ts := newTestServer(t, Config{})
	body := scheduleBody(t, func(r *ScheduleRequest) {
		r.LoopText, r.Clusters, r.Regs = text, 4, 64
	})
	if resp, out := postSchedule(t, ts, body); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("%d X-Cache=%q %s", resp.StatusCode, resp.Header.Get("X-Cache"), out)
	}
	want, err := core.ScheduleLoop(loop, machine.MustClustered(4, 64, 1, 1), &core.Options{Algorithm: core.GP})
	if err != nil {
		t.Fatal(err)
	}
	if want.Partitions != 9 {
		t.Fatalf("core.ScheduleLoop used %d partitions, want 9", want.Partitions)
	}
	note := ""
	for _, tr := range srv.traces.Recent(0) {
		for _, ph := range tr.Phases() {
			if ph.Name == "partition" {
				note = ph.Note
			}
		}
	}
	fields := strings.Fields(note)
	for _, f := range []string{fmt.Sprintf("partitions=%d", want.Partitions), fmt.Sprintf("reused=%d", want.PartitionsReused)} {
		if !slices.Contains(fields, f) {
			t.Errorf("partition phase note %q lacks %s", note, f)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep cell is slow; skipped with -short")
	}
	_, ts := newTestServer(t, Config{})
	req := `{"machines":["machine test2\ncluster 2 2 2 16\ncluster 2 2 2 16\ninterconnect bus 1 1 blocking\n"],"corpora":["SPECfp95"],"max_loops":1,"verify":true}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "corpus,config,program") {
		t.Fatalf("sweep CSV malformed:\n%s", body)
	}
	if !strings.Contains(string(body), "MEAN") {
		t.Fatalf("sweep CSV missing MEAN rows:\n%s", body)
	}
}

// TestSweepMalformed pins that a rejected sweep is a 400 and, like a
// rejected schedule, publishes its trace with outcome bad-request.
func TestSweepMalformed(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	hugeMachine, err := json.Marshal("machine big\n" + strings.Repeat("cluster 1 1 1 8\n", 20) + "interconnect p2p 1 1 blocking\n")
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{
		`{{{`,
		`{"corpora":["NoSuchCorpus"]}`,
		`{"machines":["machine broken"]}`,
		`{"max_loops":-1}`,
		`{"machines":[` + string(hugeMachine) + `]}`,
	} {
		id := fmt.Sprintf("bad-sweep-%d", i)
		req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if tr, ok := srv.traces.Get(id); !ok || tr.Outcome != "bad-request" {
			t.Errorf("body %q: trace published %v, outcome %q; want outcome bad-request", body, ok, tr.Outcome)
		}
	}
}

// TestDebugTraceNotFound pins the trace endpoint's miss: an unknown
// request ID is a 404 not_found envelope, not retryable.
func TestDebugTraceNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/debug/traces/no-such-request")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", resp.StatusCode, out)
	}
	var e errorResponse
	if err := json.Unmarshal(out, &e); err != nil || e.Error.Code != ErrCodeNotFound || e.Error.Message == "" || e.Error.Retryable {
		t.Fatalf("want a non-retryable not_found envelope, got %s", out)
	}
}

// TestCacheFlushEndpoint proves the stale-cache kill switch end to end: a
// cached response survives re-requests byte-identically, POST
// /v1/cache/flush wipes it and raises the advertised epoch, and the next
// identical request is a recomputed miss.
func TestCacheFlushEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := scheduleBody(t, nil)

	respCold, cold := postSchedule(t, ts, body)
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", respCold.StatusCode, cold)
	}
	if v := respCold.Header.Get("X-Algo-Version"); v != srv.AlgoVersion() {
		t.Fatalf("X-Algo-Version = %q, want %q", v, srv.AlgoVersion())
	}
	if e := respCold.Header.Get("X-Algo-Epoch"); e != "0" {
		t.Fatalf("pre-flush X-Algo-Epoch = %q, want 0", e)
	}

	// Flush with an explicit fleet epoch.
	resp, err := http.Post(ts.URL+"/v1/cache/flush", "application/json", strings.NewReader(`{"epoch": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	var fr FlushResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fr.Epoch != 7 {
		t.Fatalf("flush: %d epoch=%d, want 200 epoch=7", resp.StatusCode, fr.Epoch)
	}
	if got := resp.Header.Get("X-Algo-Epoch"); got != "7" {
		t.Fatalf("flush X-Algo-Epoch = %q, want 7", got)
	}
	if srv.Epoch() != 7 {
		t.Fatalf("Epoch() = %d, want 7", srv.Epoch())
	}

	// The identical request recomputes: the flush really emptied the cache.
	respAfter, after := postSchedule(t, ts, body)
	if respAfter.StatusCode != http.StatusOK {
		t.Fatalf("post-flush: %d %s", respAfter.StatusCode, after)
	}
	if got := respAfter.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-flush X-Cache = %q, want miss", got)
	}
	if got := respAfter.Header.Get("X-Algo-Epoch"); got != "7" {
		t.Fatalf("post-flush X-Algo-Epoch = %q, want 7", got)
	}
	// Same binary, same algorithm: the recomputed bytes must match.
	if !bytes.Equal(cold, after) {
		t.Fatal("recomputed response differs from pre-flush response")
	}

	// An empty flush body bumps by one.
	resp2, err := http.Post(ts.URL+"/v1/cache/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if srv.Epoch() != 8 {
		t.Fatalf("epoch after empty flush = %d, want 8", srv.Epoch())
	}
}
