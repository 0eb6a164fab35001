package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Integration harness: a real coordinator and real gpserved-stack workers
// on loopback listeners, talking the real HTTP protocol. Workers heartbeat
// from a test-controlled loop (not the production agent) so tests can stop
// a worker's heartbeats without deregistering — the difference between "it
// left politely" and "it died", which is exactly what these tests probe.

func testConfig() Config {
	return Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		DeadAfter:         300 * time.Millisecond,
		ReconcileInterval: 25 * time.Millisecond,
		ScheduleTimeout:   10 * time.Second,
		CellTimeout:       30 * time.Second,
		JobWorkers:        4,
	}
}

func startCoordinator(t testing.TB, cfg Config) (*Coordinator, string) {
	t.Helper()
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: coord.Handler()}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		coord.Close()
	})
	return coord, "http://" + ln.Addr().String()
}

// chaosHandler wraps a worker's handler with fault injection, and counts
// the requests it serves by path.
type chaosHandler struct {
	inner http.Handler

	mu            sync.Mutex
	requests      map[string]int
	killSchedules int           // hijack+close the next N /v1/schedule and /v1/schedule/batch conns
	stallSweeps   chan struct{} // when non-nil, /v1/sweep blocks on it
	failLoop      string        // when set, batch elements for this loop name become internal errors
}

func (h *chaosHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	if h.requests == nil {
		h.requests = map[string]int{}
	}
	h.requests[r.URL.Path]++
	kill := false
	if (r.URL.Path == "/v1/schedule" || r.URL.Path == "/v1/schedule/batch") && h.killSchedules > 0 {
		h.killSchedules--
		kill = true
	}
	stall := h.stallSweeps
	failLoop := h.failLoop
	h.mu.Unlock()
	if kill {
		// Accept the request, then slam the TCP connection: the worker
		// "fails mid-request" from the coordinator's point of view.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}
	if stall != nil && r.URL.Path == "/v1/sweep" {
		select {
		case <-stall:
		case <-r.Context().Done():
			return
		}
	}
	if failLoop != "" && r.URL.Path == "/v1/schedule/batch" {
		h.serveFailingLoop(w, r, failLoop)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// serveFailingLoop serves a batch whose elements for the loop named name
// are the internal error a failed schedule computation renders.
func (h *chaosHandler) serveFailingLoop(w http.ResponseWriter, r *http.Request, name string) {
	body, _ := io.ReadAll(r.Body)
	items, err := server.BatchItems(body)
	if err != nil {
		panic(err)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	elems, err := server.SplitBatch(rec.Body.Bytes(), len(items))
	if err != nil {
		panic(err)
	}
	for i, e := range elems {
		if bytes.Contains(e, []byte(`"loop": "`+name+`"`)) {
			elems[i] = server.MarshalError(server.ErrCodeInternal, "schedule: injected failure")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, server.BatchOpen+string(bytes.Join(elems, []byte(server.BatchSep)))+server.BatchClose)
}

// served returns how many requests for path the worker has seen.
func (h *chaosHandler) served(path string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.requests[path]
}

func (h *chaosHandler) setFailLoop(name string) {
	h.mu.Lock()
	h.failLoop = name
	h.mu.Unlock()
}

func (h *chaosHandler) armKillSchedule(n int) {
	h.mu.Lock()
	h.killSchedules = n
	h.mu.Unlock()
}

func (h *chaosHandler) armStallSweeps() chan struct{} {
	release := make(chan struct{})
	h.mu.Lock()
	h.stallSweeps = release
	h.mu.Unlock()
	return release
}

type testWorker struct {
	t        testing.TB
	id       string
	endpoint string
	base     string // coordinator base URL
	srv      *server.Server
	hs       *http.Server
	chaos    *chaosHandler

	hbStop chan struct{}
	hbDone chan struct{}
}

func startWorker(t testing.TB, coordBase, id string) *testWorker {
	t.Helper()
	srv := server.New(server.Config{NodeID: id})
	chaos := &chaosHandler{inner: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: chaos}
	go func() { _ = hs.Serve(ln) }()

	w := &testWorker{
		t:        t,
		id:       id,
		endpoint: "http://" + ln.Addr().String(),
		base:     coordBase,
		srv:      srv,
		hs:       hs,
		chaos:    chaos,
		hbStop:   make(chan struct{}),
		hbDone:   make(chan struct{}),
	}
	w.post("/v1/nodes/register", server.RegisterRequest{ID: id, Endpoint: w.endpoint, Capacity: 2})
	go func() {
		defer close(w.hbDone)
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.hbStop:
				return
			case <-tick.C:
				w.post("/v1/nodes/heartbeat", server.HeartbeatRequest{ID: id})
			}
		}
	}()
	t.Cleanup(w.stop)
	return w
}

func (w *testWorker) post(path string, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.Post(w.base+path, "application/json", bytes.NewReader(b))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// stopHeartbeats silences the worker without deregistering: the dead-node
// detector, not the deregister path, must notice.
func (w *testWorker) stopHeartbeats() {
	select {
	case <-w.hbStop:
	default:
		close(w.hbStop)
		<-w.hbDone
	}
}

// kill is a crash: heartbeats stop and every open and future connection
// dies.
func (w *testWorker) kill() {
	w.stopHeartbeats()
	_ = w.hs.Close()
}

func (w *testWorker) stop() {
	w.stopHeartbeats()
	w.post("/v1/nodes/deregister", server.HeartbeatRequest{ID: w.id})
	_ = w.hs.Close()
	w.srv.Close()
}

// scheduleBody builds a distinct /v1/schedule request.
func scheduleBody(t *testing.T, name string) []byte {
	t.Helper()
	loop := fmt.Sprintf(`loop %s 100
node 0 Load a[i]
node 1 FPMul *c
node 2 FPAdd +s
node 3 Store s=
edge 0 1 2 0 data
edge 1 2 4 0 data
edge 2 3 4 0 data
edge 2 2 4 1 data
`, name)
	body, err := json.Marshal(map[string]any{
		"loop_text": loop,
		"clusters":  2, "regs": 32, "nbus": 1, "latbus": 1,
		"scheme": "GP",
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSchedule(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/schedule: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func waitForStates(t testing.TB, coord *Coordinator, want map[string]string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := map[string]string{}
		for _, n := range coord.Nodes() {
			got[n.ID] = n.State
		}
		ok := len(got) == len(want)
		for id, st := range want {
			if got[id] != st {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node states %v never reached %v", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestScheduleRoutingAffinityAndSharedCache(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	body := scheduleBody(t, "affine")
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}
	predicted, _, _, ok := place(coord.reg.candidates(), key, nil, 0)
	if !ok {
		t.Fatal("no placement candidate")
	}

	resp1, out1 := postSchedule(t, base, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", resp1.StatusCode, out1)
	}
	if got := resp1.Header.Get("X-Node"); got != predicted.id {
		t.Fatalf("routed to %s, HRW predicts %s", got, predicted.id)
	}
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold X-Cache = %q", resp1.Header.Get("X-Cache"))
	}

	// Identical requests keep landing on the same worker and hit its LRU —
	// the per-worker caches behave as one sharded distributed cache, and
	// the hit is observable through the coordinator.
	for i := 0; i < 3; i++ {
		resp2, out2 := postSchedule(t, base, body)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("hot %d: %d %s", i, resp2.StatusCode, out2)
		}
		if got := resp2.Header.Get("X-Node"); got != predicted.id {
			t.Fatalf("repeat %d routed to %s, want %s", i, got, predicted.id)
		}
		if resp2.Header.Get("X-Cache") != "hit" {
			t.Fatalf("repeat %d X-Cache = %q, want hit", i, resp2.Header.Get("X-Cache"))
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("cache hit bytes differ from cold response")
		}
	}

	// Distinct requests spread: with enough keys both workers serve some.
	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		resp, out := postSchedule(t, base, scheduleBody(t, fmt.Sprintf("spread%d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spread %d: %d %s", i, resp.StatusCode, out)
		}
		seen[resp.Header.Get("X-Node")] = true
	}
	if !seen["wA"] || !seen["wB"] {
		t.Fatalf("16 distinct keys never spread across both workers: %v", seen)
	}
}

func TestScheduleFailoverMidRequest(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	wB := startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})
	workers := map[string]*testWorker{"wA": wA, "wB": wB}

	// Find a body HRW-routed to a known worker, then make that worker kill
	// the connection mid-request.
	body := scheduleBody(t, "victim")
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}
	target, _, _, _ := place(coord.reg.candidates(), key, nil, 0)
	victim := workers[target.id]
	survivorID := "wA"
	if target.id == "wA" {
		survivorID = "wB"
	}
	victim.chaos.armKillSchedule(1)

	resp, out := postSchedule(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Node"); got != survivorID {
		t.Fatalf("served by %s, want survivor %s (victim %s)", got, survivorID, target.id)
	}

	// The victim was marked suspect by the failed proxy attempt...
	snap := coord.Nodes()
	var victimInfo *NodeInfo
	for i := range snap {
		if snap[i].ID == target.id {
			victimInfo = &snap[i]
		}
	}
	if victimInfo == nil || victimInfo.Failures == 0 {
		t.Fatalf("victim %s has no recorded failure: %+v", target.id, snap)
	}

	// ...and its ongoing heartbeats bring it back to ready, after which the
	// same key routes to it again (cache affinity survives a blip).
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})
	resp2, out2 := postSchedule(t, base, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request: %d %s", resp2.StatusCode, out2)
	}
	if got := resp2.Header.Get("X-Node"); got != target.id {
		t.Fatalf("recovered key served by %s, want original owner %s", got, target.id)
	}
}

func TestScheduleDeadWorkerExcludedUntilRevived(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	// Crash wA: heartbeats stop, connections die. The detector walks it
	// ready → suspect → dead.
	wA.kill()
	waitForStates(t, coord, map[string]string{"wA": "dead", "wB": "ready"})

	// Every request now lands on wB, including keys wA owned.
	for i := 0; i < 8; i++ {
		resp, out := postSchedule(t, base, scheduleBody(t, fmt.Sprintf("afterdeath%d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after death: %d %s", i, resp.StatusCode, out)
		}
		if got := resp.Header.Get("X-Node"); got != "wB" {
			t.Fatalf("request %d served by %s, want wB", i, got)
		}
	}
}

// TestScheduleAllSaturatedRelays429 pins the backpressure contract: a
// fleet that is loaded (every worker sheds 429) must look loaded to the
// client — 429 + Retry-After, no suspect-marking — not broken (502).
func TestScheduleAllSaturatedRelays429(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	saturated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer saturated.Close()
	reg, _ := json.Marshal(server.RegisterRequest{ID: "busy", Endpoint: saturated.URL, Capacity: 1})
	resp, err := http.Post(base+"/v1/nodes/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	got, out := postSchedule(t, base, scheduleBody(t, "overload"))
	if got.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-saturated fleet answered %d %s, want 429", got.StatusCode, out)
	}
	if got.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	for _, n := range coord.Nodes() {
		if n.ID == "busy" && n.State != "ready" {
			t.Fatalf("saturation marked the node %s", n.State)
		}
	}
}

// TestScheduleClientDisconnectBlamesNoWorker pins the cancel rule: a client
// that hangs up mid-request cancels the forward, and that cancellation is no
// verdict on the worker — no node goes suspect, no failure or failover is
// counted, the in-flight slot is released and the request is observed as
// canceled. Blaming the node instead would walk the whole ranking, every
// later forward failing at once under the dead context, until the entire
// fleet was suspect.
func TestScheduleClientDisconnectBlamesNoWorker(t *testing.T) {
	coord, base := startCoordinator(t, slowDetectorConfig())
	for _, id := range []string{"hangA", "hangB"} {
		registerFakeWorker(t, base, id, "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Drain the body first: net/http only watches for the peer
			// hanging up once the body is consumed.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		}))
	}
	waitForStates(t, coord, map[string]string{"hangA": "ready", "hangB": "ready"})

	const id = "c0ffee0000d15c0a"
	body := scheduleBody(t, "hangup")
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, id)
	if resp, err := (&http.Client{Timeout: 200 * time.Millisecond}).Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("a fleet that never answers answered %d", resp.StatusCode)
	}
	// The handler publishes its trace last: once it is there, the
	// abandoned request has been fully accounted.
	deadline := time.Now().Add(5 * time.Second)
	tr, ok := coord.traces.Get(id)
	for ; !ok; tr, ok = coord.traces.Get(id) {
		if time.Now().After(deadline) {
			t.Fatal("the coordinator never finished the abandoned request")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tr.Outcome != "canceled" {
		t.Errorf("abandoned request outcome %q, want canceled", tr.Outcome)
	}
	unblamed := func(when string) {
		t.Helper()
		for _, n := range coord.Nodes() {
			if n.State != "ready" || n.Failures != 0 || n.Inflight != 0 {
				t.Errorf("%s: node %s %s with %d failures, %d in flight; want ready, 0, 0",
					when, n.ID, n.State, n.Failures, n.Inflight)
			}
		}
		if got := coord.metrics.failovers.Load(); got != 0 {
			t.Errorf("%s: failovers = %d, want 0", when, got)
		}
	}
	unblamed("after the client hung up")
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `gpcoordd_request_duration_seconds_count{endpoint="schedule",outcome="canceled"} 1`; !strings.Contains(string(text), want) {
		t.Errorf("metrics missing %q", want)
	}

	// A caller whose context is already done places nothing at all.
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	placements := coord.metrics.placements.Load()
	if fr := coord.scheduleOnFleet(ctx, key, body, "", nil); fr.resp != nil {
		t.Fatalf("canceled caller was served by %s", fr.node.id)
	}
	if got := coord.metrics.placements.Load(); got != placements {
		t.Errorf("canceled caller made %d placements, want 0", got-placements)
	}
	unblamed("after an already-canceled caller")
}

// TestScheduleInflightDrainsToZero pins the request path's in-flight
// accounting: however an attempt ends — served, shed with 429, killed
// mid-request — and whether a singleton or a batch loop made it, the slot
// it took on its node is released, so every node's gpcoordd_node_inflight
// is back to 0 once traffic stops.
func TestScheduleInflightDrainsToZero(t *testing.T) {
	coord, base := startCoordinator(t, slowDetectorConfig())
	startWorker(t, base, "wA")
	wB := startWorker(t, base, "wB")
	registerFakeWorker(t, base, "busy", "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready", "busy": "ready"})

	ownedBy := func(id string) []byte {
		t.Helper()
		for i := 0; i < 256; i++ {
			b := scheduleBody(t, fmt.Sprintf("drain%s%d", id, i))
			key, err := server.ScheduleCacheKey(b)
			if err != nil {
				t.Fatal(err)
			}
			if n, _, _, _ := place(coord.reg.candidates(), key, nil, 0); n.id == id {
				return b
			}
		}
		t.Fatalf("no key HRW-owned by %s in 256 tries", id)
		return nil
	}
	serve := func(what string, body []byte) {
		t.Helper()
		if resp, out := postSchedule(t, base, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", what, resp.StatusCode, out)
		}
	}

	serve("success", ownedBy("wA"))
	serve("429 retry", ownedBy("busy"))
	if coord.metrics.retries.Load() == 0 {
		t.Fatal("the saturated owner was never tried")
	}
	victim := ownedBy("wB")
	wB.chaos.armKillSchedule(1)
	serve("transport failover", victim)
	if coord.metrics.failovers.Load() == 0 {
		t.Fatal("the kill did not trigger a failover")
	}
	if resp, out := postBatch(t, base, batchBody(t, []string{"drainba", "drainbb", "drainbc"}, false)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, id := range []string{"wA", "wB", "busy"} {
		if want := fmt.Sprintf("gpcoordd_node_inflight{node=%q} 0\n", id); !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestScheduleNoWorkers(t *testing.T) {
	_, base := startCoordinator(t, testConfig())
	resp, out := postSchedule(t, base, scheduleBody(t, "nobody"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet: %d %s", resp.StatusCode, out)
	}
}

func TestScheduleBadRequestShedAtEdge(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	w := startWorker(t, base, "wA")
	waitForStates(t, coord, map[string]string{"wA": "ready"})

	resp, out := postSchedule(t, base, []byte(`{"loop_text": "not a loop"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d %s", resp.StatusCode, out)
	}
	// The worker never saw it.
	if _, misses, _, _ := w.srv.Metrics(); misses != 0 {
		t.Fatalf("bad request reached a worker (%d misses)", misses)
	}
}

func TestMetricsExposeNodeHealth(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})
	wA.kill()
	waitForStates(t, coord, map[string]string{"wA": "dead", "wB": "ready"})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`gpcoordd_node_health{node="wA"} 2`,
		`gpcoordd_node_health{node="wB"} 0`,
		"gpcoordd_nodes 2",
		"gpcoordd_requests_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
