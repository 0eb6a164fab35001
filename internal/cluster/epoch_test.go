package cluster

// Tests for the algorithm-epoch machinery: failover header hygiene,
// coordinator-driven fleet flushes, version-pinned sweep placement and the
// shadow-verify canary. These are the regression proofs for the
// stale-cache-across-deploys class of bug: a response must never mix
// headers, bytes or cache entries from two different scheduler
// generations.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/store"
)

// slowDetectorConfig is testConfig with the missed-heartbeat detector
// effectively off, so fake workers registered without a heartbeat loop
// stay ready and the only thing that can demote them is the behavior
// under test.
func slowDetectorConfig() Config {
	cfg := testConfig()
	cfg.SuspectAfter = 10 * time.Second
	cfg.DeadAfter = 20 * time.Second
	return cfg
}

// registerFakeWorker registers an httptest-backed fake worker under a
// fixed ID and advertised algorithm version. It never heartbeats — pair it
// with slowDetectorConfig.
func registerFakeWorker(t *testing.T, base, id, version string, handler http.Handler) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	reg, err := json.Marshal(server.RegisterRequest{ID: id, Endpoint: ts.URL, Capacity: 2, AlgoVersion: version})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/nodes/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: %d", id, resp.StatusCode)
	}
}

func postFlush(t *testing.T, base, body string) FlushFleetResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/cache/flush", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out FlushFleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("flush response not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d %+v", resp.StatusCode, out)
	}
	return out
}

// TestFailoverRelaysOnlyServingHeaders pins the header-relay contract: a
// failed-over request must carry only the headers of the attempt whose
// body the client receives. The regression this guards: the proxy used to
// copy headers from every attempt, so a 429's Retry-After (or a stale
// X-Algo-Epoch) leaked onto the 200 another worker served.
func TestFailoverRelaysOnlyServingHeaders(t *testing.T) {
	_, base := startCoordinator(t, slowDetectorConfig())

	// Rank the two fake IDs for this body's key so the saturated worker is
	// provably the first attempt and the healthy one the failover target.
	body := scheduleBody(t, "hdrrelay")
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}
	ranked := hrwRank([]candidate{{id: "fwA"}, {id: "fwB"}}, key)
	satID, okID := ranked[0].id, ranked[1].id

	registerFakeWorker(t, base, satID, "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Poisoned headers: none of these may reach the client.
		w.Header().Set("Retry-After", "9")
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("X-Algo-Epoch", "99")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	registerFakeWorker(t, base, okID, "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("X-Algo-Version", schedule.AlgoVersion)
		fmt.Fprint(w, `{"fake":"schedule"}`)
	}))

	resp, out := postSchedule(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover answered %d %s, want 200", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Node"); got != okID {
		t.Fatalf("X-Node = %q, want the serving worker %q", got, okID)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("Retry-After %q leaked from the saturated attempt", ra)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q, want the serving attempt's miss", xc)
	}
	if ep := resp.Header.Get("X-Algo-Epoch"); ep != "0" {
		t.Fatalf("X-Algo-Epoch = %q, want the fleet's 0 (the 429's 99 must not leak)", ep)
	}
	if v := resp.Header.Get("X-Algo-Version"); v != schedule.AlgoVersion {
		t.Fatalf("X-Algo-Version = %q, want %q", v, schedule.AlgoVersion)
	}
}

// TestFleetFlushConvergesEpochs drives a full coordinator-led flush:
// /v1/cache/flush raises the fleet epoch, fans out to every worker, the
// warmed cache entry is gone (the re-ask recomputes, byte-identically),
// and the registry view converges immediately.
func TestFleetFlushConvergesEpochs(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	wB := startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	// Warm the fleet cache and prove it serves hits.
	body := scheduleBody(t, "flushfleet")
	first, firstOut := postSchedule(t, base, body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("cold request: %d %s", first.StatusCode, firstOut)
	}
	warm, _ := postSchedule(t, base, body)
	if got := warm.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second identical request X-Cache = %q, want hit", got)
	}

	out := postFlush(t, base, `{"epoch": 5}`)
	if out.Epoch != 5 {
		t.Fatalf("flush settled at epoch %d, want 5", out.Epoch)
	}
	if len(out.Nodes) != 2 {
		t.Fatalf("flush reached %d node(s), want 2: %+v", len(out.Nodes), out.Nodes)
	}
	for _, n := range out.Nodes {
		if n.Error != "" || n.Epoch != 5 {
			t.Fatalf("node %s did not converge: %+v", n.Node, n)
		}
	}
	if coord.Epoch() != 5 {
		t.Fatalf("coordinator epoch %d, want 5", coord.Epoch())
	}
	if wA.srv.Epoch() != 5 || wB.srv.Epoch() != 5 {
		t.Fatalf("worker epochs %d/%d, want 5/5", wA.srv.Epoch(), wB.srv.Epoch())
	}
	// The registry reflects convergence without waiting a heartbeat.
	for _, n := range coord.Nodes() {
		if n.Epoch != 5 {
			t.Fatalf("registry still shows %s at epoch %d", n.ID, n.Epoch)
		}
	}

	// The flushed fleet recomputes — a miss, not a resurrected hit — and
	// the bytes are identical because the algorithm did not change.
	after, afterOut := postSchedule(t, base, body)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("post-flush request: %d %s", after.StatusCode, afterOut)
	}
	if got := after.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-flush X-Cache = %q, want miss (stale entry served)", got)
	}
	if got := after.Header.Get("X-Algo-Epoch"); got != "5" {
		t.Fatalf("post-flush X-Algo-Epoch = %q, want 5", got)
	}
	if !bytes.Equal(afterOut, firstOut) {
		t.Fatalf("same algorithm, different bytes after flush:\npre:  %s\npost: %s", firstOut, afterOut)
	}

	// An empty-body flush bumps the epoch by one.
	if out := postFlush(t, base, ""); out.Epoch != 6 {
		t.Fatalf("empty-body flush settled at %d, want 6", out.Epoch)
	}
}

// TestFlushEpochSurvivesRestart proves the durability ordering: the fleet
// epoch is journaled before the flush fans out, so a restarted coordinator
// resumes at the post-flush epoch instead of resurrecting the pre-flush
// view of the fleet.
func TestFlushEpochSurvivesRestart(t *testing.T) {
	journalDir := t.TempDir()
	openJournal := func() *store.Journal {
		j, err := store.OpenJournal(journalDir, store.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	cfgA := testConfig()
	cfgA.Store = openJournal()
	coordA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsA := &http.Server{Handler: coordA.Handler()}
	go func() { _ = hsA.Serve(ln) }()

	postFlush(t, "http://"+ln.Addr().String(), `{"epoch": 7}`)
	if coordA.Epoch() != 7 {
		t.Fatalf("pre-restart epoch %d, want 7", coordA.Epoch())
	}
	_ = hsA.Close()
	coordA.Close()

	cfgB := testConfig()
	cfgB.Store = openJournal()
	coordB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordB.Close)
	if coordB.Epoch() != 7 {
		t.Fatalf("restarted coordinator woke at epoch %d, want the journaled 7", coordB.Epoch())
	}
}

// TestJobRefusesMixedVersionFleet is the rolling-upgrade placement proof:
// with two ready workers advertising different algorithm versions, a sweep
// job pins the version of its first placement and refuses the other — the
// finished CSV comes from one scheduler generation, never a mix.
func TestJobRefusesMixedVersionFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed sweep; the cluster-smoke CI job runs it")
	}
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	wB := startWorker(t, base, "wB")
	// Re-register with diverging advertised versions: a rolling upgrade
	// caught mid-flight. (The version-less heartbeat loop leaves the
	// registered version alone.)
	wA.post("/v1/nodes/register", server.RegisterRequest{ID: "wA", Endpoint: wA.endpoint, Capacity: 2, AlgoVersion: "gp/2"})
	wB.post("/v1/nodes/register", server.RegisterRequest{ID: "wB", Endpoint: wB.endpoint, Capacity: 2, AlgoVersion: "gp/3"})
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	// jobMachines guarantees the cells HRW-spread across both workers, so
	// without the version pin this job would mix generations.
	req := server.SweepRequest{
		Machines: jobMachines(t, coord, 1),
		Corpora:  []string{"SPECfp95", "DSP"},
		MaxLoops: 1,
	}
	ack := createJob(t, base, req)
	st := waitForJob(t, base, ack.ID, 120*time.Second)
	if st.State != "done" || st.Done != st.Cells || st.Failed != 0 {
		t.Fatalf("job did not finish cleanly: %+v", st)
	}
	nodes := map[string]bool{}
	for _, cell := range st.Detail {
		nodes[cell.Node] = true
	}
	if len(nodes) != 1 {
		t.Fatalf("job mixed workers across algorithm versions: %+v", st.Detail)
	}
	if coord.metrics.versionRefusals.Load() == 0 {
		t.Fatal("placement never refused a cross-version candidate")
	}
}

// TestShadowVerifyCleanFleetMatches is the canary's no-false-positive
// half: with every worker on the same binary, a sampled replay against the
// next-ranked node byte-matches and the mismatch counter stays zero.
func TestShadowVerifyCleanFleetMatches(t *testing.T) {
	cfg := testConfig()
	cfg.ShadowRate = 1
	coord, base := startCoordinator(t, cfg)
	verdicts := make(chan bool, 8)
	coord.shadow.hook = func(primary, shadow string, match bool) { verdicts <- match }

	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	resp, out := postSchedule(t, base, scheduleBody(t, "shadowclean"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	select {
	case match := <-verdicts:
		if !match {
			t.Fatal("identical workers reported divergent bytes")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shadow replay never completed")
	}
	if coord.metrics.shadowSampled.Load() == 0 {
		t.Fatal("rate-1 shadow verify sampled nothing")
	}
	if n := coord.metrics.shadowMismatch.Load(); n != 0 {
		t.Fatalf("clean fleet produced %d shadow mismatches", n)
	}
}

// TestShadowVerifyFlagsPlantedDivergence is the negative proof the issue
// demands: a canary worker that advertises a different algorithm version
// and serves different bytes for the same content-addressed request is
// caught by the replay — gpcoordd_shadow_mismatch_total goes above zero
// and the version outlier (not the healthy primary) is marked suspect.
func TestShadowVerifyFlagsPlantedDivergence(t *testing.T) {
	cfg := slowDetectorConfig()
	cfg.ShadowRate = 1
	cfg.ShadowCanary = "canary"
	coord, base := startCoordinator(t, cfg)
	type verdict struct {
		primary, shadow string
		match           bool
	}
	verdicts := make(chan verdict, 8)
	coord.shadow.hook = func(p, s string, m bool) { verdicts <- verdict{p, s, m} }

	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	registerFakeWorker(t, base, "canary", "gp/999", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ii": 999, "diverged": true}`)
	}))
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready", "canary": "ready"})

	// Pick a body whose key does not rank the canary first: the planted
	// divergence must be found by the replay, not served to the client.
	var body []byte
	for i := 0; ; i++ {
		b := scheduleBody(t, fmt.Sprintf("shadowdrift%d", i))
		key, err := server.ScheduleCacheKey(b)
		if err != nil {
			t.Fatal(err)
		}
		if n, _, _, ok := place([]candidate{{id: "wA"}, {id: "wB"}, {id: "canary"}}, key, nil, 0); ok && n.id != "canary" {
			body = b
			break
		}
	}

	resp, out := postSchedule(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	select {
	case v := <-verdicts:
		if v.shadow != "canary" {
			t.Fatalf("replay targeted %q, want the designated canary", v.shadow)
		}
		if v.match {
			t.Fatal("planted divergence byte-matched")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shadow replay never completed")
	}
	if coord.metrics.shadowMismatch.Load() == 0 {
		t.Fatal("gpcoordd_shadow_mismatch_total stayed 0 despite planted divergence")
	}
	// Attribution: the divergent-version canary goes suspect, the healthy
	// dominant-version workers stay ready.
	states := map[string]string{}
	for _, n := range coord.Nodes() {
		states[n.ID] = n.State
	}
	if states["canary"] != "suspect" {
		t.Fatalf("divergent-version canary is %q, want suspect", states["canary"])
	}
	if states["wA"] != "ready" || states["wB"] != "ready" {
		t.Fatalf("healthy workers demoted: %v", states)
	}
}
