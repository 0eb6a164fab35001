package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/server"
)

// lockedBuffer is a goroutine-safe bytes.Buffer (run() writes, test reads).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startCoordd boots run() on a loopback port and returns the base URL and
// a shutdown function that triggers the graceful drain and waits for exit.
func startCoordd(t *testing.T, extraArgs ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr lockedBuffer
	args := append([]string{"-addr", "127.0.0.1:0", "-heartbeat", "50ms"}, extraArgs...)
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, args, &stdout, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address; stderr: %s", stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "gpcoordd listening on "); ok {
				base = "http://" + strings.TrimSpace(addr)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, func() int {
		cancel()
		select {
		case code := <-exit:
			return code
		case <-time.After(30 * time.Second):
			t.Fatal("coordinator did not drain in time")
			return -1
		}
	}
}

// startFleetWorker boots a real gpserved serving stack (server.Server over
// HTTP plus the registration agent) and joins it to the coordinator.
func startFleetWorker(t *testing.T, coordBase, id string) {
	t.Helper()
	srv := server.New(server.Config{NodeID: id})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	agent := server.StartAgent(server.AgentConfig{
		Coordinator: coordBase,
		NodeID:      id,
		Endpoint:    "http://" + ln.Addr().String(),
		Capacity:    runtime.GOMAXPROCS(0),
	})
	t.Cleanup(func() {
		agent.Close()
		_ = hs.Close()
		srv.Close()
	})
}

func waitForReadyNodes(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/fleet/nodes")
		if err != nil {
			t.Fatal(err)
		}
		var nodes []struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&nodes)
		resp.Body.Close()
		if err == nil {
			ready := 0
			for _, n := range nodes {
				if n.State == "ready" {
					ready++
				}
			}
			if ready == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d ready nodes", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const smokeLoop = `loop smoke 100
node 0 Load a[i]
node 1 FPMul *c
node 2 FPAdd +s
node 3 Store s=
edge 0 1 2 0 data
edge 1 2 4 0 data
edge 2 3 4 0 data
edge 2 2 4 1 data
`

// TestCoorddSmoke is the CI cluster gate: boot the coordinator daemon,
// join two workers, prove cache-affine routing with an observable cache
// hit through the coordinator, run a sharded sweep job end-to-end whose
// CSV is byte-identical to the in-process single-node sweep, and drain
// gracefully.
func TestCoorddSmoke(t *testing.T) {
	base, shutdown := startCoordd(t)
	startFleetWorker(t, base, "smoke-a")
	startFleetWorker(t, base, "smoke-b")
	waitForReadyNodes(t, base, 2)

	// Liveness: healthz is a JSON fleet summary now.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Journal bool   `json:"journal"`
		Nodes   struct {
			Ready int `json:"ready"`
		} `json:"nodes"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(healthBody, &health) != nil {
		t.Fatalf("healthz: %d %q", resp.StatusCode, healthBody)
	}
	if health.Status != "ok" || health.Journal || health.Nodes.Ready != 2 {
		t.Fatalf("healthz summary off: %s", healthBody)
	}

	// Proxied scheduling: identical requests route to one worker and the
	// second is a cache hit, observable through the coordinator.
	body, err := json.Marshal(map[string]any{
		"loop_text": smokeLoop,
		"clusters":  2, "regs": 32, "nbus": 1, "latbus": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}
	respCold, outCold := post()
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", respCold.StatusCode, outCold)
	}
	node := respCold.Header.Get("X-Node")
	if node == "" {
		t.Fatal("no X-Node header on proxied response")
	}
	respHot, outHot := post()
	if respHot.StatusCode != http.StatusOK || respHot.Header.Get("X-Node") != node {
		t.Fatalf("hot request routed to %q, want %q", respHot.Header.Get("X-Node"), node)
	}
	if respHot.Header.Get("X-Cache") != "hit" {
		t.Fatalf("identical request not a cache hit through the coordinator (X-Cache=%q)", respHot.Header.Get("X-Cache"))
	}
	if !bytes.Equal(outCold, outHot) {
		t.Fatal("cache hit bytes differ from cold response")
	}

	if testing.Short() {
		if code := shutdown(); code != 0 {
			t.Fatalf("daemon exited %d", code)
		}
		return
	}

	// Async sweep job across the fleet, byte-identical to the single-node
	// sweep.
	jobReq := server.SweepRequest{
		Machines: []machine.Config{
			*machine.MustClustered(2, 64, 1, 1),
			*machine.MustClustered(4, 64, 1, 1),
		},
		Corpora:  []string{"SPECfp95", "DSP"},
		MaxLoops: 1,
	}
	jb, err := json.Marshal(&jobReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(jb))
	if err != nil {
		t.Fatal(err)
	}
	ackBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create job: %d %s", resp.StatusCode, ackBody)
	}
	var ack struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Cells != 4 {
		t.Fatalf("job has %d cells, want 4", ack.Cells)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State  string `json:"state"`
			Done   int    `json:"done"`
			Failed int    `json:"failed"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q (done %d, failed %d)", st.State, st.Done, st.Failed)
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err = http.Get(base + "/v1/jobs/" + ack.ID + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv: %d %s", resp.StatusCode, gotCSV)
	}

	machines, corpora, err := server.ResolveSweep(&jobReq)
	if err != nil {
		t.Fatal(err)
	}
	points, err := bench.Sweep(context.Background(), machines, corpora, bench.Config{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bench.WriteSweepCSV(&want, points); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, want.Bytes()) {
		t.Fatalf("distributed job CSV differs from single-node sweep:\ngot:\n%s\nwant:\n%s", gotCSV, want.Bytes())
	}

	// Coordinator metrics carry the cluster counters.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, wantLine := range []string{"gpcoordd_placements_total", "gpcoordd_jobs_done_total 1", "gpcoordd_node_health"} {
		if !strings.Contains(string(metrics), wantLine) {
			t.Errorf("metrics missing %q", wantLine)
		}
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d", code)
	}
}

func TestBenchJSONMode(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; skipped with -short")
	}
	path := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-bench-json", path,
		"-bench-requests", "120",
		"-bench-concurrency", "4",
		"-bench-workers", "2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap bench.ServerPerfSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v\n%s", err, data)
	}
	if snap.Requests != 120 || snap.RequestsPerSec <= 0 || snap.Errors != 0 {
		t.Fatalf("implausible snapshot: %+v", snap)
	}
	if snap.CacheHitRate <= 0 {
		// 120 requests cycle an 81-loop working set: the second lap must
		// hit the fleet's sharded caches.
		t.Fatalf("no cache hits cycling the working set twice: %+v", snap)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestCoorddJournalRoundTrip proves the daemon wiring of the durable
// store: a journaled run registers a worker and a restarted daemon on the
// same journal still knows it (as a suspect node) before any re-register.
func TestCoorddJournalRoundTrip(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal")
	base, shutdown := startCoordd(t, "-journal", journal)
	startFleetWorker(t, base, "jw-a")
	waitForReadyNodes(t, base, 1)
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d", code)
	}

	// A long heartbeat keeps the adopted node in suspect (not swept to
	// dead) for the whole assertion window.
	base2, shutdown2 := startCoordd(t, "-journal", journal, "-heartbeat", "30s")
	defer shutdown2()
	resp, err := http.Get(base2 + "/v1/fleet/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodes []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&nodes)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The worker from the first run may already have re-registered (its
	// agent heartbeats the fixed coordinator URL only in-process, so here
	// it cannot) — the restarted daemon must know it purely from the
	// journal, in the adopted-suspect state.
	if len(nodes) != 1 || nodes[0].ID != "jw-a" || nodes[0].State != "suspect" {
		t.Fatalf("journaled node not adopted: %+v", nodes)
	}
}

// TestCoorddJournalFailFast covers the small-fix satellite: an unwritable
// or version-mismatched journal directory must fail startup with a clear
// error, never run silently non-durable.
func TestCoorddJournalFailFast(t *testing.T) {
	mismatch := t.TempDir()
	if err := os.WriteFile(filepath.Join(mismatch, "VERSION"), []byte("gpcoordd-journal-v999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-journal", mismatch}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d with version-mismatched journal, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "version") {
		t.Fatalf("no version-mismatch explanation on stderr: %s", stderr.String())
	}

	if os.Geteuid() != 0 { // root ignores file modes
		unwritable := t.TempDir()
		if err := os.Chmod(unwritable, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(unwritable, 0o755)
		stdout.Reset()
		stderr.Reset()
		if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-journal", unwritable}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d with unwritable journal dir, want 1; stderr: %s", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "journal") {
			t.Fatalf("no journal explanation on stderr: %s", stderr.String())
		}
	}
}
