package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// startDaemon boots run() on a loopback port and returns the base URL and a
// shutdown function that triggers the graceful drain and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout lockedBuffer
	var stderr lockedBuffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, args, &stdout, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr: %s", stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "gpserved listening on "); ok {
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
			t.Fatal("daemon did not drain in time")
			return -1
		}
	}
}

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

func smokeBody(t *testing.T, name string) []byte {
	t.Helper()
	text := strings.Replace(smokeLoop, "loop smoke 100", "loop "+name+" 100", 1)
	body, err := json.Marshal(map[string]any{
		"loop_text": text,
		"clusters":  2, "regs": 32, "nbus": 1, "latbus": 1,
		"scheme": "GP",
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServedSmoke is the CI smoke gate: boot the daemon, hit /healthz, fire
// concurrent identical and distinct schedule requests, require cache hits
// byte-identical to cold responses, drive the pool into saturation until a
// 429 with Retry-After appears, and drain gracefully.
func TestServedSmoke(t *testing.T) {
	base, shutdown := startDaemon(t, "-workers", "1", "-queue", "2")

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(ok)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, ok)
	}

	post := func(body []byte) (*http.Response, []byte, error) {
		resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp, out, err
	}

	// Cold request, then a cache hit that must be byte-identical.
	cold := smokeBody(t, "cold")
	respCold, bodyCold, err := post(cold)
	if err != nil || respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold request: %v %d %s", err, respCold.StatusCode, bodyCold)
	}
	respHot, bodyHot, err := post(cold)
	if err != nil || respHot.StatusCode != http.StatusOK {
		t.Fatalf("hot request: %v %d %s", err, respHot.StatusCode, bodyHot)
	}
	if respHot.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second identical request not served from cache (X-Cache=%q)", respHot.Header.Get("X-Cache"))
	}
	if !bytes.Equal(bodyCold, bodyHot) {
		t.Fatal("cache hit differs from cold response")
	}

	// Concurrent identical + distinct traffic: all 200, identical bodies
	// agree with the cold bytes.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := cold
			if i%2 == 1 {
				body = smokeBody(t, fmt.Sprintf("distinct%d", i))
			}
			resp, out, err := post(body)
			if err != nil {
				errs <- err
				return
			}
			// Saturation of the deliberately tiny pool is allowed here; the
			// dedicated push below asserts it actually happens.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("request %d: status %d body %s", i, resp.StatusCode, out)
				return
			}
			if resp.StatusCode == http.StatusOK && i%2 == 0 && !bytes.Equal(out, bodyCold) {
				errs <- fmt.Errorf("identical request %d returned different bytes", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Saturation: keep firing distinct (uncacheable, uncoalescible) loops
	// until the bounded queue sheds one with 429 + Retry-After.
	saw429 := false
	deadline := time.Now().Add(60 * time.Second)
	for round := 0; !saw429 && time.Now().Before(deadline); round++ {
		var mu sync.Mutex
		var burst sync.WaitGroup
		for i := 0; i < 12; i++ {
			burst.Add(1)
			go func(i int) {
				defer burst.Done()
				resp, _, err := post(smokeBody(t, fmt.Sprintf("sat%d_%d", round, i)))
				if err != nil {
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					mu.Lock()
					saw429 = true
					mu.Unlock()
				}
			}(i)
		}
		burst.Wait()
	}
	if !saw429 {
		t.Fatal("never saw 429 backpressure under sustained distinct load")
	}

	// Metrics reflect the traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"gpserved_cache_hits_total", "gpserved_rejected_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d", code)
	}
}

// TestWorkerModeJoinsAndLeavesFleet boots the daemon in -coordinator mode
// against a real cluster coordinator: it must register, serve proxied
// requests tagged with its node identity, and deregister before draining
// so the coordinator stops routing to it immediately.
func TestWorkerModeJoinsAndLeavesFleet(t *testing.T) {
	coord, err := cluster.New(cluster.Config{HeartbeatInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chs := &http.Server{Handler: coord.Handler()}
	go func() { _ = chs.Serve(ln) }()
	defer func() {
		_ = chs.Close()
		coord.Close()
	}()
	coordBase := "http://" + ln.Addr().String()

	base, shutdown := startDaemon(t, "-coordinator", coordBase, "-node-id", "joiner")
	_ = base

	deadline := time.Now().Add(10 * time.Second)
	for {
		nodes := coord.Nodes()
		if len(nodes) == 1 && nodes[0].ID == "joiner" && nodes[0].State == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A request proxied through the coordinator reaches this worker and
	// carries its identity.
	resp, err := http.Post(coordBase+"/v1/schedule", "application/json", bytes.NewReader(smokeBody(t, "viacoord")))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied request: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Node"); got != "joiner" {
		t.Fatalf("X-Node = %q, want joiner", got)
	}

	// Graceful shutdown deregisters: the node table empties rather than
	// waiting out the dead-node detector.
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d", code)
	}
	if nodes := coord.Nodes(); len(nodes) != 0 {
		t.Fatalf("worker still registered after graceful exit: %+v", nodes)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
