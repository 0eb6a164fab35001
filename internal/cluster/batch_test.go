package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/workload"
)

// batchBody builds a /v1/schedule/batch envelope carrying the named loops
// (scheduleBody's loop shape) plus optionally a broken one.
func batchBody(t *testing.T, names []string, withBroken bool) []byte {
	t.Helper()
	var loops []map[string]any
	for _, n := range names {
		loop := fmt.Sprintf(`loop %s 100
node 0 Load a[i]
node 1 FPMul *c
node 2 FPAdd +s
node 3 Store s=
edge 0 1 2 0 data
edge 1 2 4 0 data
edge 2 3 4 0 data
edge 2 2 4 1 data
`, n)
		loops = append(loops, map[string]any{"loop_text": loop})
	}
	if withBroken {
		loops = append(loops, map[string]any{"loop_text": "loop broken"})
	}
	body, err := json.Marshal(map[string]any{
		"clusters": 2, "regs": 32, "nbus": 1, "latbus": 1,
		"scheme": "GP",
		"loops":  loops,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postBatch(t testing.TB, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/schedule/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/schedule/batch: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// standaloneBatch returns a single standalone worker's reply to a batch
// body: the bytes the fan-out must reproduce.
func standaloneBatch(tb testing.TB, body []byte) []byte {
	tb.Helper()
	ref := server.New(server.Config{})
	rts := httptest.NewServer(ref.Handler())
	defer func() {
		rts.Close()
		ref.Close()
	}()
	resp, want := postBatch(tb, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("single-node batch: %d %s", resp.StatusCode, want)
	}
	return want
}

// specfpBatch returns a /v1/schedule/batch envelope of the first 8
// SPECfp95 loops on the paper's 4-cluster/64reg/1bus/lat1 machine under
// GP, as ddgio text: a compilation unit of fleet-zipf's shape.
func specfpBatch(tb testing.TB) []byte {
	tb.Helper()
	env := server.BatchRequest{Machine: machine.MustClustered(4, 64, 1, 1), Scheme: "GP"}
	for _, bm := range workload.SPECfp95() {
		for _, l := range bm.Loops {
			if len(env.Loops) == 8 {
				break
			}
			var text bytes.Buffer
			if err := ddgio.Write(&text, l.G); err != nil {
				tb.Fatal(err)
			}
			env.Loops = append(env.Loops, server.BatchLoop{LoopText: text.String()})
		}
	}
	body, err := json.Marshal(&env)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestBatchDistributedByteIdenticalToSingleNode pins the batch fan-out
// contract: a batch through the coordinator — its loops rendezvous-placed
// across two workers, one of which dies mid-batch and fails over — produces
// exactly the bytes a single standalone worker's batch endpoint does,
// including the per-loop error element for a broken loop.
func TestBatchDistributedByteIdenticalToSingleNode(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	startWorker(t, base, "wB")

	names := []string{"ba", "bb", "bc", "bd"}
	body := batchBody(t, names, true)
	want := standaloneBatch(t, body)

	// Kill the next schedule connection wA accepts: its sub-batch dies
	// mid-batch and every loop in it fails over to wB.
	wA.chaos.armKillSchedule(1)
	resp, got := postBatch(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed batch: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed batch diverges from single-node bytes:\ngot:  %s\nwant: %s", got, want)
	}
	if coord.metrics.failovers.Load() == 0 {
		t.Fatal("chaos did not trigger a failover; the kill path went untested")
	}
	if n := coord.metrics.batchLoops.Load(); n != int64(len(names)+1) {
		t.Fatalf("batch loops metric = %d, want %d", n, len(names)+1)
	}

	// Affinity: rerunning the same batch is all cache hits on the workers,
	// still byte-identical.
	resp2, got2 := postBatch(t, base, body)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got2, want) {
		t.Fatal("batch rerun diverged")
	}
}

// TestBatchEnvelopeRejectedAtEdge pins that a malformed batch envelope is
// shed by the coordinator without consuming any worker.
func TestBatchEnvelopeRejectedAtEdge(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	resp, out := postBatch(t, base, []byte(`{"clusters":2,"loops":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (want 400), body %s", resp.StatusCode, out)
	}
	if coord.metrics.placements.Load() != 0 {
		t.Fatal("malformed batch reached a worker")
	}
}

// TestBatchForwardsOneSubBatchPerWorker pins the fan-out's round trips on
// BenchmarkCoordinatorBatch's envelope: once warm, an 8-loop batch on two
// workers costs each worker at most one /v1/schedule/batch request and no
// /v1/schedule request, and its bytes are a standalone worker's batch.
func TestBatchForwardsOneSubBatchPerWorker(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	workers := []*testWorker{startWorker(t, base, "wA"), startWorker(t, base, "wB")}
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})
	body := specfpBatch(t)
	want := standaloneBatch(t, body)

	for round := 0; round < 3; round++ { // round 0 warms the workers
		var before []int
		for _, w := range workers {
			before = append(before, w.chaos.served("/v1/schedule/batch"))
		}
		forwards := coord.metrics.batchForwards.Load()
		resp, got := postBatch(t, base, body)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d, bytes differ from a standalone worker's batch:\n%s", round, resp.StatusCode, got)
		}
		total := 0
		for k, w := range workers {
			n := w.chaos.served("/v1/schedule/batch") - before[k]
			if n > 1 {
				t.Errorf("round %d: %s served %d batch requests, want at most 1", round, w.id, n)
			}
			if s := w.chaos.served("/v1/schedule"); s != 0 {
				t.Errorf("round %d: %s served %d singleton requests, want 0", round, w.id, s)
			}
			total += n
		}
		if total > len(workers) {
			t.Errorf("round %d: %d worker requests for one batch, want at most %d", round, total, len(workers))
		}
		if n := coord.metrics.batchForwards.Load() - forwards; n != int64(total) {
			t.Errorf("round %d: gpcoordd_batch_forwards_total rose by %d, workers served %d", round, n, total)
		}
	}
}

// TestBatchInternalElementFailsOverAlone pins per-loop failover inside a
// sub-batch: a worker that answers one loop with an internal error — its
// rendering of what a singleton gets as a 500 — sends that loop alone to
// the next worker, and the envelope's bytes do not change. When every
// worker fails the loop, its element is the upstream_failed error a
// singleton would get, naming the last worker tried.
func TestBatchInternalElementFailsOverAlone(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	workers := map[string]*testWorker{"wA": startWorker(t, base, "wA"), "wB": startWorker(t, base, "wB")}
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})
	names := []string{"ia", "ib", "ic", "id"}
	body := batchBody(t, names, false)
	want := standaloneBatch(t, body)
	items, err := server.BatchItems(body)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, it := range items {
		n, _, _, _ := place(coord.reg.candidates(), it.Key, nil, 0)
		owners[n.id] = true
	}
	owner, _, _, _ := place(coord.reg.candidates(), items[1].Key, nil, 0)
	other := "wA"
	if owner.id == "wA" {
		other = "wB"
	}

	workers[owner.id].chaos.setFailLoop(names[1])
	forwards := coord.metrics.batchForwards.Load()
	resp, got := postBatch(t, base, body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("one failing worker: %d, bytes differ from a standalone worker's batch:\n%s", resp.StatusCode, got)
	}
	if n := coord.metrics.failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1: the failed loop alone", n)
	}
	if n := coord.metrics.batchForwards.Load() - forwards; n != int64(len(owners)+1) {
		t.Errorf("%d sub-batches forwarded, want %d: one per owner, one for the failed-over loop", n, len(owners)+1)
	}

	workers[other].chaos.setFailLoop(names[1])
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})
	resp, got = postBatch(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("every worker failing: %d %s", resp.StatusCode, got)
	}
	gotElems, err := server.SplitBatch(got, len(names))
	if err != nil {
		t.Fatalf("%v:\n%s", err, got)
	}
	wantElems, err := server.SplitBatch(want, len(names))
	if err != nil {
		t.Fatal(err)
	}
	wantElems[1] = server.MarshalError(server.ErrCodeUpstreamFailed, fmt.Sprintf("all workers failed, last: worker %s answered 500: %s",
		other, server.MarshalError(server.ErrCodeInternal, "schedule: injected failure")))
	for i := range names {
		if !bytes.Equal(gotElems[i], wantElems[i]) {
			t.Errorf("loop %d element:\n%s\nwant\n%s", i, gotElems[i], wantElems[i])
		}
	}
	if n := coord.metrics.failovers.Load(); n != 3 {
		t.Errorf("failovers = %d, want 3: the loop once more on each worker", n)
	}
}

// BenchmarkCoordinatorBatch times one warmed 8-loop SPECfp95 batch through
// a coordinator and two in-process workers on loopback: edge admission,
// placement, one sub-batch per worker answered from the worker's
// body-hash fast path, and reassembly. It reports the sub-batches
// forwarded per batch.
func BenchmarkCoordinatorBatch(b *testing.B) {
	coord, base := startCoordinator(b, testConfig())
	startWorker(b, base, "wA")
	startWorker(b, base, "wB")
	waitForStates(b, coord, map[string]string{"wA": "ready", "wB": "ready"})
	body := specfpBatch(b)
	if resp, out := postBatch(b, base, body); resp.StatusCode != http.StatusOK {
		b.Fatalf("warm-up batch: %d %s", resp.StatusCode, out)
	}
	forwards := coord.metrics.batchForwards.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(base+"/v1/schedule/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("batch: %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(coord.metrics.batchForwards.Load()-forwards)/float64(b.N), "forwards/op")
}
