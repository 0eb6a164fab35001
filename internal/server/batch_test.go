package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/workload"
)

// batchLoopText returns tinyLoopText with a distinct loop name, so a batch
// can carry several distinct-but-similar loops.
func batchLoopText(name string) string {
	return strings.Replace(tinyLoopText, "loop tiny", "loop "+name, 1)
}

func postBatch(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/schedule/batch", "application/json", bytes.NewReader(body))
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

func testMachineText(t *testing.T) string {
	t.Helper()
	m, err := machine.NewClustered(2, 32, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return machine.Format(m)
}

// TestBatchMatchesSingletons pins the batch contract: elements arrive in
// input order, each element is byte-identical to the singleton response for
// the same loop, and batch and singleton traffic share cache entries in
// both directions.
func TestBatchMatchesSingletons(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	mtext := testMachineText(t)

	names := []string{"alpha", "beta", "gamma"}
	req := BatchRequest{Scheme: "GP"}
	cfg := new(machine.Config)
	if err := cfg.UnmarshalText([]byte(mtext)); err != nil {
		t.Fatal(err)
	}
	req.Machine = cfg
	for _, n := range names {
		req.Loops = append(req.Loops, BatchLoop{LoopText: batchLoopText(n)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache with a singleton for the middle loop: its batch
	// element must be a cache hit with the very same bytes.
	singleton := func(n string) []byte {
		b, err := json.Marshal(&ScheduleRequest{LoopText: batchLoopText(n), Machine: cfg, Scheme: "GP"})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	respWarm, warmBody := postSchedule(t, ts, singleton("beta"))
	if respWarm.StatusCode != http.StatusOK {
		t.Fatalf("warm singleton: %d %s", respWarm.StatusCode, warmBody)
	}

	resp, out := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}

	var elems []ScheduleResponse
	if err := json.Unmarshal(out, &elems); err != nil {
		t.Fatalf("batch body is not a JSON array: %v\n%s", err, out)
	}
	if len(elems) != len(names) {
		t.Fatalf("%d elements, want %d", len(elems), len(names))
	}
	for i, n := range names {
		if elems[i].Loop != n {
			t.Errorf("element %d is loop %q, want %q (ordering)", i, elems[i].Loop, n)
		}
		if !elems[i].Verified {
			t.Errorf("element %d not verified", i)
		}
	}

	// Reconstruct the exact expected batch bytes from the singleton
	// responses (the ones after the batch must be cache hits — reverse
	// direction of entry sharing).
	var want bytes.Buffer
	want.WriteString(BatchOpen)
	for i, n := range names {
		if i > 0 {
			want.WriteString(BatchSep)
		}
		respS, sBody := postSchedule(t, ts, singleton(n))
		if respS.StatusCode != http.StatusOK {
			t.Fatalf("singleton %s: %d %s", n, respS.StatusCode, sBody)
		}
		if respS.Header.Get("X-Cache") != "hit" {
			t.Fatalf("singleton %s after batch: X-Cache %q, want hit", n, respS.Header.Get("X-Cache"))
		}
		want.Write(bytes.TrimSuffix(sBody, []byte("\n")))
	}
	want.WriteString(BatchClose)
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatalf("batch bytes differ from singleton reassembly:\nbatch: %s\nwant:  %s", out, want.Bytes())
	}

	// The shared machine text resolves through the parsed-machine cache:
	// the warm singleton misses once, everything after hits.
	if h, m := srv.metrics.machineCacheHits.Load(), srv.metrics.machineCacheMisses.Load(); m != 1 || h < int64(len(names)) {
		t.Fatalf("machine cache hits=%d misses=%d, want misses=1 and hits>=%d", h, m, len(names))
	}
}

// TestBatchPartialFailure pins per-loop failure semantics: one bad loop
// yields an error element in its slot, the rest of the batch still
// schedules, and the response is a 200.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte(`{"clusters":2,"regs":32,"loops":[` +
		`{"loop_text":` + string(mustJSON(t, batchLoopText("good"))) + `},` +
		`{"loop_text":"loop broken"},` +
		`{"loop_text":` + string(mustJSON(t, batchLoopText("tail"))) + `}]}`)
	resp, out := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(out, &elems); err != nil {
		t.Fatalf("batch body is not a JSON array: %v\n%s", err, out)
	}
	if len(elems) != 3 {
		t.Fatalf("%d elements, want 3", len(elems))
	}
	var okElem ScheduleResponse
	if err := json.Unmarshal(elems[0], &okElem); err != nil || okElem.Loop != "good" {
		t.Fatalf("element 0: %v %s", err, elems[0])
	}
	var errElem errorResponse
	if err := json.Unmarshal(elems[1], &errElem); err != nil || errElem.Error.Code == "" {
		t.Fatalf("element 1 is not an error object: %s", elems[1])
	}
	var tailElem ScheduleResponse
	if err := json.Unmarshal(elems[2], &tailElem); err != nil || tailElem.Loop != "tail" {
		t.Fatalf("element 2: %v %s", err, elems[2])
	}
}

// TestBatchEnvelopeFastPath pins the verbatim-repeat fast path for whole
// batch envelopes: a fully served batch body is re-answered from the
// body-hash index (X-Cache hit, identical bytes, no re-parse), while an
// envelope whose response carries an error element is never cached.
func TestBatchEnvelopeFastPath(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	clean := []byte(`{"clusters":2,"regs":32,"loops":[` +
		`{"loop_text":` + string(mustJSON(t, batchLoopText("fp-a"))) + `},` +
		`{"loop_text":` + string(mustJSON(t, batchLoopText("fp-b"))) + `}]}`)
	resp1, out1 := postBatch(t, ts, clean)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold batch: status %d X-Cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	resp2, out2 := postBatch(t, ts, clean)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("verbatim repeat: status %d X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(out1, out2) {
		t.Fatalf("fast-path bytes differ:\n%s\nvs\n%s", out1, out2)
	}
	if h := srv.metrics.bodyHits.Load(); h != 1 {
		t.Fatalf("body hits = %d, want 1", h)
	}
	loops := srv.metrics.batchLoops.Load()
	if loops != 2 {
		t.Fatalf("batchLoops = %d, want 2 (fast path must not re-count)", loops)
	}

	// Error elements follow the singleton rule: never cached, so a repeat
	// of a partially failed envelope re-parses every time.
	dirty := []byte(`{"clusters":2,"regs":32,"loops":[` +
		`{"loop_text":` + string(mustJSON(t, batchLoopText("fp-c"))) + `},` +
		`{"loop_text":"loop broken"}]}`)
	for i := 0; i < 2; i++ {
		resp, _ := postBatch(t, ts, dirty)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("dirty post %d: status %d X-Cache %q (error envelopes must not be cached)",
				i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
	}
}

// TestBatchEnvelopeErrors pins the envelope-level 400s: admission failures
// of the batch itself, as opposed to per-loop errors, reject the request.
func TestBatchEnvelopeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var many strings.Builder
	many.WriteString(`{"clusters":2,"loops":[`)
	for i := 0; i <= maxBatchLoops; i++ {
		if i > 0 {
			many.WriteString(",")
		}
		fmt.Fprintf(&many, `{"loop_text":%s}`, mustJSON(t, batchLoopText(fmt.Sprintf("l%d", i))))
	}
	many.WriteString(`]}`)
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{{{`},
		{"unknown field", `{"clusters":2,"bogus":1,"loops":[{"loop_text":"x"}]}`},
		{"no loops", `{"clusters":2,"loops":[]}`},
		{"missing loops", `{"clusters":2}`},
		{"too many loops", many.String()},
		// A retired wire field is an unknown field, not an ignored knob.
		{"portfolio field", `{"clusters":2,"portfolio":4,"loops":[{"loop_text":"loop x 1\nnode 0 IntALU\n"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := postBatch(t, ts, []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (want 400), body %s", resp.StatusCode, out)
			}
		})
	}
}

// TestMachineCacheHeader pins the X-Machine-Cache header: first sighting of
// a machine text is a miss, a different request reusing the same text is a
// hit, and grid requests don't touch the cache at all.
func TestMachineCacheHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mtext := testMachineText(t)
	body := func(name string) []byte {
		return []byte(`{"loop_text":` + string(mustJSON(t, batchLoopText(name))) + `,"machine":` + string(mustJSON(t, mtext)) + `}`)
	}
	respA, outA := postSchedule(t, ts, body("mc1"))
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", respA.StatusCode, outA)
	}
	if got := respA.Header.Get("X-Machine-Cache"); got != "miss" {
		t.Fatalf("first X-Machine-Cache = %q, want miss", got)
	}
	respB, outB := postSchedule(t, ts, body("mc2"))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", respB.StatusCode, outB)
	}
	if got := respB.Header.Get("X-Machine-Cache"); got != "hit" {
		t.Fatalf("second X-Machine-Cache = %q, want hit", got)
	}
	respC, _ := postSchedule(t, ts, scheduleBody(t, nil))
	if got := respC.Header.Get("X-Machine-Cache"); got != "" {
		t.Fatalf("grid request X-Machine-Cache = %q, want unset", got)
	}
}

// TestHitPathZeroAllocs pins the fast hit path's allocation budget: serving
// a verbatim repeat out of the body-hash index allocates nothing on the
// schedule side (hash + probe + bytes already in hand).
func TestHitPathZeroAllocs(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := scheduleBody(t, nil)
	if resp, out := postSchedule(t, ts, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: %d %s", resp.StatusCode, out)
	}
	if _, ok := srv.cache.GetByBody(sha256.Sum256(body)); !ok {
		t.Fatal("body hash not linked after cold request")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := srv.cache.GetByBody(sha256.Sum256(body)); !ok {
			panic("lost cache entry mid-run")
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f objects per lookup, want 0", allocs)
	}
}

// TestBodyHashFastPathServesVerbatimRepeat pins the end-to-end fast path:
// the second posting of identical bytes is a hit whose body matches the
// cold one, and the dedicated counter moves.
func TestBodyHashFastPathServesVerbatimRepeat(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := scheduleBody(t, nil)
	_, cold := postSchedule(t, ts, body)
	resp, hot := postSchedule(t, ts, body)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(cold, hot) {
		t.Fatalf("verbatim repeat not a byte-identical hit")
	}
	if n := srv.metrics.bodyHits.Load(); n != 1 {
		t.Fatalf("body-hash hits = %d, want 1", n)
	}
}

// TestBatchAmortization pins what /v1/schedule/batch is for: with every
// loop already cached, serving the 81 SPECfp95 loops in 32-loop envelopes
// must deliver at least 5× the loops per second of serving them as
// singletons. After one cold fill, a trial times both sides the same way:
// one sequential client, one priming pass, then three timed passes over the
// whole working set. Both sides run on the same host in the same process,
// so the ratio holds on any machine. A batch pass takes well under a
// millisecond, so one trial that loses a time slice to another process can
// read far low; the gate is on the median of five trials.
func TestBatchAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the 81 SPECfp95 loops cold; skipped with -short")
	}
	const perBatch, passes, trials, minSpeedup = 32, 3, 5, 5.0
	m := machine.MustClustered(4, 64, 1, 1)
	var singles, batches [][]byte
	var loops []BatchLoop
	for _, bm := range workload.SPECfp95() {
		for _, l := range bm.Loops {
			var text bytes.Buffer
			if err := ddgio.Write(&text, l.G); err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(&ScheduleRequest{LoopText: text.String(), Machine: m, Scheme: "GP"})
			if err != nil {
				t.Fatal(err)
			}
			singles = append(singles, body)
			loops = append(loops, BatchLoop{LoopText: text.String()})
		}
	}
	for i := 0; i < len(loops); i += perBatch {
		body, err := json.Marshal(&BatchRequest{Machine: m, Scheme: "GP", Loops: loops[i:min(i+perBatch, len(loops))]})
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, body)
	}

	_, ts := newTestServer(t, Config{})
	post := func(url string, body []byte) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
	}
	for _, body := range singles {
		post(ts.URL+"/v1/schedule", body)
	}
	// loopsPerSec posts every body once untimed, so the endpoint's verbatim
	// fast path is hot, then times passes more rounds.
	loopsPerSec := func(url string, bodies [][]byte) float64 {
		var start time.Time
		for p := -1; p < passes; p++ {
			if p == 0 {
				start = time.Now()
			}
			for _, body := range bodies {
				post(url, body)
			}
		}
		return float64(passes*len(loops)) / time.Since(start).Seconds()
	}
	ratios := make([]float64, trials)
	for k := range ratios {
		single := loopsPerSec(ts.URL+"/v1/schedule", singles)
		batch := loopsPerSec(ts.URL+"/v1/schedule/batch", batches)
		ratios[k] = batch / single
		t.Logf("trial %d: warm singleton %.0f loops/s, warm batch %.0f loops/s: %.2f×", k, single, batch, ratios[k])
	}
	slices.Sort(ratios)
	if med := ratios[trials/2]; med < minSpeedup {
		t.Errorf("warm batch serves a median %.2f× the singleton loops/s over %d trials, want at least %.0f×", med, trials, minSpeedup)
	}
}
