package main

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

func TestFrameBatch(t *testing.T) {
	got := frameBatch([][]byte{[]byte("{\"a\":1}\n"), []byte("{\"b\":2}\n"), []byte("{\"c\":3}")})
	want := server.BatchOpen + `{"a":1}` + server.BatchSep + `{"b":2}` + server.BatchSep + `{"c":3}` + server.BatchClose
	if string(got) != want {
		t.Errorf("frameBatch = %q, want %q", got, want)
	}
	if got := frameBatch([][]byte{[]byte("{}\n")}); string(got) != server.BatchOpen+"{}"+server.BatchClose {
		t.Errorf("one-element frame = %q", got)
	}
}

// The framing check must accept exactly what a real worker sends for a
// batch, and reject an envelope whose elements differ from the singleton
// replies.
func TestFrameBatchMatchesServer(t *testing.T) {
	in, err := newFleetInputs(workload.DSP())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()

	// The smallest benchmark keeps the compile time short.
	fb := in.batches[0]
	for _, b := range in.batches {
		if len(b.members) < len(fb.members) {
			fb = b
		}
	}
	var refs [][]byte
	for i, k := range fb.members {
		status, body, err := post(hc, nil, ts.URL+"/v1/schedule", "t-"+strconv.Itoa(i), in.singles[k])
		if err != nil || status != 200 {
			t.Fatalf("singleton %s: status %d, err %v", in.names[k], status, err)
		}
		refs = append(refs, body)
	}
	status, got, err := post(hc, nil, ts.URL+"/v1/schedule/batch", "t-batch", fb.body)
	if err != nil || status != 200 {
		t.Fatalf("batch %s: status %d, err %v", fb.name, status, err)
	}
	if want := frameBatch(refs); !bytes.Equal(got, want) {
		t.Fatalf("batch envelope differs from the framed singleton replies:\n got %q\nwant %q", got, want)
	}
	refs[0], refs[1] = refs[1], refs[0]
	if bytes.Equal(got, frameBatch(refs)) {
		t.Error("envelope with reordered elements passed the check")
	}
}

func TestRequestStreamSeedDeterminism(t *testing.T) {
	draw := func(seed int64) []int {
		s := newRequestStream(seed, 133, 18)
		out := make([]int, 5000)
		for i := range out {
			batch, idx := s.next()
			if batch {
				if idx < 0 || idx >= 18 {
					t.Fatalf("batch index %d out of range", idx)
				}
				idx = -1 - idx
			} else if idx < 0 || idx >= 133 {
				t.Fatalf("singleton index %d out of range", idx)
			}
			out[i] = idx
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	differs := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !differs(a, draw(8)) {
		t.Error("a different seed drew the same stream")
	}
	batches, hot := 0, 0
	for _, v := range a {
		switch {
		case v < 0:
			batches++
		case v == 0:
			hot++
		}
	}
	if batches < 400 || batches > 600 {
		t.Errorf("%d batches in 5000 requests, want about one in ten", batches)
	}
	if hot < 500 {
		t.Errorf("rank-0 singleton drawn %d times in 5000; Zipf skew missing", hot)
	}
}

// A traced closed loop against a live in-process fleet: every reply checks
// out, every span stitches, and the ledger accounts for the client time.
func TestFleetTracedRunStitches(t *testing.T) {
	in, err := newFleetInputs(trim(workload.DSP(), 2))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	rec.on.Store(true)
	f, err := startFleet(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	refs, err := f.fill(in, rec)
	if err != nil {
		t.Fatal(err)
	}
	fill := rec.take()
	stitch(fill)
	if l := buildLedger(fill, rootRequest); l.unstitched != 0 || l.calls[spanWorker+"miss"] != len(in.singles) {
		t.Errorf("fill: %d unstitched spans, %d misses for %d keys", l.unstitched, l.calls[spanWorker+"miss"], len(in.singles))
	}
	cl := f.run(in, newExpected(in, refs), 3, 300*time.Millisecond, rec, 1, nil)
	if cl.requests == 0 || cl.failed.n != 0 {
		t.Fatalf("%d requests, %d failed: %v", cl.requests, cl.failed.n, cl.failed.errs)
	}
	spans := rec.take()
	stitch(spans)
	l := buildLedger(spans, rootRequest)
	if l.roots != cl.requests || l.unstitched != 0 || l.escaped != 0 {
		t.Errorf("%d roots for %d requests, %d unstitched, %d ns escaped", l.roots, cl.requests, l.unstitched, l.escaped)
	}
	if l.calls[spanWorker+"miss"] != 0 || l.calls[spanSchedule]+l.calls[spanBatch] != cl.requests {
		t.Errorf("timed phase: %d misses, %d coordinator spans for %d requests",
			l.calls[spanWorker+"miss"], l.calls[spanSchedule]+l.calls[spanBatch], cl.requests)
	}
}
