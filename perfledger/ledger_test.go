package main

import "testing"

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1},
		{Name: "a.call", Start: 10, End: 40, Parent: 0},
		{Name: "b.inner", Start: 15, End: 25, Parent: 1},
		{Name: "c.call", Start: 50, End: 90, Parent: 0},
	}
	want := []int64{30, 20, 10, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	l := buildLedger(spans, "bench.op")
	if l.rootTotal != 100 || l.escaped != 0 || l.unattributedPct() != 30 {
		t.Errorf("ledger total %d escaped %d unattributed %v", l.rootTotal, l.escaped, l.unattributedPct())
	}
}

// A batch fans out into sequential worker hops under one coordinator span;
// the coordinator keeps what the hops leave of its interval.
func TestSelfTimeBatchFanOut(t *testing.T) {
	spans := []span{
		{Name: rootRequest, ID: "r", Start: 0, End: 120, Parent: -1},
		{Name: spanHTTP, ID: "r", Start: 5, End: 115, Parent: -1},
		{Name: spanWorker + "hit", ID: "r#0", Start: 20, End: 30, Parent: -1},
		{Name: spanWorker + "hit", ID: "r#1", Start: 40, End: 55, Parent: -1},
		{Name: spanBatch, ID: "r", Start: 10, End: 100, Parent: -1},
		{Name: spanWorker + "hit", ID: "r#2", Start: 70, End: 80, Parent: -1},
		{Name: spanWorker + "hit", ID: "orphan#0", Start: 81, End: 82, Parent: -1},
	}
	stitch(spans)
	for i, want := range []int{-1, 0, 4, 4, 1, 4, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s %s) parent = %d, want %d", i, spans[i].Name, spans[i].ID, spans[i].Parent, want)
		}
	}
	l := buildLedger(spans, rootRequest)
	checks := map[string]int64{rootRequest: 10, spanHTTP: 20, spanBatch: 55, spanWorker + "hit": 35}
	for name, want := range checks {
		if l.self[name] != want {
			t.Errorf("self[%s] = %d, want %d", name, l.self[name], want)
		}
	}
	// 10 of 120 ns sit in the client between layer calls: too much to
	// reconcile within the tolerance.
	if l.unstitched != 1 || l.escaped != 0 || l.reconciles() {
		t.Errorf("unstitched %d escaped %d reconciles %v; want 1, 0, false", l.unstitched, l.escaped, l.reconciles())
	}
}

func TestSelfTimeOverlapAndEscape(t *testing.T) {
	// Overlapping siblings cover their union once; the double-covered part
	// shows as escaped time.
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1},
		{Name: "a.x", Start: 10, End: 50, Parent: 0},
		{Name: "a.y", Start: 30, End: 60, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 50 {
		t.Errorf("self with overlapping children = %d, want 50", got)
	}
	if l := buildLedger(spans, "bench.op"); l.escaped != 20 || l.reconciles() {
		t.Errorf("escaped = %d, reconciles = %v; want 20, false", l.escaped, l.reconciles())
	}
	// A child running past its parent's end is clipped to the parent; the
	// part outside escapes.
	spans = []span{
		{Name: "bench.op", Start: 0, End: 10, Parent: -1},
		{Name: "a.x", Start: 5, End: 20, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 5 {
		t.Errorf("self with escaping child = %d, want 5", got)
	}
	if l := buildLedger(spans, "bench.op"); l.escaped != 10 {
		t.Errorf("escaped = %d, want 10", l.escaped)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var nilRec *recorder
	if nilRec.add(span{}) != -1 || nilRec.now() != 0 {
		t.Error("nil recorder recorded")
	}
	rec := newRecorder()
	if rec.add(span{}) != -1 {
		t.Error("recorder recorded while off")
	}
	rec.on.Store(true)
	if rec.add(span{}) != 0 || len(rec.take()) != 1 || len(rec.take()) != 0 {
		t.Error("take did not return and reset the recorded spans")
	}
}
