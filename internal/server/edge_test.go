package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/workload"
)

// edgeBodies returns the request bodies the coordinator's edge parses in
// fleet-zipf's shape: the /v1/schedule body of tomcatv/loop0 as ddgio text
// on the paper's 4-cluster/64reg/1bus/lat1 machine under GP, and a
// /v1/schedule/batch envelope of the first 8 SPECfp95 loops on that machine.
func edgeBodies(tb testing.TB) (single, batch []byte) {
	tb.Helper()
	m := machine.MustClustered(4, 64, 1, 1)
	env := BatchRequest{Machine: m, Scheme: "GP"}
	for _, bm := range workload.SPECfp95() {
		for _, l := range bm.Loops {
			if len(env.Loops) == 8 {
				break
			}
			var text bytes.Buffer
			if err := ddgio.Write(&text, l.G); err != nil {
				tb.Fatal(err)
			}
			if single == nil {
				if l.G.Name != "tomcatv/loop0" {
					tb.Fatalf("first SPECfp95 loop is %s, want tomcatv/loop0", l.G.Name)
				}
				body, err := json.Marshal(&ScheduleRequest{LoopText: text.String(), Machine: m, Scheme: "GP"})
				if err != nil {
					tb.Fatal(err)
				}
				single = body
			}
			env.Loops = append(env.Loops, BatchLoop{LoopText: text.String()})
		}
	}
	batch, err := json.Marshal(&env)
	if err != nil {
		tb.Fatal(err)
	}
	return single, batch
}

// BenchmarkScheduleCacheKey times the coordinator's admission of one
// singleton: decode, loop and machine parse, validation and the content key.
func BenchmarkScheduleCacheKey(b *testing.B) {
	body, _ := edgeBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleCacheKey(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchItems times the coordinator's admission of an 8-loop batch
// envelope: one decode, one machine parse, and per loop the loop parse and
// the content key.
func BenchmarkBatchItems(b *testing.B) {
	_, body := edgeBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := BatchItems(body)
		if err != nil {
			b.Fatal(err)
		}
		if items[0].Err != nil {
			b.Fatal(items[0].Err)
		}
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestScheduleCacheKeyAllocs pins the allocations of one singleton's
// admission at the coordinator (BenchmarkScheduleCacheKey's body): the JSON
// decode, the loop and machine parses, validation and the key, 27 in all.
// Before the in-memory codecs and the pooled key buffer it was 210.
func TestScheduleCacheKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	body, _ := edgeBodies(t)
	const limit = 27
	got := testing.AllocsPerRun(100, func() {
		if _, err := ScheduleCacheKey(body); err != nil {
			panic(err)
		}
	})
	if got > limit {
		t.Fatalf("ScheduleCacheKey allocates %.0f objects per call, want at most %d", got, limit)
	}
}

// TestBatchItemsAllocs pins the allocations of one 8-loop batch envelope's
// admission at the coordinator (BenchmarkBatchItems' envelope): one decode,
// one machine parse, and per loop the loop parse and the key, 104 in all.
// Synthesizing each loop's singleton body as well made 120; re-decoding
// every synthesized body with its own machine parse, as the reference edge
// does, made 2,466.
func TestBatchItemsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, body := edgeBodies(t)
	const limit = 104
	got := testing.AllocsPerRun(20, func() {
		if _, err := BatchItems(body); err != nil {
			panic(err)
		}
	})
	if got > limit {
		t.Fatalf("BatchItems allocates %.0f objects per call, want at most %d", got, limit)
	}
}
