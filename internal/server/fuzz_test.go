package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/ddgio"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// fuzzScheduleLimit is the largest loop FuzzScheduleRequest schedules; the
// bound keeps each execution cheap enough for the fuzzing engine.
const fuzzScheduleLimit = 32

// FuzzScheduleRequest fuzzes the /v1/schedule JSON decoder: arbitrary bytes
// must never panic, and any body it accepts must yield a validated graph
// and machine with a deterministic cache key (the content address the whole
// caching story hangs on). An accepted loop of at most fuzzScheduleLimit
// nodes that passes admission is also scheduled, as the server would: the
// schedule must pass Verify and the escalation must stay inside its work
// bound (see checkWorkBound).
func FuzzScheduleRequest(f *testing.F) {
	f.Add([]byte(`{"loop_text":"loop t 10\nnode 0 IntALU\n","clusters":2}`))
	f.Add([]byte(`{"loop":{"name":"x","niter":5,"nodes":[{"op":"Load"},{"op":"IntALU"}],"edges":[{"from":0,"to":1,"lat":2}]},"clusters":4,"regs":64}`))
	f.Add([]byte(`{"loop":{"name":"h","niter":1,"nodes":[{"op":"FPMul"}]},"machine":"machine m\ncluster 1 1 1 8\n","scheme":"URACAM"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{{{`))
	f.Add([]byte(`{"loop_text":"loop t 10\nnode 0 Store\nedge 0 0 1 1 data\n","clusters":2}`))
	// viterbi/loop5 under GP on the paper's machine fails every II up to its
	// list schedule's length and falls back, so the work bound is reached.
	for _, bm := range workload.DSP() {
		if bm.Name != "viterbi" {
			continue
		}
		var text bytes.Buffer
		if err := ddgio.Write(&text, bm.Loops[5].G); err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(&ScheduleRequest{LoopText: text.String(), Clusters: 4, Regs: 64, NBus: 1, LatBus: 1, Scheme: "GP"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := parseScheduleRequest(data)
		if err != nil {
			return
		}
		// Accepted requests are fully validated and deterministically keyed.
		if err := job.g.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		if err := job.m.Validate(); err != nil {
			t.Fatalf("accepted an invalid machine: %v", err)
		}
		salt := keySalt(schedule.AlgoVersion, 0)
		k1 := job.cacheKey(salt)
		job2, err := parseScheduleRequest(data)
		if err != nil {
			t.Fatalf("second parse of accepted body failed: %v", err)
		}
		if k2 := job2.cacheKey(salt); k1 != k2 {
			t.Fatalf("cache key not deterministic: %s vs %s", k1, k2)
		}
		if bytes.ContainsAny([]byte(k1), " \n") || len(k1) != 64 {
			t.Fatalf("malformed cache key %q", k1)
		}
		// The salt is load-bearing: a different algorithm version or a
		// different epoch must move the key, and deterministically so.
		for _, other := range []string{
			keySalt(schedule.AlgoVersion+"-canary", 0),
			keySalt(schedule.AlgoVersion, 1),
		} {
			ko := job.cacheKey(other)
			if ko == k1 {
				t.Fatalf("salt %q did not change the cache key", other)
			}
			if ko2 := job2.cacheKey(other); ko2 != ko {
				t.Fatalf("salted key not deterministic: %s vs %s", ko, ko2)
			}
		}
		if job.g.N() <= fuzzScheduleLimit && job.admissionCheck() == nil {
			checkWorkBound(t, job)
		}
	})
}

// checkWorkBound schedules job with its algorithm and checks the
// escalation's work bound against SL0, the length of the list schedule of
// the partition at the MII (no partition for URACAM): at most
// max(1, min(MII+64, SL0) − MII + 1) attempts, and a modulo result never at
// an II above SL0. TestScheduleDigests checks the same bound on the corpus.
func checkWorkBound(t *testing.T, job *scheduleJob) {
	res, err := core.ScheduleLoop(job.g, job.m, &core.Options{Algorithm: job.alg})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := schedule.Verify(job.g, job.m, res.Schedule); err != nil {
		t.Fatalf("schedule failed verification: %v", err)
	}
	var assign []int
	if job.alg != core.URACAM {
		assign = partition.New(job.g, job.m, nil).Partition(res.MII).Assign
	}
	sl0 := schedule.ListSchedule(job.g, job.m, assign).SL
	if bound := max(1, min(res.MII+64, sl0)-res.MII+1); res.Attempts > bound {
		t.Fatalf("%d attempts above the bound %d (MII %d, SL0 %d)", res.Attempts, bound, res.MII, sl0)
	}
	if !res.ListFallback && res.Schedule.II > sl0 {
		t.Fatalf("modulo II %d above SL0 %d", res.Schedule.II, sl0)
	}
}

// FuzzBatchRequest fuzzes the /v1/schedule/batch envelope decoder: arbitrary
// bytes must never panic, and any envelope it accepts must synthesize
// per-loop singleton bodies that reparse to the same verdicts and keys at
// the worker (which parses with a machine cache) and at the coordinator
// (which parses without one) — the equivalence the distributed batch's
// byte-identity rests on.
func FuzzBatchRequest(f *testing.F) {
	f.Add([]byte(`{"clusters":2,"loops":[{"loop_text":"loop t 10\nnode 0 IntALU\n"}]}`))
	f.Add([]byte(`{"machine":"machine m\ncluster 1 1 1 8\n","scheme":"Fixed","loops":[{"loop":{"name":"x","niter":5,"nodes":[{"op":"Load"}]}},{"loop_text":"loop broken"}]}`))
	f.Add([]byte(`{"clusters":2,"loops":[]}`))
	f.Add([]byte(`{"loops":1}`))
	f.Add([]byte(`{{{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		mc := newMachineCache()
		items, err := parseBatch(data, mc)
		if err != nil {
			return
		}
		pub, err := BatchItems(data)
		if err != nil {
			t.Fatalf("worker accepted an envelope BatchItems rejects: %v", err)
		}
		if len(pub) != len(items) {
			t.Fatalf("item counts diverge: %d vs %d", len(items), len(pub))
		}
		salt := keySalt(schedule.AlgoVersion, 0)
		for i := range items {
			if !bytes.Equal(items[i].body, pub[i].Body) {
				t.Fatalf("item %d synthesized bodies diverge", i)
			}
			if (items[i].err == nil) != (pub[i].Err == nil) {
				t.Fatalf("item %d verdicts diverge: %v vs %v", i, items[i].err, pub[i].Err)
			}
			if items[i].err != nil {
				if items[i].err.Error() != pub[i].Err.Error() {
					t.Fatalf("item %d error strings diverge (batch elements would too): %q vs %q",
						i, items[i].err, pub[i].Err)
				}
				continue
			}
			if k := items[i].job.cacheKey(salt); k != pub[i].Key {
				t.Fatalf("item %d keys diverge: %s vs %s", i, k, pub[i].Key)
			}
			// Round-trip: the synthesized singleton body must itself be
			// admitted, with the same content address.
			job2, err := parseScheduleRequest(items[i].body)
			if err != nil {
				t.Fatalf("item %d synthesized body rejected on reparse: %v", i, err)
			}
			if k2 := job2.cacheKey(salt); k2 != pub[i].Key {
				t.Fatalf("item %d reparse key diverges: %s vs %s", i, k2, pub[i].Key)
			}
		}
	})
}
