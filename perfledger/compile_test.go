package main

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// trim keeps the first n loops of every benchmark, so a check can run the
// full harness over every benchmark in seconds.
func trim(bms []*workload.Benchmark, n int) []*workload.Benchmark {
	out := make([]*workload.Benchmark, len(bms))
	for i, bm := range bms {
		out[i] = &workload.Benchmark{Name: bm.Name, Loops: bm.Loops[:min(n, len(bm.Loops))]}
	}
	return out
}

func onePass(t *testing.T, cs *compileSet) passResult {
	t.Helper()
	p := cs.pass(nil, nil)
	if p.failed.n != 0 {
		t.Fatalf("%d compilations failed: %v", p.failed.n, p.failed.errs)
	}
	return p
}

// The benchmark's ipc on specfp-paper is the paper's own number: the GP
// MeanIPC bench.Run reports for the same machine and corpus, bit for bit.
func TestIPCMatchesBenchRunSPECfp(t *testing.T) {
	bms := trim(workload.SPECfp95(), 2)
	cs, err := newCompileSet(bms, []*machine.Config{paperMachine()}, []core.Algorithm{core.GP}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.ipc(onePass(t, cs).out)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench.Run(bms, bench.Config{Clusters: 4, TotalRegs: 64, NBus: 1, LatBus: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.MeanIPC[bench.SchemeGP]; got != want {
		t.Errorf("ipc = %v, bench.Run GP MeanIPC = %v", got, want)
	}
}

// On dsp-sweep every machine × scheme cell's mean equals bench.Run's, so
// the sweep's ipc is their average.
func TestIPCMatchesBenchRunDSPSweep(t *testing.T) {
	bms := trim(workload.DSP(), 1)
	machines := machine.SweepSet()
	algs := []core.Algorithm{core.GP, core.URACAM}
	cs, err := newCompileSet(bms, machines, algs, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.ipc(onePass(t, cs).out)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, m := range machines {
		rep, err := bench.Run(bms, bench.Config{Machine: m, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		want += rep.MeanIPC[bench.SchemeGP]
		want += rep.MeanIPC[bench.SchemeURACAM]
	}
	want /= float64(len(machines) * len(algs))
	if d := got - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("ipc = %v, mean of bench.Run cells = %v", got, want)
	}
}

func TestCompileSetSeedOrder(t *testing.T) {
	bms := trim(workload.DSP(), 2)
	canon, err := newCompileSet(bms, machine.SweepSet(), []core.Algorithm{core.GP, core.URACAM}, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(canon.jobs) != 8*2*4*2 {
		t.Fatalf("%d jobs, want 128", len(canon.jobs))
	}
	for i, j := range canon.order {
		if i != j {
			t.Fatalf("default seed visits job %d at position %d", j, i)
		}
	}
	a, _ := newCompileSet(bms, machine.SweepSet(), []core.Algorithm{core.GP, core.URACAM}, 9)
	b, _ := newCompileSet(bms, machine.SweepSet(), []core.Algorithm{core.GP, core.URACAM}, 9)
	seen := make([]bool, len(a.order))
	moved := false
	for i, j := range a.order {
		if b.order[i] != j {
			t.Fatalf("seed 9 gave two orders")
		}
		seen[j] = true
		moved = moved || i != j
	}
	for j, ok := range seen {
		if !ok {
			t.Fatalf("seeded order skips job %d", j)
		}
	}
	if !moved {
		t.Error("seed 9 kept the canonical order")
	}
}

// The byte-identity check passes identical passes and counts a schedule
// that changed between passes.
func TestCheckerCountsChangedSchedules(t *testing.T) {
	cs, err := newCompileSet(trim(workload.DSP(), 1), []*machine.Config{paperMachine()}, []core.Algorithm{core.GP}, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var ck checker
	first := onePass(t, cs)
	ck.check(cs, &first)
	second := onePass(t, cs)
	ck.check(cs, &second)
	if ck.failed.n != 0 {
		t.Fatalf("identical passes failed the check: %v", ck.failed.errs)
	}
	third := onePass(t, cs)
	third.out[0].res.Schedule.Time[0]++
	ck.check(cs, &third)
	if ck.failed.n != 1 {
		t.Errorf("changed schedule counted %d times, want 1", ck.failed.n)
	}
}
