package main

import (
	"runtime"
	"testing"
	"time"
)

// Busy work on a locked thread advances that thread's CPU clock by about
// the wall time it took, and the process clock by at least as much.
func TestCPUClocksCountBusyWork(t *testing.T) {
	if err := checkCPUClocks(); err != nil {
		t.Fatal(err)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0, p0 := time.Now(), threadCPU(), processCPU()
	k := newKernel()
	for time.Since(t0) < 50*time.Millisecond {
		k.call()
	}
	wall, thread, process := time.Since(t0), threadCPU()-c0, processCPU()-p0
	if thread <= 0 || thread > wall+time.Millisecond || process < thread {
		t.Errorf("50 ms of busy work: wall %v, thread CPU %v, process CPU %v", wall, thread, process)
	}
}

// The kernel does the same work on every machine and never allocates, so
// the garbage collector's pacing cannot reach its timing.
func TestKernelIsFixedWork(t *testing.T) {
	a, b := newKernel(), newKernel()
	for i := 0; i < 5; i++ {
		a.call()
		b.call()
	}
	if a.sink != b.sink || a.sink == 0 {
		t.Errorf("two kernels disagree after 5 calls: %d vs %d", a.sink, b.sink)
	}
	if allocs := testing.AllocsPerRun(10, a.call); allocs != 0 {
		t.Errorf("kernel call allocates %v times", allocs)
	}
}

func TestCalibratorBursts(t *testing.T) {
	var none *calibrator
	none.burst()
	if d := none.due(); d != 0 {
		t.Errorf("nil calibrator took %v", d)
	}
	ref := kernelReference()
	c := newCalibrator(ref)
	if d := c.due(); d != 0 {
		t.Errorf("burst ran %v before it was due", d)
	}
	c.burst()
	c.burst()
	if c.err != nil || c.bursts != 2 || len(c.perCall) != 2*ref.calls {
		t.Fatalf("2 bursts recorded %d bursts and %d calls (error %v), want %d calls", c.bursts, len(c.perCall), c.err, 2*ref.calls)
	}
	if s := c.scale(); s <= 0 || s != ref.nominal.Seconds()/median(c.perCall) {
		t.Errorf("scale = %v for median %v", s, median(c.perCall))
	}
}

// The echo reference answers over loopback, each call costs CPU time, and
// close waits for its server to stop.
func TestEchoReference(t *testing.T) {
	ref, err := echoReference()
	if err != nil {
		t.Fatal(err)
	}
	c := newCalibrator(ref)
	c.burst()
	ref.close()
	if c.err != nil || len(c.perCall) != ref.calls || median(c.perCall) <= 0 {
		t.Errorf("echo burst: %d calls, median %v s, error %v", len(c.perCall), median(c.perCall), c.err)
	}
	c.burst()
	if c.err == nil {
		t.Error("a burst against the closed echo server did not fail")
	}
}

// p50_ms and p95_ms are medians over the groups of each group's
// percentile, scaled: one group's outlying tail does not become the
// figure, as it would in the percentile over all samples.
func TestReportTimingsMediansOverGroups(t *testing.T) {
	cal := &calibrator{ref: reference{nominal: time.Millisecond}, perCall: []float64{0.002, 0.002, 0.002}} // scale 0.5
	groups := [][]float64{seq(20), seq(20), seq(20)}
	groups[2] = append([]float64(nil), groups[2]...)
	groups[2][18], groups[2][19] = 1000, 1000
	res := &result{metrics: map[string]metricValue{}}
	res.reportTimings(cal, "ops", "passes", []float64{4, 2, 6}, []float64{3, 1, 2}, groups, []float64{9}, seq(60))
	for name, want := range map[string]float64{
		"setup_s":   2,       // median 4 s of CPU, halved
		"ops_per_s": 4,       // median 2 per CPU second, doubled
		"p50_ms":    10 * .5, // rank 10 of 20 in every group
		"p95_ms":    19 * .5, // rank 19: 19, 19 and 1000
	} {
		if got := res.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestClosedLoopBlocks(t *testing.T) {
	cl := closedLoop{cpuLat: seq(2*blockOps + 250)}
	b := cl.blocks()
	if len(b) != 2 || len(b[0]) != blockOps || b[1][0] != blockOps+1 {
		t.Errorf("%d requests made %d blocks", len(cl.cpuLat), len(b))
	}
}
