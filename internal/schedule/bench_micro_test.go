package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/workload"
)

// Micro-benchmarks for the scheduler's hot paths.

func BenchmarkTryScheduleMedium(b *testing.B) {
	r := rand.New(rand.NewSource(51))
	g := randomLoop(r, 40)
	m := machine.MustClustered(2, 32, 1, 1)
	ii := g.MII(m)
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v % 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for try := ii; ; try++ {
			if _, fail := TrySchedule(g, m, try, &Options{Mode: ModeGP, Assign: assign}); fail == nil {
				break
			}
		}
	}
}

func BenchmarkTryScheduleURACAM(b *testing.B) {
	r := rand.New(rand.NewSource(51))
	g := randomLoop(r, 40)
	m := machine.MustClustered(4, 64, 1, 1)
	ii := g.MII(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for try := ii; ; try++ {
			if _, fail := TrySchedule(g, m, try, &Options{Mode: ModeURACAM}); fail == nil {
				break
			}
		}
	}
}

func BenchmarkSMSOrder(b *testing.B) {
	r := rand.New(rand.NewSource(53))
	g := randomLoop(r, 80)
	m := machine.NewUnified(64)
	mii := g.MII(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Order(g, m, mii)
	}
}

// BenchmarkListSchedule list-schedules the 81 SPECfp95 loops on the
// paper's 4-cluster/64reg/1bus/lat1 machine, each on its initial partition
// at the MII: the schedule the escalation cap computes when a loop's first
// attempt fails. One op is the whole corpus.
func BenchmarkListSchedule(b *testing.B) {
	m := machine.MustClustered(4, 64, 1, 1)
	type job struct {
		g      *ddg.Graph
		assign []int
	}
	var jobs []job
	for _, bm := range workload.SPECfp95() {
		for _, l := range bm.Loops {
			assign := partition.New(l.G, m, nil).Partition(l.G.MII(m)).Assign
			jobs = append(jobs, job{l.G, assign})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			listSink = ListSchedule(j.g, m, j.assign)
		}
	}
}

// listSink keeps BenchmarkListSchedule's calls from being optimized away.
var listSink *Schedule
