package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// BenchmarkEscalationApplu3 measures the costliest loop of the paper's
// evaluation: applu/loop3 under GP on the paper's 4-cluster machine fails
// every II from its MII of 9 through 27, the length of its list schedule
// (19 attempts, one repartition), and falls back to list scheduling. With
// the scheduler's pooled attempt scratch, allocs/op is the escalation's
// fixed per-attempt cost (the result and the recurrence analysis) plus the
// partitioner's and the two list schedules'.
func BenchmarkEscalationApplu3(b *testing.B) {
	loop := specLoop("applu", 3)
	m := machine.MustClustered(4, 64, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ScheduleLoop(loop.G, m, &Options{Algorithm: GP})
		if err != nil {
			b.Fatal(err)
		}
		if res.Attempts != 19 || !res.ListFallback {
			b.Fatalf("%d attempts, list fallback %v; want 19 attempts and the list fallback", res.Attempts, res.ListFallback)
		}
	}
}

// BenchmarkEscalationFpppp0 measures the paper-machine escalation that
// repartitions most: fpppp/loop0 under GP modulo-schedules at its 15th II
// and uses 9 partitions, the first at the MII and one for each raised II
// its bus bound still exceeds. 4 of the 8 repartitions return the
// previous refinement's result (partition.Result.Reused).
func BenchmarkEscalationFpppp0(b *testing.B) {
	loop := specLoop("fpppp", 0)
	m := machine.MustClustered(4, 64, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ScheduleLoop(loop.G, m, &Options{Algorithm: GP})
		if err != nil {
			b.Fatal(err)
		}
		if res.Attempts != 15 || res.Partitions != 9 {
			b.Fatalf("%d attempts, %d partitions; want 15 and 9", res.Attempts, res.Partitions)
		}
	}
}

// specLoop returns loop i of the named SPECfp95 benchmark.
func specLoop(name string, i int) *workload.Loop {
	for _, bm := range workload.SPECfp95() {
		if bm.Name == name {
			return bm.Loops[i]
		}
	}
	panic("no SPECfp95 benchmark " + name)
}

// BenchmarkDSPSweepPass measures one pass of the perfledger dsp-sweep
// compile set: the 52 DSP loops on the four machine.SweepSet machines
// under GP and URACAM (416 compilations). Each compilation schedules a
// fresh clone of its loop, as the ledger decodes a fresh graph per
// compilation, so nothing a graph caches carries over between them.
func BenchmarkDSPSweepPass(b *testing.B) {
	machines := machine.SweepSet()
	algs := []Algorithm{GP, URACAM}
	corpus := workload.DSP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range machines {
			for _, alg := range algs {
				for _, bm := range corpus {
					for _, l := range bm.Loops {
						if _, err := ScheduleLoop(l.G.Clone(), m, &Options{Algorithm: alg}); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSPECfpPass measures one pass of the perfledger specfp-paper
// compile set: the 81 SPECfp95 loops under GP on the paper's
// 4-cluster/64reg/1bus/lat1 machine. Each compilation schedules a fresh
// clone of its loop, as BenchmarkDSPSweepPass does.
func BenchmarkSPECfpPass(b *testing.B) {
	m := machine.MustClustered(4, 64, 1, 1)
	corpus := workload.SPECfp95()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range corpus {
			for _, l := range bm.Loops {
				if _, err := ScheduleLoop(l.G.Clone(), m, &Options{Algorithm: GP}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
