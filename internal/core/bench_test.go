package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// BenchmarkEscalationApplu3 measures the costliest loop of the paper's
// evaluation: applu/loop3 under GP on the paper's 4-cluster machine fails
// every II from its MII of 9 through MII+64 (65 attempts, one
// repartition) and falls back to list scheduling. With the scheduler's
// pooled attempt scratch, allocs/op is the escalation's fixed
// per-attempt cost (the result and the recurrence analysis) plus the
// partitioner's.
func BenchmarkEscalationApplu3(b *testing.B) {
	var loop *workload.Loop
	for _, bm := range workload.SPECfp95() {
		if bm.Name == "applu" {
			loop = bm.Loops[3]
		}
	}
	m := machine.MustClustered(4, 64, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ScheduleLoop(loop.G, m, &Options{Algorithm: GP})
		if err != nil {
			b.Fatal(err)
		}
		if res.Attempts != 65 || !res.ListFallback {
			b.Fatalf("%d attempts, list fallback %v; want the full 65-attempt escalation", res.Attempts, res.ListFallback)
		}
	}
}
