// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each benchmark runs one experiment panel over the synthetic
// SPECfp95 corpus and reports the key aggregates as custom metrics; the
// full per-benchmark rows (the paper's bar charts) are logged with -v and
// printed by cmd/gpbench.
//
//	BenchmarkTable1Configs        — Table 1 (machine configurations)
//	BenchmarkFigure2TwoCluster    — Figure 2 top (2-cluster, 1-cycle bus)
//	BenchmarkFigure2FourCluster   — Figure 2 bottom (4-cluster, 1-cycle bus)
//	BenchmarkFigure3              — Figure 3 (4-cluster, 2-cycle bus)
//	BenchmarkTable2SchedulerTime  — Table 2 (URACAM vs GP scheduling time)
//	BenchmarkAblation*            — partitioner ablations (A1/A2/A4 of
//	                                cmd/gpbench -ablations) and a second bus
package gpsched

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/partition"
	"repro/internal/workload"
)

var corpus = workload.SPECfp95()

func runPanel(b *testing.B, cfg bench.Config) *bench.Report {
	b.Helper()
	if testing.Short() {
		b.Skip("multi-second paper-figure panel; skipped in -short mode")
	}
	var rep *bench.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = bench.Run(corpus, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", rep.Render())
	rep.ReportTo(b)
	return rep
}

// BenchmarkTable1Configs regenerates Table 1: it validates the three
// configurations and reports their issue widths.
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.RenderTable1(64, 1, 1)
	}
	b.Logf("\n%s", bench.RenderTable1(64, 1, 1))
}

func BenchmarkFigure2TwoCluster32(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1})
}

func BenchmarkFigure2TwoCluster64(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 2, TotalRegs: 64, NBus: 1, LatBus: 1})
}

func BenchmarkFigure2FourCluster32(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 4, TotalRegs: 32, NBus: 1, LatBus: 1})
}

func BenchmarkFigure2FourCluster64(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 4, TotalRegs: 64, NBus: 1, LatBus: 1})
}

func BenchmarkFigure3FourCluster32Lat2(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 4, TotalRegs: 32, NBus: 1, LatBus: 2})
}

func BenchmarkFigure3FourCluster64Lat2(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 4, TotalRegs: 64, NBus: 1, LatBus: 2})
}

// BenchmarkTable2SchedulerTime reproduces Table 2's metric directly: the
// per-loop scheduling time of each scheme on the headline configuration.
// The paper's claim is that URACAM is 2–7× slower than GP and Fixed.
func BenchmarkTable2SchedulerTime(b *testing.B) {
	rep := runPanel(b, bench.Config{Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1})
	b.ReportMetric(rep.TimeRatio(), "URACAM/GP-time")
}

// Ablations on the headline configuration: A1, A2 and A4 of cmd/gpbench's
// -ablations table, and a two-bus machine.

func BenchmarkAblationUniformWeights(b *testing.B) {
	runPanel(b, bench.Config{
		Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1,
		PartitionOpts: &Options{Partition: &partition.Options{Weights: partition.UniformWeights}},
	})
}

func BenchmarkAblationNoRefinement(b *testing.B) {
	runPanel(b, bench.Config{
		Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1,
		PartitionOpts: &Options{Partition: &partition.Options{SkipRefinement: true}},
	})
}

func BenchmarkAblationGreedyMatching(b *testing.B) {
	runPanel(b, bench.Config{
		Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1,
		PartitionOpts: &Options{Partition: &partition.Options{GreedyMatchingOnly: true}},
	})
}

// BenchmarkAblationTwoBuses checks the paper's remark that two-bus results
// follow the same trend (§4.1).
func BenchmarkAblationTwoBuses(b *testing.B) {
	runPanel(b, bench.Config{Clusters: 4, TotalRegs: 64, NBus: 2, LatBus: 1})
}
