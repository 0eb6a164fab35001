// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) over the synthetic SPECfp95 corpus.
//
// For each machine configuration it runs the four compared schemes —
// unified (upper bound), URACAM, Fixed Partition and GP — over every loop
// of every benchmark, and aggregates weighted IPC per benchmark plus
// average scheduling time per scheme (Table 2's metric).
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Scheme names the four compared bars of Figures 2 and 3.
const (
	SchemeUnified = "unified"
	SchemeURACAM  = "URACAM"
	SchemeFixed   = "Fixed"
	SchemeGP      = "GP"
)

// Schemes lists the scheme names in the paper's bar order.
var Schemes = []string{SchemeUnified, SchemeURACAM, SchemeFixed, SchemeGP}

// Row is the result of one benchmark under one machine configuration.
type Row struct {
	Benchmark string
	// IPC maps scheme name → weighted instructions per cycle.
	IPC map[string]float64
	// Fallbacks counts list-scheduling fallbacks per scheme.
	Fallbacks map[string]int
}

// Report is one full figure panel: all benchmarks on one configuration.
type Report struct {
	// Machine is the clustered configuration (the unified bar always uses a
	// single cluster with the same total resources and registers).
	Machine *machine.Config
	Rows    []Row
	// MeanIPC is the arithmetic mean across benchmarks per scheme (the
	// paper's "average" summary).
	MeanIPC map[string]float64
	// SchedTime is the total scheduling time per scheme, Table 2's
	// relative-cost metric: the sum of every loop's scheduling time on its
	// thread's CPU clock (the wall clock where that clock is missing).
	SchedTime map[string]time.Duration
	// Attempts, Partitions and PartitionsReused total the deterministic
	// work behind SchedTime per scheme: the II values tried, the partitions
	// computed and those returned without refining (core.Result).
	Attempts, Partitions, PartitionsReused map[string]int
	// Loops is the number of loops scheduled (per scheme).
	Loops int
}

// Config selects one evaluation point.
type Config struct {
	Clusters  int
	TotalRegs int
	NBus      int
	LatBus    int
	// Machine, when non-nil, overrides the four homogeneous-grid fields
	// above with an arbitrary (possibly heterogeneous) configuration. The
	// unified baseline is then derived via machine.UnifiedOf.
	Machine *machine.Config
	// PartitionOpts forwards ablation settings to GP and Fixed.
	PartitionOpts *corePartitionOpts
	// Parallel is the number of worker goroutines scheduling loops.
	// 0 means runtime.GOMAXPROCS(0); 1 reproduces the sequential harness
	// exactly. Aggregates are reduced in a fixed order either way, so the
	// report is identical for every value.
	Parallel int
	// Verify runs schedule.Verify on every produced schedule (the
	// differential oracle); a violation fails the run.
	Verify bool
}

func (c Config) workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

type corePartitionOpts = core.Options

// Run evaluates all four schemes on one configuration over the given
// corpus.
func Run(bms []*workload.Benchmark, cfg Config) (*Report, error) {
	return RunContext(context.Background(), bms, cfg)
}

// RunContext is Run with cancellation. Every (benchmark, scheme, loop)
// scheduling job is independent; cfg.Parallel of them run concurrently on a
// worker pool, and the first failure cancels the rest. The per-job results
// are collected into an index-addressed slice and reduced in the fixed
// sequential order, so IPC, fallback counts and CSV output are bit-for-bit
// identical for every worker count, and SchedTime remains the sum of
// per-job scheduling times (Table 2's metric), not pool wall time.
func RunContext(ctx context.Context, bms []*workload.Benchmark, cfg Config) (*Report, error) {
	if len(bms) == 0 {
		return nil, &EmptyCorpusError{}
	}
	for _, bm := range bms {
		if len(bm.Loops) == 0 {
			return nil, &EmptyCorpusError{Benchmark: bm.Name}
		}
	}
	clustered := cfg.Machine
	if clustered == nil {
		var err error
		clustered, err = machine.NewClustered(cfg.Clusters, cfg.TotalRegs, cfg.NBus, cfg.LatBus)
		if err != nil {
			return nil, err
		}
	} else if err := clustered.Validate(); err != nil {
		return nil, err
	}
	unified := machine.UnifiedOf(clustered)

	rep := &Report{
		Machine:          clustered,
		MeanIPC:          map[string]float64{},
		SchedTime:        map[string]time.Duration{},
		Attempts:         map[string]int{},
		Partitions:       map[string]int{},
		PartitionsReused: map[string]int{},
	}

	type scheme struct {
		name string
		m    *machine.Config
		opts *core.Options
	}
	schemes := []scheme{
		{SchemeUnified, unified, optsFor(core.GP, cfg)},
		{SchemeURACAM, clustered, optsFor(core.URACAM, cfg)},
		{SchemeFixed, clustered, optsFor(core.FixedPartition, cfg)},
		{SchemeGP, clustered, optsFor(core.GP, cfg)},
	}

	// Fan out: one job per (benchmark, scheme, loop), laid out in the
	// sequential visiting order.
	jobs := make([]job, 0, countLoops(bms)*len(schemes))
	for _, bm := range bms {
		for _, sc := range schemes {
			for _, loop := range bm.Loops {
				jobs = append(jobs, job{benchmark: bm.Name, scheme: sc.name, g: loop.G, m: sc.m, opts: sc.opts, verify: cfg.Verify})
			}
		}
	}
	results, err := runJobs(ctx, jobs, cfg.workers())
	if err != nil {
		return nil, err
	}

	// Reduce in the same nested order the jobs were laid out, so the
	// floating-point accumulation order matches the sequential harness.
	k := 0
	for _, bm := range bms {
		row := Row{Benchmark: bm.Name, IPC: map[string]float64{}, Fallbacks: map[string]int{}}
		for _, sc := range schemes {
			var ops, cycles float64
			for _, loop := range bm.Loops {
				res := results[k].res
				rep.SchedTime[sc.name] += results[k].elapsed
				k++
				ops += loop.Weight * float64(loop.G.N()) * float64(loop.G.Niter)
				cycles += loop.Weight * float64(res.Schedule.Cycles(loop.G.Niter))
				rep.Attempts[sc.name] += res.Attempts
				rep.Partitions[sc.name] += res.Partitions
				rep.PartitionsReused[sc.name] += res.PartitionsReused
				if res.ListFallback {
					row.Fallbacks[sc.name]++
				}
			}
			if cycles == 0 {
				return nil, &ZeroCycleError{Benchmark: bm.Name, Scheme: sc.name}
			}
			row.IPC[sc.name] = ops / cycles
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Loops = countLoops(bms)
	for _, sc := range schemes {
		var sum float64
		for _, row := range rep.Rows {
			sum += row.IPC[sc.name]
		}
		rep.MeanIPC[sc.name] = sum / float64(len(rep.Rows))
	}
	return rep, nil
}

func optsFor(alg core.Algorithm, cfg Config) *core.Options {
	o := &core.Options{Algorithm: alg}
	if cfg.PartitionOpts != nil {
		o.Partition = cfg.PartitionOpts.Partition
	}
	return o
}

func countLoops(bms []*workload.Benchmark) int {
	n := 0
	for _, bm := range bms {
		n += len(bm.Loops)
	}
	return n
}

// ReportTo publishes the panel's aggregates as custom benchmark metrics.
func (r *Report) ReportTo(b interface{ ReportMetric(float64, string) }) {
	for _, s := range Schemes {
		b.ReportMetric(r.MeanIPC[s], "IPC-"+s)
	}
	b.ReportMetric(r.Speedup(SchemeURACAM), "%GP-vs-URACAM")
}

// Speedup returns mean(GP)/mean(other) − 1 as a percentage: the paper's
// headline "+23% over URACAM" metric.
func (r *Report) Speedup(over string) float64 {
	base := r.MeanIPC[over]
	if base == 0 {
		return 0
	}
	return (r.MeanIPC[SchemeGP]/base - 1) * 100
}

// TimeRatio returns SchedTime[URACAM] / SchedTime[GP]: Table 2's claim is
// that URACAM is 2–7× slower.
func (r *Report) TimeRatio() float64 {
	gp := r.SchedTime[SchemeGP].Seconds()
	if gp == 0 {
		return 0
	}
	return r.SchedTime[SchemeURACAM].Seconds() / gp
}

// Render prints the report as a fixed-width table in the style of the
// paper's figures (one row per benchmark, one column per scheme).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Machine.Name)
	fmt.Fprintf(&b, "%-10s", "program")
	for _, s := range Schemes {
		fmt.Fprintf(&b, "%10s", s)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s", row.Benchmark)
		for _, s := range Schemes {
			fmt.Fprintf(&b, "%10.3f", row.IPC[s])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "MEAN")
	for _, s := range Schemes {
		fmt.Fprintf(&b, "%10.3f", r.MeanIPC[s])
	}
	b.WriteString("\n")
	return b.String()
}

// RenderTable2 prints the scheduling-time comparison of several reports in
// the shape of the paper's Table 2, with the deterministic work beside the
// times: each scheme's scheduling attempts, and the partitions Fixed and
// GP computed and reused.
func RenderTable2(reports []*Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s%12s%12s%12s%10s%20s%18s%14s\n", "configuration", "URACAM", "Fixed", "GP", "ratio",
		"attempts U/F/GP", "partitions F/GP", "reused F/GP")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-28s%12s%12s%12s%9.1fx%20s%18s%14s\n",
			r.Machine.Name,
			r.SchedTime[SchemeURACAM].Round(time.Millisecond),
			r.SchedTime[SchemeFixed].Round(time.Millisecond),
			r.SchedTime[SchemeGP].Round(time.Millisecond),
			r.TimeRatio(),
			fmt.Sprintf("%d/%d/%d", r.Attempts[SchemeURACAM], r.Attempts[SchemeFixed], r.Attempts[SchemeGP]),
			fmt.Sprintf("%d/%d", r.Partitions[SchemeFixed], r.Partitions[SchemeGP]),
			fmt.Sprintf("%d/%d", r.PartitionsReused[SchemeFixed], r.PartitionsReused[SchemeGP]))
	}
	return b.String()
}

// RenderTable1 prints the machine configurations (the paper's Table 1).
func RenderTable1(totalRegs, nbus, latbus int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s%10s%10s%10s%8s%8s%8s\n",
		"configuration", "INT/clus", "FP/clus", "MEM/clus", "regs", "buses", "latbus")
	for _, m := range machine.Table1(totalRegs, nbus, latbus) {
		fmt.Fprintf(&b, "%-24s%10d%10d%10d%8d%8d%8d\n",
			m.Name, m.Units[0], m.Units[1], m.Units[2], m.RegsPerCluster, m.NBus, m.LatBus)
	}
	return b.String()
}

// Figure2Configs returns the four panels of Figure 2: 2- and 4-cluster
// machines with 32 and 64 total registers, 1 bus of latency 1.
func Figure2Configs() []Config {
	return []Config{
		{Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1},
		{Clusters: 2, TotalRegs: 64, NBus: 1, LatBus: 1},
		{Clusters: 4, TotalRegs: 32, NBus: 1, LatBus: 1},
		{Clusters: 4, TotalRegs: 64, NBus: 1, LatBus: 1},
	}
}

// Figure3Configs returns the two panels of Figure 3: the 4-cluster machine
// with a 2-cycle bus.
func Figure3Configs() []Config {
	return []Config{
		{Clusters: 4, TotalRegs: 32, NBus: 1, LatBus: 2},
		{Clusters: 4, TotalRegs: 64, NBus: 1, LatBus: 2},
	}
}

// SortRowsLike orders report rows to match the canonical benchmark listing.
func SortRowsLike(rep *Report, names []string) {
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	sort.SliceStable(rep.Rows, func(a, b int) bool {
		return pos[rep.Rows[a].Benchmark] < pos[rep.Rows[b].Benchmark]
	})
}
