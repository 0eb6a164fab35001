// Command gpbench regenerates the paper's evaluation: Table 1 (machine
// configurations), Figure 2 (IPC on 2- and 4-cluster machines, 1-cycle
// bus), Figure 3 (4-cluster, 2-cycle bus), Table 2 (scheduling time) and
// the headline summary (GP speedup over URACAM and Fixed Partition).
//
// Beyond the paper grid, -sweep fans a cross-product of machine
// descriptions (built-in set or -machine files) × both corpora (SPECfp95 +
// DSP) × all four schemes across the parallel runner, verifies every
// schedule with the schedule.Verify oracle, and emits one deterministic
// CSV.
//
// Usage:
//
//	gpbench [-table1] [-figure2] [-figure3] [-table2] [-summary] [-ablations] [-all]
//	        [-machine m1.txt,m2.txt] [-sweep] [-short] [-noverify]
//	        [-parallel N] [-csv out.csv]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	t1 := fs.Bool("table1", false, "print Table 1 (configurations)")
	f2 := fs.Bool("figure2", false, "run Figure 2 (1-cycle bus, 2 and 4 clusters)")
	f3 := fs.Bool("figure3", false, "run Figure 3 (2-cycle bus, 4 clusters)")
	t2 := fs.Bool("table2", false, "run Table 2 (scheduling time)")
	sum := fs.Bool("summary", false, "print the headline speedups")
	abl := fs.Bool("ablations", false, "run the partitioner ablations (A1 uniform weights, A2 no refinement, A4 greedy-only matching, A6 register-aware)")
	sweep := fs.Bool("sweep", false, "run the machine × corpus sweep and emit one deterministic CSV")
	machines := fs.String("machine", "", "comma-separated machine-description files (default: the built-in sweep set)")
	short := fs.Bool("short", false, "trim every corpus to its first two loops per benchmark (fast CI sweep)")
	noVerify := fs.Bool("noverify", false, "skip the schedule.Verify oracle during -sweep")
	csvPath := fs.String("csv", "", "also write every panel (or the sweep) as CSV to this file")
	all := fs.Bool("all", false, "everything")
	par := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines scheduling loops (1 = sequential; IPC results are identical for every value)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !*sweep && (*short || *noVerify) {
		fmt.Fprintln(stderr, "gpbench: -short and -noverify only apply to -sweep runs")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "gpbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "gpbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(stderr, "gpbench: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "gpbench: %v\n", err)
			}
			f.Close()
		}()
	}

	machineSet, err := loadMachines(*machines)
	if err != nil {
		fmt.Fprintf(stderr, "gpbench: %v\n", err)
		return 1
	}

	if *sweep {
		return runSweep(machineSet, *par, *short, !*noVerify, *csvPath, stdout, stderr)
	}
	if !(*t1 || *f2 || *f3 || *t2 || *sum || *abl || *all || *machines != "") {
		*all = true
	}

	corpus := gpsched.SPECfp95Corpus()
	names := make([]string, 0, len(corpus))
	for _, b := range corpus {
		names = append(names, b.Name)
	}

	var reports []*bench.Report
	runPanel := func(cfg bench.Config) (*bench.Report, bool) {
		cfg.Parallel = *par
		rep, err := bench.Run(corpus, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "gpbench: %v\n", err)
			return nil, false
		}
		bench.SortRowsLike(rep, names)
		reports = append(reports, rep)
		return rep, true
	}

	if *t1 || *all {
		fmt.Fprintln(stdout, "=== Table 1: clustered VLIW configurations ===")
		fmt.Fprintln(stdout, bench.RenderTable1(64, 1, 1))
	}
	if *machines != "" {
		// Custom machines: one four-scheme panel each over the SPECfp95
		// corpus.
		for _, m := range machineSet {
			fmt.Fprintf(stdout, "=== Machine %s ===\n", m.Name)
			rep, ok := runPanel(bench.Config{Machine: m})
			if !ok {
				return 1
			}
			fmt.Fprintln(stdout, rep.Render())
		}
	}
	if *f2 || *all {
		fmt.Fprintln(stdout, "=== Figure 2: IPC, 1 bus, latency 1 ===")
		for _, cfg := range bench.Figure2Configs() {
			rep, ok := runPanel(cfg)
			if !ok {
				return 1
			}
			fmt.Fprintln(stdout, rep.Render())
		}
	}
	if *f3 || *all {
		fmt.Fprintln(stdout, "=== Figure 3: IPC, 1 bus, latency 2 ===")
		for _, cfg := range bench.Figure3Configs() {
			rep, ok := runPanel(cfg)
			if !ok {
				return 1
			}
			fmt.Fprintln(stdout, rep.Render())
		}
	}
	if (*t2 || *sum || *all) && len(reports) == 0 {
		// Need at least the headline configuration.
		for _, cfg := range []bench.Config{
			{Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1},
			{Clusters: 4, TotalRegs: 32, NBus: 1, LatBus: 1},
		} {
			if _, ok := runPanel(cfg); !ok {
				return 1
			}
		}
	}
	if *t2 || *all {
		fmt.Fprintln(stdout, "=== Table 2: scheduling time per scheme ===")
		fmt.Fprintln(stdout, bench.RenderTable2(reports))
	}
	if *sum || *all {
		fmt.Fprintln(stdout, "=== Headline summary ===")
		for _, rep := range reports {
			fmt.Fprintf(stdout, "%-28s GP vs URACAM %+6.1f%%   GP vs Fixed %+6.1f%%   URACAM/GP time %.1fx\n",
				rep.Machine.Name, rep.Speedup(bench.SchemeURACAM), rep.Speedup(bench.SchemeFixed), rep.TimeRatio())
		}
		fmt.Fprintln(stdout)
	}
	if *abl || *all {
		fmt.Fprintln(stdout, "=== Ablations (2-cluster, 32 regs, 1 bus, latency 1; GP mean IPC) ===")
		base := bench.Config{Clusters: 2, TotalRegs: 32, NBus: 1, LatBus: 1}
		ablations := []struct {
			name string
			opts *partition.Options
		}{
			{"paper (delay/slack weights, refined, exact matching)", nil},
			{"A1 uniform edge weights", &partition.Options{Weights: partition.UniformWeights}},
			{"A2 refinement off", &partition.Options{SkipRefinement: true}},
			{"A4 greedy-only matching", &partition.Options{GreedyMatchingOnly: true}},
			{"A6 register-aware partitioning (paper future work)", &partition.Options{RegisterAware: true}},
		}
		for _, a := range ablations {
			cfg := base
			cfg.Parallel = *par
			if a.opts != nil {
				cfg.PartitionOpts = &gpsched.Options{Partition: a.opts}
			}
			rep, err := bench.Run(corpus, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "gpbench: ablation %s: %v\n", a.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-55s GP IPC %.3f (vs URACAM %+5.1f%%)\n",
				a.name, rep.MeanIPC[bench.SchemeGP], rep.Speedup(bench.SchemeURACAM))
		}
		fmt.Fprintln(stdout)
	}

	if *csvPath != "" && len(reports) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(stderr, "gpbench: %v\n", err)
			return 1
		}
		for _, rep := range reports {
			if err := rep.WriteCSV(f); err != nil {
				fmt.Fprintf(stderr, "gpbench: %v\n", err)
				return 1
			}
		}
		if err := bench.WriteTimesCSV(f, reports); err != nil {
			fmt.Fprintf(stderr, "gpbench: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "gpbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "CSV series written to %s\n", *csvPath)
	}

	if err := workloadSanity(corpus); err != nil {
		fmt.Fprintf(stderr, "gpbench: corpus sanity: %v\n", err)
		return 1
	}
	return 0
}

// loadMachines parses the comma-separated -machine file list, or returns
// the built-in sweep set when the flag is empty.
func loadMachines(flagVal string) ([]*machine.Config, error) {
	if flagVal == "" {
		return machine.SweepSet(), nil
	}
	var ms []*machine.Config
	for _, path := range strings.Split(flagVal, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		m, err := machine.Parse(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("-machine %q names no files", flagVal)
	}
	return ms, nil
}

// runSweep executes the machine × corpus cross-product and writes the
// deterministic sweep CSV to csvPath (or stdout when empty).
func runSweep(machines []*machine.Config, parallel int, short, verify bool, csvPath string, stdout, stderr io.Writer) int {
	maxLoops := 0
	if short {
		maxLoops = 2
	}
	corpora := bench.SweepCorpora(maxLoops)
	cfg := bench.Config{Parallel: parallel, Verify: verify}
	points, err := bench.Sweep(context.Background(), machines, corpora, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "gpbench: sweep: %v\n", err)
		return 1
	}
	for _, pt := range points {
		if pt.Report == nil {
			fmt.Fprintf(stderr, "gpbench: sweep: skipped %s × %s: %s\n", pt.Machine.Name, pt.Corpus, pt.SkipReason)
		}
	}
	if csvPath == "" {
		if err := bench.WriteSweepCSV(stdout, points); err != nil {
			fmt.Fprintf(stderr, "gpbench: sweep csv: %v\n", err)
			return 1
		}
		return 0
	}
	f, err := os.Create(csvPath)
	if err != nil {
		fmt.Fprintf(stderr, "gpbench: %v\n", err)
		return 1
	}
	if err := bench.WriteSweepCSV(f, points); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "gpbench: sweep csv: %v\n", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "gpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "sweep CSV written to %s (%d cells)\n", csvPath, len(points))
	return 0
}

// workloadSanity re-validates the corpus after the run (paranoia: the
// schedulers must never mutate the input graphs).
func workloadSanity(corpus []*workload.Benchmark) error {
	for _, b := range corpus {
		for _, l := range b.Loops {
			if err := l.G.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}
