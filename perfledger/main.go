// Command perfledger is the repository's benchmark: three closed-loop
// workloads driven through the public entry points of the compile path
// (ddgio.Read, machine.Parse, core.ScheduleLoop, schedule.Verify) and of the
// serving path (the cluster.Coordinator and server.Server handlers,
// in-process on loopback). It checks every output, and prints a
// human-readable report followed by one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfledger/run.sh --workload specfp-paper --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: operations are
// timed on the process's CPU clock (cputime.go) and scaled by a calibration
// kernel run in bursts between them (calib.go). With --trace 1
// a separate traced run records a span around every call into a layer,
// reconciles the per-layer ledger against the end-to-end spans, writes the
// spans under .bench_build/spans/ and reports the per-layer metrics.
// The exit status is non-zero when any output fails its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// spanPath is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
func (o options) spanPath() string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

var workloads = map[string]func(options) (*result, error){
	"specfp-paper": func(o options) (*result, error) { return runCompileWorkload(specfpPaperSet, o) },
	"dsp-sweep":    func(o options) (*result, error) { return runCompileWorkload(dspSweepSet, o) },
	"fleet-zipf":   runFleetWorkload,
}

// result is one run's outcome: the operations attempted and failed, the
// metrics, and the report lines printed before the result line.
type result struct {
	attempted int
	failed    failures
	metrics   map[string]metricValue
	report    []string
}

// failures counts failed operations and keeps the first maxErrs errors
// for the report.
type failures struct {
	n    int
	errs []error
}

const maxErrs = 8

func (f *failures) add(err error) {
	f.n++
	if len(f.errs) < maxErrs {
		f.errs = append(f.errs, err)
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	f.errs = append(f.errs, o.errs[:min(len(o.errs), maxErrs-len(f.errs))]...)
}

func unitOf(name string) (string, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit, true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}

func (r *result) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("perfledger: undeclared metric " + name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) addLine(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// The benchmark runs everything on one P. An operation's CPU time is then
// the time it would take alone on one CPU: no idle CPU runs speculative
// garbage-collector work, and no fleet hop pays for waking another CPU,
// both of which vary with the host more than the work itself does.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 25, "seconds of measured work")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfledger: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfledger: --seconds must be at least 1\n")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfledger: --trace must be 0 or 1\n")
		return 2
	}
	if err := checkCPUClocks(); err != nil {
		fmt.Fprintf(stderr, "perfledger: %v\n", err)
		return 1
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	fmt.Fprintf(stdout, "perfledger %s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, *seconds, *trace)
	res, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfledger: %s: %v\n", o.workload, err)
		return 1
	}
	if err := finish(res, o.trace); err != nil {
		fmt.Fprintf(stderr, "perfledger: %s: %v\n", o.workload, err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	if o.trace {
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "  %-26s %14.4f %-6s should move: %s; works on: %s; no change predicted on: %s\n",
				m.name, res.metrics[m.name].Value, m.unit, m.moves, m.works, m.noChange)
		}
	}
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d failed of %d attempted)\n", float64(res.failed.n)/float64(res.attempted), res.failed.n, res.attempted)
	for _, e := range res.failed.errs {
		fmt.Fprintf(stderr, "perfledger: %s: %v\n", o.workload, e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed.n == 0, res.attempted, res.failed.n, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfledger: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed.n > 0 {
		return 1
	}
	return 0
}

// finish checks that a run produced exactly the metrics its mode reports,
// as finite numbers. A traced run reports 0 for a layer metric the workload
// never exercises: the layer did no work there.
func finish(res *result, trace bool) error {
	if res.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	var want []string
	if trace {
		for _, m := range perLayer {
			want = append(want, m.name)
			if _, ok := res.metrics[m.name]; !ok {
				res.set(m.name, 0)
			}
		}
	} else {
		for _, m := range endToEnd {
			want = append(want, m.name)
		}
	}
	if len(res.metrics) != len(want) {
		return fmt.Errorf("run produced %d metrics, want %d", len(res.metrics), len(want))
	}
	for _, name := range want {
		v, ok := res.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
