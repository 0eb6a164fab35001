package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// compileTracer records the spans of one compilation. Its methods are
// no-ops on a nil tracer, which is how untraced passes run the same code.
type compileTracer struct {
	rec        *recorder
	t          [7]int64 // see compileOne for what each stamp marks
	allocs     []metrics.Sample
	alloc0     uint64
	allocBytes uint64 // heap bytes allocated inside core.ScheduleLoop, summed
}

func newCompileTracer(rec *recorder) *compileTracer {
	return &compileTracer{rec: rec, allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (c *compileTracer) mark(i int) {
	if c != nil {
		c.t[i] = c.rec.now()
	}
}

func (c *compileTracer) heapAllocs() uint64 {
	metrics.Read(c.allocs)
	return c.allocs[0].Value.Uint64()
}

// enterCore reads the allocation counter, then stamps the start of the
// core.ScheduleLoop span; exitCore does the reverse, so the counter reads
// fall outside every layer span.
func (c *compileTracer) enterCore() {
	if c != nil {
		c.alloc0 = c.heapAllocs()
		c.mark(3)
	}
}

func (c *compileTracer) exitCore() {
	if c != nil {
		c.mark(4)
		c.allocBytes += c.heapAllocs() - c.alloc0
	}
}

// flush records the compilation's spans. The core.ScheduleLoop span is
// split into ddg, partition and schedule children from the phase times its
// Result reports; they are laid end to end from the span's start, and what
// they leave of the span is core's own time (list fallback and the escalation loop).
func (c *compileTracer) flush(id string, res *core.Result) {
	if c == nil {
		return
	}
	t := c.t
	root := c.rec.add(span{Name: rootCompile, ID: id, Start: t[0], End: t[6], Parent: -1})
	c.rec.add(span{Name: "ddgio.Read", ID: id, Start: t[0], End: t[1], Parent: root})
	c.rec.add(span{Name: "machine.Parse", ID: id, Start: t[1], End: t[2], Parent: root})
	coreSpan := c.rec.add(span{Name: "core.ScheduleLoop", ID: id, Start: t[3], End: t[4], Parent: root})
	at := t[3]
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"ddg.MII", res.MIIDur}, {"partition.Partition", res.PartitionDur}, {"schedule.attempts", res.ScheduleDur}} {
		c.rec.add(span{Name: ph.name, ID: id, Start: at, End: at + int64(ph.d), Parent: coreSpan})
		at += int64(ph.d)
	}
	c.rec.add(span{Name: "schedule.Verify", ID: id, Start: t[5], End: t[6], Parent: root})
}

const rootCompile = "bench.compile"

// compiled is what one compilation leaves for the output checks and the
// IPC reduction.
type compiled struct {
	res         *core.Result
	nodes, trip int
}

// compileOne runs one compilation through the public entry points: decode
// the loop text, parse the machine text, schedule, and verify the schedule
// independently of the scheduler. Stamps: 0 start, 1 decoded, 2 parsed,
// 3/4 around core.ScheduleLoop, 5 verify start, 6 verified.
func compileOne(j *compileJob, tr *compileTracer) (compiled, error) {
	tr.mark(0)
	loops, err := ddgio.Read(bytes.NewReader(j.loopText))
	if err != nil {
		return compiled{}, fmt.Errorf("%s: decode: %w", j.name, err)
	}
	if len(loops) != 1 {
		return compiled{}, fmt.Errorf("%s: decode: %d loops, want 1", j.name, len(loops))
	}
	g := loops[0]
	tr.mark(1)
	m, err := machine.Parse(bytes.NewReader(j.machineText))
	if err != nil {
		return compiled{}, fmt.Errorf("%s: machine: %w", j.name, err)
	}
	tr.mark(2)
	tr.enterCore()
	res, err := core.ScheduleLoop(g, m, &core.Options{Algorithm: j.alg})
	tr.exitCore()
	if err != nil {
		return compiled{}, fmt.Errorf("%s: schedule: %w", j.name, err)
	}
	tr.mark(5)
	if err := schedule.Verify(g, m, res.Schedule); err != nil {
		return compiled{}, fmt.Errorf("%s: verify: %w", j.name, err)
	}
	tr.mark(6)
	return compiled{res: res, nodes: g.N(), trip: g.Niter}, nil
}

// passResult is one pass over every job of a compile set.
type passResult struct {
	dur    time.Duration // wall time of the compilations, checks and calibration excluded
	cpu    time.Duration // CPU time of the process over the compilations
	lat    []float64     // per-compilation wall-clock latency, ms
	cpuLat []float64     // per-compilation CPU time of the process, ms
	out    []compiled    // by job index; res is nil for a failed job
	failed failures
}

// pass compiles every job once, in the set's order. Each compilation is
// timed on the wall clock and on the process's CPU clock, which counts the
// garbage collector's share on every thread and nothing while the host has
// the CPU elsewhere. Calibration bursts due between compilations run
// outside every timing.
func (cs *compileSet) pass(tr *compileTracer, cal *calibrator) passResult {
	p := passResult{out: make([]compiled, len(cs.jobs)), lat: make([]float64, 0, len(cs.jobs)), cpuLat: make([]float64, 0, len(cs.jobs))}
	start := time.Now()
	var paused time.Duration
	for _, i := range cs.order {
		t0, c0 := time.Now(), processCPU()
		c, err := compileOne(&cs.jobs[i], tr)
		c1, t1 := processCPU(), time.Now()
		p.lat = append(p.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
		p.cpuLat = append(p.cpuLat, float64(c1-c0)/float64(time.Millisecond))
		p.cpu += c1 - c0
		if err != nil {
			p.failed.add(err)
		} else {
			p.out[i] = c
			tr.flush(strconv.Itoa(i), c.res)
		}
		paused += cal.due()
	}
	p.dur = time.Since(start) - paused
	return p
}

// fingerprint is the sha256 of the schedule's JSON encoding: two schedules
// with equal fingerprints are byte-identical.
func fingerprint(s *schedule.Schedule) ([32]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// ipc is the paper's quality measure over one pass: per machine × scheme
// cell, the weighted IPC of each benchmark (bench.Report's formula, in its
// accumulation order) averaged over benchmarks, then averaged over cells.
func (cs *compileSet) ipc(out []compiled) (float64, error) {
	var total float64
	k := 0
	for cell := 0; cell < cs.cells; cell++ {
		var sum float64
		for b := 0; b < cs.benches; b++ {
			var ops, cycles float64
			for ; k < len(cs.jobs) && cs.jobs[k].cell == cell && cs.jobs[k].bench == b; k++ {
				c := out[k]
				if c.res == nil {
					return 0, fmt.Errorf("ipc: %s has no schedule", cs.jobs[k].name)
				}
				w := cs.jobs[k].weight
				ops += w * float64(c.nodes) * float64(c.trip)
				cycles += w * float64(c.res.Schedule.Cycles(c.trip))
			}
			if cycles == 0 {
				return 0, fmt.Errorf("ipc: cell %d benchmark %d has no cycles", cell, b)
			}
			sum += ops / cycles
		}
		total += sum / float64(cs.benches)
	}
	return total / float64(cs.cells), nil
}

// checker compares every pass's schedules with the first pass's.
type checker struct {
	ref    [][32]byte
	failed failures
}

func (ck *checker) check(cs *compileSet, p *passResult) {
	if ck.ref == nil {
		ck.ref = make([][32]byte, len(cs.jobs))
	}
	for i, c := range p.out {
		if c.res == nil {
			continue
		}
		fp, err := fingerprint(c.res.Schedule)
		switch {
		case err != nil:
			ck.failed.add(fmt.Errorf("%s: fingerprint: %w", cs.jobs[i].name, err))
		case ck.ref[i] == [32]byte{}:
			ck.ref[i] = fp
		case ck.ref[i] != fp:
			ck.failed.add(fmt.Errorf("%s: schedule differs from the first pass", cs.jobs[i].name))
		}
	}
}

// compileRun is the state of one compile-workload run.
type compileRun struct {
	cs       *compileSet
	ck       checker
	attempts int
	failed   failures
}

// runPasses runs whole passes until at least d of compile time has been
// measured and at least minPasses passes and minLat latency samples exist.
func (r *compileRun) runPasses(d time.Duration, minPasses, minLat int, tr *compileTracer, cal *calibrator) []passResult {
	var passes []passResult
	var measured time.Duration
	lat := 0
	for measured < d || len(passes) < minPasses || lat < minLat {
		p := r.cs.pass(tr, cal)
		r.ck.check(r.cs, &p)
		r.attempts += len(r.cs.jobs)
		r.failed.merge(p.failed)
		passes = append(passes, p)
		measured += p.dur
		lat += len(p.lat)
	}
	return passes
}

// setupReps is how many times a run sets up, so that setup_s is a median
// of set-ups that take a few milliseconds each.
const setupReps = 31

func runCompileWorkload(newSet func(int64) (*compileSet, error), o options) (*result, error) {
	var setups []float64
	var cs *compileSet
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every set-up starts from the same heap
		c0 := processCPU()
		s, err := newSet(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		cs = s
	}
	r := &compileRun{cs: cs}
	res := &result{metrics: map[string]metricValue{}}
	order := "a seeded"
	if o.seed == defaultSeed {
		order = "canonical"
	}
	res.addLine("corpus: %d compilations per pass in %d machine x scheme cells, visited in %s order",
		len(cs.jobs), cs.cells, order)

	if !o.trace {
		cal := newCalibrator(kernelReference())
		cal.burst()
		passes := r.runPasses(o.seconds, 3, minSamples(bpP95), nil, cal)
		cal.burst()
		var rates, wallRates, wallLat []float64
		var cpuLat [][]float64
		for _, p := range passes {
			rates = append(rates, float64(len(p.cpuLat))/p.cpu.Seconds())
			wallRates = append(wallRates, float64(len(p.lat))/p.dur.Seconds())
			cpuLat = append(cpuLat, p.cpuLat)
			wallLat = append(wallLat, p.lat...)
		}
		ipc, err := cs.ipc(passes[0].out)
		if err != nil {
			r.failed.add(err)
		}
		res.reportTimings(cal, "compilations", "passes", setups, rates, cpuLat, wallRates, wallLat)
		res.set("ipc", ipc)
		res.addLine("ipc        %.6f ops/cycle (first pass; later passes are byte-identical)", ipc)
	} else {
		untraced := r.runPasses(o.seconds/2, 1, 0, nil, nil)
		rec := newRecorder()
		rec.on.Store(true)
		tr := newCompileTracer(rec)
		traced := r.runPasses(o.seconds/2, 1, 0, tr, nil)
		spans, err := r.layerMetrics(res, untraced, traced, rec, tr)
		if err != nil {
			return nil, err
		}
		if err := writeSpans(o.spanPath(), spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.addLine("spans written to %s", o.spanPath())
	}
	res.attempted = r.attempts
	res.failed = r.failed
	res.failed.merge(r.ck.failed)
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced compile run. Counts
// and busy times are per pass; _us metrics are per call.
func (r *compileRun) layerMetrics(res *result, untraced, traced []passResult, rec *recorder, tr *compileTracer) ([]span, error) {
	spans := rec.take()
	l := buildLedger(spans, rootCompile)
	n := float64(len(traced))
	var attempts, partitions, fallbacks, modulo int
	var moves int64
	var compilations int
	for _, p := range traced {
		for _, c := range p.out {
			if c.res == nil {
				continue
			}
			compilations++
			attempts += c.res.Attempts
			partitions += c.res.Partitions
			moves += c.res.RefineMoves
			if c.res.ListFallback {
				fallbacks++
			} else {
				modulo++
			}
		}
	}
	ms := func(name string) float64 { return float64(l.self[name]) / 1e6 / n }
	us := func(name string) float64 { return l.meanSelf(name) / 1e3 }
	perCall := func(total float64, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return total / float64(calls)
	}
	res.set("schedule.attempts", float64(attempts)/n)
	res.set("schedule.busy_ms", ms("schedule.attempts"))
	res.set("schedule.us_per_attempt", perCall(float64(l.self["schedule.attempts"])/1e3, attempts))
	res.set("schedule.modulo_ratio", perCall(float64(modulo), attempts))
	res.set("schedule.list_fallbacks", float64(fallbacks)/n)
	res.set("core.residual_ms", ms("core.ScheduleLoop"))
	res.set("partition.calls", float64(partitions)/n)
	res.set("partition.busy_ms", ms("partition.Partition"))
	res.set("partition.us_per_call", perCall(float64(l.self["partition.Partition"])/1e3, partitions))
	res.set("partition.refine_moves", float64(moves)/n)
	res.set("ddg.mii_us", us("ddg.MII"))
	res.set("ddgio.decode_us", us("ddgio.Read"))
	res.set("machine.parse_us", us("machine.Parse"))
	res.set("schedule.verify_us", us("schedule.Verify"))
	res.set("core.alloc_kb_per_loop", perCall(float64(tr.allocBytes)/1024, compilations))
	res.set("ledger.unattributed_pct", l.unattributedPct())
	res.set("ledger.unstitched", float64(l.unstitched))
	res.set("trace.overhead_pct", overheadPct(perOp(untraced), perOp(traced)))
	res.addLine("traced %d passes after %d untraced; per pass: %d attempts, %d partitions, %d list fallbacks",
		len(traced), len(untraced), attempts/len(traced), partitions/len(traced), fallbacks/len(traced))
	res.report = append(res.report, l.lines()...)
	if !l.reconciles() {
		return nil, fmt.Errorf("ledger does not reconcile within %.1f%%", reconcileTolerancePct)
	}
	return spans, nil
}

// perOp is the mean wall time per compilation over the passes, in seconds.
func perOp(passes []passResult) float64 {
	var d time.Duration
	n := 0
	for _, p := range passes {
		d += p.dur
		n += len(p.lat)
	}
	if n == 0 {
		return 0
	}
	return d.Seconds() / float64(n)
}

// overheadPct is how much longer a traced operation took than an untraced
// one, in percent of the untraced time.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
