package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// job is one independent scheduling unit of a panel: one loop of one
// benchmark under one scheme. Jobs are laid out in the exact order the
// sequential harness visits them, so the reduction can walk the result
// slice with a single running index and reproduce the sequential
// floating-point accumulation order bit for bit.
type job struct {
	benchmark string
	scheme    string
	g         *ddg.Graph
	m         *machine.Config
	opts      *core.Options
	verify    bool
}

func (j *job) wrap(err error) error {
	return fmt.Errorf("bench: %s/%s on %s: %w", j.benchmark, j.g.Name, j.scheme, err)
}

// jobResult is one job's schedule and its scheduling time.
type jobResult struct {
	res     *core.Result
	elapsed time.Duration
}

// run schedules the job and, when the differential oracle is enabled,
// verifies the produced schedule against the dependence graph and machine.
// The scheduling (not the verification) is timed on the thread's CPU
// clock, which time the host gives to other work does not advance, or on
// the wall clock where that clock is missing.
func (j *job) run(ctx context.Context) (jobResult, error) {
	runtime.LockOSThread()
	start := time.Now()
	cpu0, cpuOK := threadCPU()
	res, err := core.ScheduleLoopContext(ctx, j.g, j.m, j.opts)
	elapsed := time.Since(start)
	if cpu1, ok := threadCPU(); cpuOK && ok {
		elapsed = cpu1 - cpu0
	}
	runtime.UnlockOSThread()
	if err != nil {
		return jobResult{}, j.wrap(err)
	}
	if j.verify {
		if err := schedule.Verify(j.g, j.m, res.Schedule); err != nil {
			return jobResult{}, j.wrap(err)
		}
	}
	return jobResult{res, elapsed}, nil
}

// runJobs executes every job and returns results index-aligned with jobs:
// results[i] is jobs[i]'s outcome. With workers ≤ 1 the jobs run strictly
// sequentially on the calling goroutine (the pre-parallel harness
// behavior); otherwise a pool of `workers` goroutines drains the job list.
//
// The first failure cancels in-flight work. Error selection prefers the
// lowest-indexed failure that is not an artifact of the pool's own
// cancellation, so a corpus with a single bad loop — the common case —
// fails with the same error regardless of goroutine interleaving. (When
// several jobs fail genuinely at once, cancellation may reach an
// earlier-indexed job before its own failure does, so which genuine error
// is reported can vary.)
func runJobs(ctx context.Context, jobs []job, workers int) ([]jobResult, error) {
	if workers < 1 {
		workers = 1 // the GOMAXPROCS default lives in Config.workers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]jobResult, len(jobs))

	if workers <= 1 {
		for i := range jobs {
			res, err := jobs[i].run(ctx)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	// The same *ddg.Graph is scheduled by all four schemes; warm its lazy
	// adjacency caches once, before any concurrent readers exist.
	for i := range jobs {
		jobs[i].g.Freeze()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				res, err := jobs[i].run(ctx)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()

	// Prefer the lowest-indexed genuine failure; jobs that died with a
	// cancellation error were collateral of cancel() (or of the caller's
	// own context, in which case any of them reports it faithfully).
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			first = err
			break
		}
	}
	if first == nil {
		for _, err := range errs {
			if err != nil {
				first = err
				break
			}
		}
	}
	if first == nil {
		// A canceled caller context can drain the pool before any worker
		// records an error (workers bail on ctx before claiming a job).
		if err := ctx.Err(); err != nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}
