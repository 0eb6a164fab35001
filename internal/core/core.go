// Package core implements the paper's primary contribution: the GP code
// generation framework (Figure 1) that couples the multilevel
// graph-partitioning cluster assignment with the URACAM-based modulo
// scheduler.
//
// The control flow follows §3.1 exactly:
//
//  1. Compute the MII and partition the DDG at that II; the partition also
//     yields IIbus, the bus-imposed II bound.
//  2. Try to schedule at the current II — which starts at the MII even when
//     IIbus is larger, "on the hope that some communications will be
//     performed through memory instead of the bus".
//  3. On failure, increase the II. The GP scheme recomputes the partition
//     only when IIbus > II (the partition, not the machine resources, is
//     the binding constraint); the Fixed Partition variant never
//     recomputes; URACAM never had a partition.
//  4. Loops whose II escalates past a limit fall back to acyclic list
//     scheduling, as the paper does for the few loops where modulo
//     scheduling becomes inappropriate (§4.1). The limit starts at
//     MII+IIWindow. Once the attempt at the MII fails, it drops to the
//     length of the list schedule of that attempt's assignment: past it a
//     modulo schedule takes more cycles than the fallback for any
//     realistic trip count.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// Algorithm selects one of the compared schedulers.
type Algorithm int8

const (
	// GP is the paper's scheme: graph partitioning, flexible scheduling,
	// selective repartitioning.
	GP Algorithm = iota
	// FixedPartition follows the initial partition rigidly and only ever
	// raises the II.
	FixedPartition
	// URACAM is the best previously published scheme: integrated per-node
	// cluster assignment with no global partition.
	URACAM
)

var algNames = [...]string{"GP", "Fixed", "URACAM"}

// String returns the algorithm's short name as used in tables.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algNames) {
		return fmt.Sprintf("Algorithm(%d)", int8(a))
	}
	return algNames[a]
}

// Options configures ScheduleLoop. The zero value is the paper-faithful GP
// configuration.
type Options struct {
	// Algorithm selects the scheduling scheme.
	Algorithm Algorithm
	// Partition tunes the graph partitioner (ablations); nil for defaults.
	Partition *partition.Options
	// MeritThreshold is forwarded to the scheduler's figure of merit.
	MeritThreshold float64
	// IIWindow bounds how far past the MII the II may escalate before the
	// list-scheduling fallback engages. Zero means the default MII+64. It
	// is the outer cap: the escalation also stops at the length of the
	// list schedule of the MII attempt's assignment (see listCap).
	IIWindow int
	// Portfolio, when > 1, races K deterministically-seeded partition
	// starts (seeds 0..K−1; seed 0 is the canonical paper start) in
	// parallel at every II of the escalation and keeps the best schedule
	// under a fixed tie-break: lowest II, then the partition's
	// execution-time bound, then seed index. Output is byte-identical for a
	// given K, and never a worse II than Portfolio=1 (seed 0 always races).
	// Ignored for URACAM, which has no partition to vary. Values above 16
	// are clamped; 0 and 1 mean the sequential paper path.
	Portfolio int
}

// maxPortfolio caps the racer count: past this the marginal II benefit is
// noise while goroutine and arena cost keep growing.
const maxPortfolio = 16

func (o *Options) window() int {
	if o.IIWindow > 0 {
		return o.IIWindow
	}
	return 64
}

func (o *Options) portfolio() int {
	if o.Portfolio > maxPortfolio {
		return maxPortfolio
	}
	if o.Portfolio > 1 {
		return o.Portfolio
	}
	return 1
}

// Result is the outcome of scheduling one loop.
type Result struct {
	// Schedule is the final schedule (modulo or list).
	Schedule *schedule.Schedule
	// Assign is the cluster assignment actually used (nil for URACAM with
	// list fallback).
	Assign []int
	// MII is the lower bound the search started from.
	MII int
	// IIBus is the bus bound of the final partition (0 for URACAM).
	IIBus int
	// Partitions counts partition computations (≥ 1 for GP/Fixed).
	Partitions int
	// Attempts counts scheduling attempts (II values tried).
	Attempts int
	// ListFallback reports that modulo scheduling was abandoned.
	ListFallback bool
	// PortfolioSeed is the seed index of the winning portfolio racer (0
	// when Portfolio ≤ 1: the canonical start).
	PortfolioSeed int
	// Elapsed is the wall-clock scheduling time, the paper's Table 2 metric.
	Elapsed time.Duration

	// Phase wall times within Elapsed: MII computation, partitioning
	// (cumulative over recomputations; for portfolio search, the wall time
	// of the parallel partition phases, not the sum over racers), and
	// scheduling attempts. Feeds the serving daemons' trace phases.
	MIIDur, PartitionDur, ScheduleDur time.Duration
	// RefineMoves totals refinement transformations across every partition
	// computed for this loop (all portfolio racers included).
	RefineMoves int64
	// Candidate-screening tallies summed over the same partitions; see
	// partition.Result.
	ScreenLowerBound, ScreenExact, ScreenFull int64
}

// addPartStats folds one partition computation's work counters into the
// result.
func (r *Result) addPartStats(p *partition.Result) {
	r.RefineMoves += int64(p.Moves)
	r.ScreenLowerBound += p.ScreenLowerBound
	r.ScreenExact += p.ScreenExact
	r.ScreenFull += p.ScreenFull
}

// IPC returns executed operations per cycle for the loop's profiled trip
// count, counting the loop's original operations (spill code and
// communications are overhead, not useful work).
func (r *Result) IPC(g *ddg.Graph) float64 {
	cyc := r.Schedule.Cycles(g.Niter)
	if cyc <= 0 {
		return 0
	}
	return float64(int64(g.N())*int64(g.Niter)) / float64(cyc)
}

// ScheduleLoop schedules one loop on machine m with the selected algorithm.
func ScheduleLoop(g *ddg.Graph, m *machine.Config, opts *Options) (*Result, error) {
	return ScheduleLoopContext(context.Background(), g, m, opts)
}

// ScheduleLoopContext is ScheduleLoop with cancellation: the II escalation
// loop checks ctx between scheduling attempts, so a canceled context stops
// the search promptly and returns ctx's error. The experiment harness uses
// this to abandon in-flight work when a sibling loop fails.
func ScheduleLoopContext(ctx context.Context, g *ddg.Graph, m *machine.Config, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	res := &Result{MII: g.MII(m)}
	res.MIIDur = time.Since(start)

	if opts.portfolio() > 1 && opts.Algorithm != URACAM {
		return schedulePortfolio(ctx, g, m, opts, start, res)
	}

	var assign []int
	var part *partition.Result
	var partitioner *partition.Partitioner
	mode := schedule.ModeURACAM
	switch opts.Algorithm {
	case GP, FixedPartition:
		// The partitioner's scratch, matching tables included, comes from
		// the package pool, so it is reused across loops and requests.
		ar := partition.AcquireArena()
		defer ar.Release()
		partitioner = partition.NewWithArena(g, m, opts.Partition, ar)
		pt0 := time.Now()
		part = partitioner.Partition(res.MII)
		res.PartitionDur += time.Since(pt0)
		res.addPartStats(part)
		res.Partitions++
		assign = part.Assign
		res.IIBus = part.IIBus
		mode = schedule.ModeGP
		if opts.Algorithm == FixedPartition {
			mode = schedule.ModeFixed
		}
	case URACAM:
		// no partition phase
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}

	limit := res.MII + opts.window()
	for ii := res.MII; ii <= limit; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s at II=%d: %w", g.Name, ii, err)
		}
		res.Attempts++
		sopts := &schedule.Options{Mode: mode, Assign: assign, MeritThreshold: opts.MeritThreshold}
		st0 := time.Now()
		s, fail := schedule.TrySchedule(g, m, ii, sopts)
		res.ScheduleDur += time.Since(st0)
		if fail == nil {
			res.Schedule = s
			res.Assign = assign
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if ii == res.MII {
			limit = listCap(g, m, assign, limit)
		}
		// II will be raised; the GP scheme recomputes the partition when
		// the bus bound exceeds the raised II (§3.1).
		if opts.Algorithm == GP && part != nil && part.IIBus > ii+1 {
			pt0 := time.Now()
			part = partitioner.Partition(ii + 1)
			res.PartitionDur += time.Since(pt0)
			res.addPartStats(part)
			res.Partitions++
			assign = part.Assign
			res.IIBus = part.IIBus
		}
	}

	// Modulo scheduling inappropriate for this loop: list-schedule it.
	res.ListFallback = true
	res.Schedule = schedule.ListSchedule(g, m, assign)
	res.Assign = assign
	res.Elapsed = time.Since(start)
	return res, nil
}

// listCap lowers the escalation's limit to the length of the list schedule
// of assign, the assignment of the failed attempt at the MII. A modulo
// schedule at II runs (n−1)·II + SL_mod cycles against the fallback's
// n·SL_list, so past SL_list it loses to the fallback for any trip count n
// with n−1 ≥ SL_list − SL_mod. Both escalation paths call it once, after
// the first attempt fails, so a loop that schedules at its MII pays
// nothing.
func listCap(g *ddg.Graph, m *machine.Config, assign []int, limit int) int {
	return min(limit, schedule.ListSchedule(g, m, assign).SL)
}
