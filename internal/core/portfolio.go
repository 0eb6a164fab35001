// Portfolio refinement: race K seeded partition starts per II.
//
// The multilevel partitioner's initial placement (heaviest coarsest
// macro-node first) is a heuristic; refinement only ever improves locally
// from it, so a different — equally deterministic — starting permutation can
// land in a better basin and admit a schedule at a lower II. Portfolio
// search exploits idle cores by racing K such starts: seed 0 is always the
// canonical paper start, seeds 1..K−1 shuffle the coarsest-level seeding
// order with a splitmix64-driven permutation (partition.Options.Seed). At
// every II of the escalation all K candidates attempt a schedule in
// parallel; the first II with any success ends the search, and among the
// successes the winner is chosen by the fixed tie-break (partition
// execution-time bound, then seed index), so the output is byte-identical
// for a given K regardless of goroutine interleaving.
//
// Because seed 0 replays exactly the sequential path's partition trajectory
// (including the §3.1 IIbus > II repartition rule, applied per candidate),
// Portfolio=K can never finish at a worse II than Portfolio=1.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// candidate is one portfolio racer: its partitioner (with a pooled arena),
// current partition, and the schedule of the most recent II attempt.
type candidate struct {
	pt   *partition.Partitioner
	ar   *partition.Arena
	part *partition.Result
	s    *schedule.Schedule
}

// schedulePortfolio runs the II escalation with opts.portfolio() seeded
// starts racing at every II. res arrives with MII set and is completed in
// place. Only GP and FixedPartition reach here.
func schedulePortfolio(ctx context.Context, g *ddg.Graph, m *machine.Config, opts *Options, start time.Time, res *Result) (*Result, error) {
	k := opts.portfolio()
	// The racers share g read-only; pre-building the lazy adjacency lists
	// makes that sharing safe.
	g.Freeze()

	mode := schedule.ModeGP
	if opts.Algorithm == FixedPartition {
		mode = schedule.ModeFixed
	}

	cands := make([]candidate, k)
	var wg sync.WaitGroup
	pt0 := time.Now()
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var po partition.Options
			if opts.Partition != nil {
				po = *opts.Partition
			}
			po.Seed = s
			ar := partition.AcquireArena()
			pt := partition.NewWithArena(g, m, &po, ar)
			cands[s] = candidate{pt: pt, ar: ar, part: pt.Partition(res.MII)}
		}(s)
	}
	wg.Wait()
	res.PartitionDur += time.Since(pt0)
	defer func() {
		for i := range cands {
			cands[i].ar.Release()
		}
	}()
	res.Partitions += k
	for s := 0; s < k; s++ {
		res.addPartStats(cands[s].part)
	}
	res.IIBus = cands[0].part.IIBus

	limit := res.MII + opts.window()
	for ii := res.MII; ii <= limit; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s at II=%d: %w", g.Name, ii, err)
		}
		res.Attempts++
		st0 := time.Now()
		for s := 0; s < k; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sopts := &schedule.Options{Mode: mode, Assign: cands[s].part.Assign, MeritThreshold: opts.MeritThreshold}
				sc, fail := schedule.TrySchedule(g, m, ii, sopts)
				if fail != nil {
					sc = nil
				}
				cands[s].s = sc
			}(s)
		}
		wg.Wait()
		res.ScheduleDur += time.Since(st0)

		// All successes share this II, so the tie-break reduces to: best
		// partition execution-time bound, then lowest seed (strict < keeps
		// the lowest seed on ties).
		win := -1
		for s := 0; s < k; s++ {
			if cands[s].s == nil {
				continue
			}
			if win == -1 || cands[s].part.EstTime < cands[win].part.EstTime {
				win = s
			}
		}
		if win >= 0 {
			res.Schedule = cands[win].s
			res.Assign = cands[win].part.Assign
			res.IIBus = cands[win].part.IIBus
			res.PortfolioSeed = win
			res.Elapsed = time.Since(start)
			return res, nil
		}
		// The sequential rule on seed 0's assignment: the same limit as
		// Portfolio=1, so K racers never make more attempts.
		if ii == res.MII {
			limit = listCap(g, m, cands[0].part.Assign, limit)
		}

		// The II will be raised; each GP candidate applies the §3.1
		// repartition rule against its own bus bound.
		if opts.Algorithm == GP {
			rt0 := time.Now()
			var redone []int
			for s := 0; s < k; s++ {
				if cands[s].part.IIBus <= ii+1 {
					continue
				}
				res.Partitions++
				redone = append(redone, s)
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					cands[s].part = cands[s].pt.Partition(ii + 1)
				}(s)
			}
			wg.Wait()
			if len(redone) > 0 {
				res.PartitionDur += time.Since(rt0)
				for _, s := range redone {
					res.addPartStats(cands[s].part)
				}
			}
			res.IIBus = cands[0].part.IIBus
		}
	}

	// Modulo scheduling inappropriate for this loop: list-schedule it from
	// seed 0's trajectory, exactly as the sequential path would.
	res.ListFallback = true
	res.Assign = cands[0].part.Assign
	res.IIBus = cands[0].part.IIBus
	res.Schedule = schedule.ListSchedule(g, m, cands[0].part.Assign)
	res.Elapsed = time.Since(start)
	return res, nil
}
