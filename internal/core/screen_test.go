package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// TestSPECfpScreeningTotals pins the partitioner's work on one pass of the
// paper's evaluation (every SPECfp95 loop under GP on the 4-cluster/64reg/
// 1bus/lat1 machine): the refinement candidates each screening stage
// settles, the applied refinement moves, the partitions the escalation
// used and how many of them were reused without refining. The
// schedule digests pin what refinement chooses; these totals pin how many
// candidates it examined to get there and where each was decided, so a
// screen that rejects a different set of candidates fails here even when
// it happens to choose the same moves.
func TestSPECfpScreeningTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("a full SPECfp95 pass; the digest oracle covers the schedules in -short mode")
	}
	m := machine.MustClustered(4, 64, 1, 1)
	var got Result
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			res, err := ScheduleLoop(l.G, m, &Options{Algorithm: GP})
			if err != nil {
				t.Fatalf("%s: %v", l.G.Name, err)
			}
			got.Partitions += res.Partitions
			got.PartitionsReused += res.PartitionsReused
			got.RefineMoves += res.RefineMoves
			got.ScreenLowerBound += res.ScreenLowerBound
			got.ScreenExact += res.ScreenExact
			got.ScreenFull += res.ScreenFull
		}
	}
	want := Result{Partitions: 208, PartitionsReused: 67, RefineMoves: 1054,
		ScreenLowerBound: 57365, ScreenExact: 114, ScreenFull: 2240}
	if got.Partitions != want.Partitions || got.PartitionsReused != want.PartitionsReused ||
		got.RefineMoves != want.RefineMoves || got.ScreenLowerBound != want.ScreenLowerBound ||
		got.ScreenExact != want.ScreenExact || got.ScreenFull != want.ScreenFull {
		t.Errorf("partitions %d (%d reused), refine moves %d, screened %d / %d / %d (lower bound / exact / full); want %d (%d), %d, %d / %d / %d",
			got.Partitions, got.PartitionsReused, got.RefineMoves, got.ScreenLowerBound, got.ScreenExact, got.ScreenFull,
			want.Partitions, want.PartitionsReused, want.RefineMoves, want.ScreenLowerBound, want.ScreenExact, want.ScreenFull)
	}
}

// TestSPECfpTransformTotals pins the scheduler's transform-loop work on the
// same pass: the transform loops the attempts enter, how many a repeated
// routing state cuts short, and the placement retries after a
// transformation (the uncut loop makes 20,749). The split of the failed
// attempts by reason pins that the cut changes no attempt's outcome.
func TestSPECfpTransformTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("a full SPECfp95 pass; TestTransformCutMatchesUncut covers the cut in -short mode")
	}
	m := machine.MustClustered(4, 64, 1, 1)
	var got Result
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			res, err := ScheduleLoop(l.G, m, &Options{Algorithm: GP})
			if err != nil {
				t.Fatalf("%s: %v", l.G.Name, err)
			}
			got.Attempts += res.Attempts
			got.Transform.Add(res.Transform)
			for r, n := range res.AttemptFailures {
				got.AttemptFailures[r] += n
			}
		}
	}
	want := Result{Attempts: 321, Transform: schedule.TransformWork{Loops: 527, Cuts: 184, Retries: 1285}}
	want.AttemptFailures[schedule.FailFU] = 1
	want.AttemptFailures[schedule.FailWindow] = 2
	want.AttemptFailures[schedule.FailBus] = 185
	want.AttemptFailures[schedule.FailRegs] = 43
	want.AttemptFailures[schedule.FailMem] = 11
	if got.Attempts != want.Attempts || got.Transform != want.Transform || got.AttemptFailures != want.AttemptFailures {
		t.Errorf("attempts %d, failures by reason %v, transform work %+v; want %d, %v, %+v",
			got.Attempts, got.AttemptFailures, got.Transform, want.Attempts, want.AttemptFailures, want.Transform)
	}
}
