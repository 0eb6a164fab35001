package partition

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// TestPartitionWarmArenaAllocs pins the arena contract on the paper's
// machine: once an arena is warm, a Partition run allocates only the
// Partitioner, the Result and its Assign slice, averaged over the SPECfp95
// corpus.
func TestPartitionWarmArenaAllocs(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	ar := NewArena()
	var total float64
	loops := 0
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			ii := l.G.MII(m)
			total += testing.AllocsPerRun(2, func() { NewWithArena(l.G, m, nil, ar).Partition(ii) })
			loops++
		}
	}
	if avg := total / float64(loops); avg > 4 {
		t.Errorf("%.1f allocs per warmed-arena Partition over %d loops, want at most 4", avg, loops)
	}
}

// TestReusedArenaMatchesFresh pins "retain capacity, never content": one
// arena partitions every SPECfp95 loop in turn, each run inheriting the
// previous loop's levels, engine state and matching tables, and every
// result equals the one a fresh arena computes.
func TestReusedArenaMatchesFresh(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	ar := NewArena()
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			ii := l.G.MII(m)
			got := NewWithArena(l.G, m, nil, ar).Partition(ii)
			want := New(l.G, m, nil).Partition(ii)
			if !slices.Equal(got.Assign, want.Assign) || got.EstTime != want.EstTime ||
				got.IIBus != want.IIBus || got.Levels != want.Levels || got.Moves != want.Moves {
				t.Fatalf("%s: reused arena %+v, fresh arena %+v", l.G.Name, *got, *want)
			}
		}
	}
}
