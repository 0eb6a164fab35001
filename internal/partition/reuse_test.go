package partition

import (
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/workload"
)

// checkRepartition calls one Partitioner, bound to ar, at each II of iis
// in turn, and requires every result to equal the one a fresh Partitioner
// computes at that II. The first call must not report Reused: whatever
// memo ar holds belongs to another Partitioner. It returns the number of
// calls and of reused results.
func checkRepartition(t *testing.T, g *ddg.Graph, m *machine.Config, opts *Options, iis []int, ar *Arena) (calls, reused int) {
	t.Helper()
	p := NewWithArena(g, m, opts, ar)
	for i, ii := range iis {
		got := p.Partition(ii)
		if got.Reused {
			if i == 0 {
				t.Fatalf("%s on %s: a new Partitioner reported Reused at II %d", g.Name, m.Name, ii)
			}
			if got.ScreenLowerBound != 0 || got.ScreenExact != 0 || got.ScreenFull != 0 {
				t.Fatalf("%s on %s: reused result at II %d carries screening tallies %+v", g.Name, m.Name, ii, *got)
			}
			reused++
		}
		if want := New(g, m, opts).Partition(ii); !partitionResultsEqual(got, want) {
			t.Fatalf("%s on %s at II %d (call %d of %v, reused %v): repartition %+v, fresh %+v",
				g.Name, m.Name, ii, i, iis, got.Reused, *got, *want)
		}
		calls++
	}
	return calls, reused
}

// TestRepartitionMatchesFresh pins the repartition memo: one Partitioner
// called at MII, MII+1, …, MII+12, as the GP escalation calls it, and then
// once more at the MII, below the II its memo was refined at, returns at
// every II exactly what a fresh Partitioner returns, for the SPECfp95 and
// DSP loops on every sweep machine and the two 32-register paper panels.
// One arena serves every loop, so each new Partitioner starts on an arena
// whose last run left a memo, and must not reuse it: not at its first
// call, and not when a second Partitioner repeats the ascending
// sequence's last call on the same loop. -short keeps the paper machine
// only.
func TestRepartitionMatchesFresh(t *testing.T) {
	ms := append(machine.SweepSet(), machine.MustClustered(2, 32, 1, 1), machine.MustClustered(4, 32, 1, 2))
	if testing.Short() {
		ms = ms[:1]
	}
	ar := NewArena()
	calls, reused := 0, 0
	for _, corpus := range [][]*workload.Benchmark{workload.SPECfp95(), workload.DSP()} {
		for _, bm := range corpus {
			for _, l := range bm.Loops {
				for _, m := range ms {
					mii := l.G.MII(m)
					if mii >= 1<<20 {
						continue // machine cannot run this loop at all
					}
					iis := make([]int, 14)
					for i := range 13 {
						iis[i] = mii + i
					}
					iis[13] = mii
					c, r := checkRepartition(t, l.G, m, nil, iis, ar)
					calls, reused = calls+c, reused+r
					if NewWithArena(l.G, m, nil, ar).Partition(mii + 12).Reused {
						t.Fatalf("%s on %s: a second Partitioner reused the first one's memo", l.G.Name, m.Name)
					}
				}
			}
		}
	}
	if reused == 0 {
		t.Fatalf("%d calls, none reused: the memo was never exercised", calls)
	}
	t.Logf("%d calls, %d reused", calls, reused)
}

// FuzzRepartitionReuse runs TestRepartitionMatchesFresh's check on random
// loops: a randomDAG seed, a machine (shared bus, pipelined bus or
// point-to-point), option bits and an ascending II sequence, each step
// 0 to 3 above the previous II, starting at the MII.
func FuzzRepartitionReuse(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{1, 1, 1, 1, 1, 1})
	f.Add(int64(7), uint8(1), uint8(2), []byte{0, 1, 2, 3, 1})
	f.Add(int64(42), uint8(3), uint8(1), []byte{1, 2, 1, 1, 0, 1, 1})
	f.Add(int64(99), uint8(4), uint8(4), []byte{2, 2, 2})
	f.Add(int64(123), uint8(2), uint8(3), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	ms := engineMachines()
	ar := NewArena()
	f.Fuzz(func(t *testing.T, seed int64, mIdx, optBits uint8, steps []byte) {
		if len(steps) > 16 {
			steps = steps[:16]
		}
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(40))
		m := ms[int(mIdx)%len(ms)]
		opts := &Options{
			Weights:            WeightScheme(optBits & 1),
			RegisterAware:      optBits&2 != 0,
			SkipRefinement:     optBits&4 != 0,
			GreedyMatchingOnly: optBits&8 != 0,
		}
		iis := []int{g.MII(m)}
		for _, s := range steps {
			iis = append(iis, iis[len(iis)-1]+int(s%4))
		}
		checkRepartition(t, g, m, opts, iis, ar)
	})
}
