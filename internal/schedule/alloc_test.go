package schedule

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/workload"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// specLoop returns one loop of the SPECfp95 corpus by name.
func specLoop(t testing.TB, name string) *ddg.Graph {
	t.Helper()
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			if l.G.Name == name {
				return l.G
			}
		}
	}
	t.Fatalf("no loop %s", name)
	return nil
}

// TestProbeAllocFree pins the probe contract: once the scratch is warm, a
// placement probe — routing, view copies, register check and merit —
// allocates nothing, on the shared bus and on point-to-point links.
func TestProbeAllocFree(t *testing.T) {
	g := specLoop(t, "applu/loop3")
	for _, m := range []*machine.Config{machine.MustClustered(4, 64, 1, 1), machine.SweepSet()[3]} {
		t.Run(m.Name, func(t *testing.T) {
			ii := g.MII(m) + 8
			st := newState(g, m, ii)
			defer st.release()
			if !g.StartTimesInto(m, ii, nil, &st.static) {
				t.Fatal("infeasible II")
			}
			// Place the first half of the order across clusters, so the
			// probes below route reads over the interconnect.
			order := Order(g, m, ii)
			opts := &Options{Mode: ModeURACAM}
			for _, v := range order[:len(order)/2] {
				if placed, fail := st.placeNode(v, opts, &st.static); !placed {
					t.Fatalf("node %d unplaceable: %v", v, fail)
				}
			}
			v := order[len(order)/2]
			lo := st.static.Earliest[v] - ii
			plans, cross := 0, 0
			probeAll := func() {
				for c := 0; c < m.Clusters; c++ {
					for cyc := lo; cyc < lo+2*ii; cyc++ {
						if p, _ := st.planPlace(v, c, cyc); p != nil {
							plans++
							cross += len(p.comms) + len(p.moves)
							st.probe.freePlan(p)
						}
					}
				}
			}
			probeAll() // warm-up: sizes the plan and view scratch
			if plans == 0 || cross == 0 {
				t.Fatalf("probes found %d plans with %d transfers; the test needs cross-cluster plans", plans, cross)
			}
			if allocs := testing.AllocsPerRun(20, probeAll); allocs != 0 {
				t.Errorf("%v allocations per probe sweep, want 0", allocs)
			}
		})
	}
}

// TestAttemptAllocsFlatInII pins the pooled-attempt contract: with the
// state pool warm, an attempt allocates the same number of objects at any
// II, and only its result (a Failure: applu/loop3 fails at every II) and
// whatever the graph's recurrence analysis allocates (nothing once the
// graph has cached it), however far the attempt gets.
func TestAttemptAllocsFlatInII(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := specLoop(t, "applu/loop3")
	m := machine.MustClustered(4, 64, 1, 1)
	opts := &Options{Mode: ModeGP, Assign: partition.New(g, m, nil).Partition(g.MII(m)).Assign}
	allocsAt := func(ii int) float64 {
		return testing.AllocsPerRun(10, func() { TrySchedule(g, m, ii, opts) })
	}
	lo, hi := allocsAt(16), allocsAt(72)
	if lo != hi {
		t.Errorf("attempt allocates %v objects at II 16 but %v at II 72", lo, hi)
	}
	if fixed := testing.AllocsPerRun(10, func() { g.Recurrences() }) + 1; lo != fixed {
		t.Errorf("attempt allocates %v objects, want %v: the Failure plus Recurrences' %v", lo, fixed, fixed-1)
	}
}
