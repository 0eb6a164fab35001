package partition

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/workload"
)

// probeWeights is the §3.2.1 weighting with delay(e) measured on every data
// edge by a full execution-time estimate with the bus latency on e: the
// computation computeWeights' closed form replaces outside recurrences.
func probeWeights(g *ddg.Graph, m *machine.Config, ii int) []int64 {
	var t ddg.Times
	baseT, usedII := g.EstimateTimeInto(m, ii, nil, &t)
	g.LatestInto(m, nil, &t)
	slack := make([]int, len(g.Edges))
	maxsl := 0
	for i, e := range g.Edges {
		if e.Kind == ddg.Data {
			slack[i] = g.Slack(&t, i, nil)
			maxsl = max(maxsl, slack[i])
		}
	}
	w := make([]int64, len(g.Edges))
	probe := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		if e.Kind != ddg.Data {
			continue
		}
		probe[i] = m.LatBus
		delayT, _ := g.EstimateTimeInto(m, usedII, probe, &t)
		probe[i] = 0
		delay := max(delayT-baseT, 0)
		w[i] = delay*int64(maxsl+1) + int64(maxsl-slack[i]) + 1
	}
	return w
}

// TestClosedFormDelayMatchesProbe checks computeWeights against
// probeWeights on every data edge of SPECfp95 and DSP, on the six Table 1
// machines of Figures 2 and 3 and the three other sweep machines, at
// MII…MII+5.
func TestClosedFormDelayMatchesProbe(t *testing.T) {
	machines := []*machine.Config{
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(2, 64, 1, 1),
		machine.MustClustered(4, 32, 1, 1),
		machine.MustClustered(4, 64, 1, 1),
		machine.MustClustered(4, 32, 1, 2),
		machine.MustClustered(4, 64, 1, 2),
	}
	machines = append(machines, machine.SweepSet()[1:]...)
	corpus := append(workload.SPECfp95(), workload.DSP()...)
	closed, probed := 0, 0
	for _, m := range machines {
		for _, bm := range corpus {
			for _, l := range bm.Loops {
				g := l.G
				recOf := make([]int, g.N())
				for v := range recOf {
					recOf[v] = -1
				}
				for r, rec := range g.Recurrences() {
					for _, v := range rec.Nodes {
						recOf[v] = r
					}
				}
				p := New(g, m, nil)
				mii := g.MII(m)
				for ii := mii; ii <= mii+5; ii++ {
					p.computeWeights(ii)
					want := probeWeights(g, m, ii)
					for i, e := range g.Edges {
						if e.Kind != ddg.Data {
							continue
						}
						if recOf[e.From] < 0 || recOf[e.From] != recOf[e.To] {
							closed++
						} else {
							probed++
						}
						if p.weights[i] != want[i] {
							t.Fatalf("%s on %s at II %d: edge %d (%d→%d) weight %d, probe gives %d",
								g.Name, m.Name, ii, i, e.From, e.To, p.weights[i], want[i])
						}
					}
				}
			}
		}
	}
	if closed == 0 || probed == 0 {
		t.Fatalf("closed form on %d edge checks and probes on %d: both paths must run", closed, probed)
	}
	t.Logf("%d edge checks by the closed form, %d by the probe (%.1f%% closed)",
		closed, probed, 100*float64(closed)/float64(closed+probed))
}
