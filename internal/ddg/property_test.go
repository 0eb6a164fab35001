package ddg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/machine"
)

// genGraph builds a random valid loop body from a seed.
func genGraph(seed int64, maxN int) *Graph {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(maxN)
	g := New("prop", 1+r.Intn(300))
	ops := []isa.OpClass{isa.IntALU, isa.IntMul, isa.FPAdd, isa.FPMul, isa.FPDiv, isa.Load}
	for i := 0; i < n; i++ {
		g.AddNode(ops[r.Intn(len(ops))], "")
	}
	for i := 1; i < n; i++ {
		from := r.Intn(i)
		g.AddEdge(Edge{From: from, To: i, Lat: isa.DefaultLatency(g.Nodes[from].Op), Kind: Data})
	}
	for k := 0; k < r.Intn(4); k++ {
		to := r.Intn(n - 1)
		from := to + 1 + r.Intn(n-to-1)
		g.AddEdge(Edge{From: from, To: to, Lat: isa.DefaultLatency(g.Nodes[from].Op), Dist: 1 + r.Intn(3), Kind: Data})
	}
	return g
}

// Property: feasibility is monotone in II.
func TestPropFeasibilityMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := genGraph(seed, 20)
		rec := g.RecMII(nil)
		return !g.FeasibleII(rec-1, nil) || rec == 1
	}
	g2 := func(seed int64) bool {
		g := genGraph(seed, 20)
		rec := g.RecMII(nil)
		return g.FeasibleII(rec, nil) && g.FeasibleII(rec+1, nil) && g.FeasibleII(rec+7, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(g2, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: extra latency never lowers RecMII.
func TestPropRecMIIMonotoneInLatency(t *testing.T) {
	f := func(seed int64, which uint8, add uint8) bool {
		g := genGraph(seed, 16)
		base := g.RecMII(nil)
		extra := make([]int, len(g.Edges))
		extra[int(which)%len(g.Edges)] = int(add % 8)
		return g.RecMII(extra) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: earliest ≤ latest for every node, slack ≥ 0 for every edge, and
// every edge constraint holds under the earliest times.
func TestPropStartTimesConsistent(t *testing.T) {
	m := machine.NewUnified(64)
	f := func(seed int64, iiBump uint8) bool {
		g := genGraph(seed, 24)
		ii := g.RecMII(nil) + int(iiBump%5)
		times, ok := g.StartTimes(m, ii, nil)
		if !ok {
			return false
		}
		for v := range g.Nodes {
			if times.Earliest[v] > times.Latest[v] {
				return false
			}
		}
		for i, e := range g.Edges {
			if g.Slack(times, i, nil) < 0 {
				return false
			}
			if times.Earliest[e.To]+ii*e.Dist < times.Earliest[e.From]+e.Lat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: EstimateTime is consistent with its parts and monotone in the
// trip count.
func TestPropEstimateTimeStructure(t *testing.T) {
	m := machine.NewUnified(64)
	f := func(seed int64) bool {
		g := genGraph(seed, 20)
		ii := g.RecMII(nil)
		cyc, used := g.EstimateTime(m, ii, nil)
		if used < ii {
			return false
		}
		times, ok := g.StartTimes(m, used, nil)
		if !ok {
			return false
		}
		return cyc == int64(g.Niter-1)*int64(used)+int64(times.SL)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the MII never exceeds an achievable schedule bound and is
// positive; SCC decomposition covers each node exactly once.
func TestPropSCCPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := genGraph(seed, 24)
		seen := make([]int, g.N())
		for _, comp := range g.SCCs() {
			for _, v := range comp {
				seen[v]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
