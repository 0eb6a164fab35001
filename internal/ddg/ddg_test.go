package ddg

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
)

// chain builds a linear chain of n IntALU ops with unit-latency deps.
func chain(n, niter int) *Graph {
	g := New("chain", niter)
	for i := 0; i < n; i++ {
		g.AddNode(isa.IntALU, "")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{From: i, To: i + 1, Lat: 1, Dist: 0, Kind: Data})
	}
	return g
}

// selfRec builds a single-node recurrence: v depends on itself with the
// given latency and distance.
func selfRec(lat, dist, niter int) *Graph {
	g := New("rec", niter)
	v := g.AddNode(isa.IntALU, "")
	g.AddEdge(Edge{From: v, To: v, Lat: lat, Dist: dist, Kind: Data})
	return g
}

func TestValidateOK(t *testing.T) {
	g := chain(4, 10)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("badTrip", func(t *testing.T) {
		g := chain(2, 0)
		if g.Validate() == nil {
			t.Error("trip count 0 validated")
		}
	})
	t.Run("danglingEdge", func(t *testing.T) {
		g := chain(2, 5)
		g.AddEdge(Edge{From: 0, To: 7, Lat: 1})
		if g.Validate() == nil {
			t.Error("edge to missing node validated")
		}
	})
	t.Run("negativeLatency", func(t *testing.T) {
		g := chain(2, 5)
		g.AddEdge(Edge{From: 0, To: 1, Lat: -1})
		if g.Validate() == nil {
			t.Error("negative latency validated")
		}
	})
	t.Run("negativeDistance", func(t *testing.T) {
		g := chain(2, 5)
		g.AddEdge(Edge{From: 0, To: 1, Lat: 1, Dist: -1})
		if g.Validate() == nil {
			t.Error("negative distance validated")
		}
	})
	t.Run("dataFromStore", func(t *testing.T) {
		g := New("s", 5)
		s := g.AddNode(isa.Store, "")
		v := g.AddNode(isa.IntALU, "")
		g.AddEdge(Edge{From: s, To: v, Lat: 1, Kind: Data})
		if g.Validate() == nil {
			t.Error("data edge from store validated")
		}
	})
	t.Run("dist0SelfLoop", func(t *testing.T) {
		g := selfRec(1, 0, 5)
		if g.Validate() == nil {
			t.Error("zero-distance self loop validated")
		}
	})
	t.Run("dist0Cycle", func(t *testing.T) {
		g := chain(3, 5)
		g.AddEdge(Edge{From: 2, To: 0, Lat: 1, Dist: 0})
		if g.Validate() == nil {
			t.Error("zero-distance cycle validated")
		}
	})
	t.Run("memEdgeFromStoreOK", func(t *testing.T) {
		g := New("s", 5)
		s := g.AddNode(isa.Store, "")
		l := g.AddNode(isa.Load, "")
		g.AddEdge(Edge{From: s, To: l, Lat: 1, Kind: Mem})
		if err := g.Validate(); err != nil {
			t.Errorf("mem edge from store rejected: %v", err)
		}
	})
}

func TestResMII(t *testing.T) {
	m := machine.NewUnified(64) // 4 units of each kind
	g := New("res", 10)
	for i := 0; i < 9; i++ {
		g.AddNode(isa.Load, "")
	}
	// 9 loads on 4 memory units → ceil(9/4) = 3.
	if got := g.ResMII(m); got != 3 {
		t.Errorf("ResMII = %d, want 3", got)
	}
	// On a 4-cluster machine the total units are the same.
	c4 := machine.MustClustered(4, 64, 1, 1)
	if got := g.ResMII(c4); got != 3 {
		t.Errorf("4-cluster ResMII = %d, want 3", got)
	}
}

func TestResMIIEmptyKinds(t *testing.T) {
	m := machine.NewUnified(64)
	g := chain(3, 10) // 3 int ops, 4 int units → 1
	if got := g.ResMII(m); got != 1 {
		t.Errorf("ResMII = %d, want 1", got)
	}
}

func TestRecMIISelfLoop(t *testing.T) {
	// lat 4 dist 2 → RecMII = ceil(4/2) = 2; lat 5 dist 2 → 3.
	cases := []struct {
		lat, dist, want int
	}{
		{4, 2, 2}, {5, 2, 3}, {1, 1, 1}, {3, 1, 3}, {7, 3, 3},
	}
	for _, tc := range cases {
		g := selfRec(tc.lat, tc.dist, 10)
		if got := g.RecMII(nil); got != tc.want {
			t.Errorf("RecMII(lat=%d,dist=%d) = %d, want %d", tc.lat, tc.dist, got, tc.want)
		}
	}
}

func TestRecMIITwoNodeCycle(t *testing.T) {
	g := New("cyc", 10)
	a := g.AddNode(isa.FPAdd, "")
	b := g.AddNode(isa.FPMul, "")
	g.AddEdge(Edge{From: a, To: b, Lat: 3, Dist: 0, Kind: Data})
	g.AddEdge(Edge{From: b, To: a, Lat: 4, Dist: 1, Kind: Data})
	// Cycle latency 7 over distance 1 → RecMII 7.
	if got := g.RecMII(nil); got != 7 {
		t.Errorf("RecMII = %d, want 7", got)
	}
	if g.FeasibleII(6, nil) {
		t.Error("FeasibleII(6) = true below RecMII")
	}
	if !g.FeasibleII(7, nil) {
		t.Error("FeasibleII(7) = false at RecMII")
	}
}

func TestRecMIIAcyclic(t *testing.T) {
	g := chain(5, 10)
	if got := g.RecMII(nil); got != 1 {
		t.Errorf("RecMII of acyclic graph = %d, want 1", got)
	}
}

func TestRecMIIWithExtraLatency(t *testing.T) {
	g := New("cyc", 10)
	a := g.AddNode(isa.IntALU, "")
	b := g.AddNode(isa.IntALU, "")
	g.AddEdge(Edge{From: a, To: b, Lat: 1, Dist: 0, Kind: Data}) // edge 0
	g.AddEdge(Edge{From: b, To: a, Lat: 1, Dist: 1, Kind: Data}) // edge 1
	if got := g.RecMII(nil); got != 2 {
		t.Fatalf("base RecMII = %d, want 2", got)
	}
	// Adding 2 cycles of bus latency to edge 0 raises the cycle to 4.
	if got := g.RecMII([]int{2}); got != 4 {
		t.Errorf("RecMII with extra = %d, want 4", got)
	}
}

func TestStartTimesChain(t *testing.T) {
	m := machine.NewUnified(32)
	g := chain(4, 10)
	tt, ok := g.StartTimes(m, 1, nil)
	if !ok {
		t.Fatal("StartTimes infeasible")
	}
	want := []int{0, 1, 2, 3}
	for v, w := range want {
		if tt.Earliest[v] != w {
			t.Errorf("Earliest[%d] = %d, want %d", v, tt.Earliest[v], w)
		}
		if tt.Latest[v] != w {
			t.Errorf("Latest[%d] = %d, want %d (chain is critical)", v, tt.Latest[v], w)
		}
	}
	if tt.SL != 4 {
		t.Errorf("SL = %d, want 4", tt.SL)
	}
}

func TestStartTimesMobility(t *testing.T) {
	m := machine.NewUnified(32)
	// Diamond: a → b (lat 3, FPAdd), a → c (lat 1), b → d, c → d.
	g := New("diamond", 10)
	a := g.AddNode(isa.FPAdd, "a")
	b := g.AddNode(isa.FPAdd, "b")
	c := g.AddNode(isa.IntALU, "c")
	d := g.AddNode(isa.IntALU, "d")
	g.AddEdge(Edge{From: a, To: b, Lat: 3, Kind: Data})
	g.AddEdge(Edge{From: a, To: c, Lat: 3, Kind: Data})
	g.AddEdge(Edge{From: b, To: d, Lat: 3, Kind: Data})
	g.AddEdge(Edge{From: c, To: d, Lat: 1, Kind: Data})
	tt, ok := g.StartTimes(m, 1, nil)
	if !ok {
		t.Fatal("infeasible")
	}
	// Critical path a(3) b(3) d(1): SL = 7. c earliest 3, latest 5.
	if tt.SL != 7 {
		t.Fatalf("SL = %d, want 7", tt.SL)
	}
	if tt.Earliest[c] != 3 || tt.Latest[c] != 5 {
		t.Errorf("c window = [%d,%d], want [3,5]", tt.Earliest[c], tt.Latest[c])
	}
	// Slack of the short edge c→d: latest(d) - earliest(c) - lat = 6-3-1 = 2.
	if got := g.Slack(tt, 3, nil); got != 2 {
		t.Errorf("Slack(c→d) = %d, want 2", got)
	}
	// Critical edges have zero slack.
	if got := g.Slack(tt, 0, nil); got != 0 {
		t.Errorf("Slack(a→b) = %d, want 0", got)
	}
	crit := g.CriticalOps(tt)
	if len(crit) != 3 {
		t.Errorf("CriticalOps = %v, want {a,b,d}", crit)
	}
}

func TestSlackNonNegativeWithExtra(t *testing.T) {
	m := machine.NewUnified(32)
	g := chain(3, 10)
	tt, _ := g.StartTimes(m, 1, nil)
	// Extra latency beyond slack must clamp at 0 rather than go negative.
	if got := g.Slack(tt, 0, []int{100}); got != 0 {
		t.Errorf("Slack with huge extra = %d, want 0", got)
	}
}

func TestEstimateTime(t *testing.T) {
	m := machine.NewUnified(32)
	g := chain(4, 100)
	cyc, used := g.EstimateTime(m, 1, nil)
	if used != 1 {
		t.Errorf("usedII = %d, want 1", used)
	}
	// (100-1)*1 + 4 = 103.
	if cyc != 103 {
		t.Errorf("cycles = %d, want 103", cyc)
	}
}

func TestEstimateTimeRaisesII(t *testing.T) {
	m := machine.NewUnified(32)
	g := New("cyc", 50)
	a := g.AddNode(isa.IntALU, "")
	b := g.AddNode(isa.IntALU, "")
	g.AddEdge(Edge{From: a, To: b, Lat: 1, Dist: 0, Kind: Data})
	g.AddEdge(Edge{From: b, To: a, Lat: 1, Dist: 1, Kind: Data})
	// At requested II=1 the recurrence (total lat 2, dist 1) is infeasible;
	// EstimateTime must raise to II=2.
	cyc, used := g.EstimateTime(m, 1, nil)
	if used != 2 {
		t.Errorf("usedII = %d, want 2", used)
	}
	wantSL := 2 // a at 0, b at 1, b finishes at 2
	want := int64(49)*2 + int64(wantSL)
	if cyc != want {
		t.Errorf("cycles = %d, want %d", cyc, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := chain(3, 10)
	c := g.Clone()
	c.AddNode(isa.Load, "")
	c.AddEdge(Edge{From: 0, To: 3, Lat: 2, Kind: Data})
	if g.N() != 3 || len(g.Edges) != 2 {
		t.Errorf("mutating clone changed original: n=%d edges=%d", g.N(), len(g.Edges))
	}
	if c.N() != 4 || len(c.Edges) != 3 {
		t.Errorf("clone wrong shape: n=%d edges=%d", c.N(), len(c.Edges))
	}
}

func TestAdjacency(t *testing.T) {
	g := chain(3, 10)
	if got := g.Out(0); len(got) != 1 || g.Edges[got[0]].To != 1 {
		t.Errorf("Out(0) = %v", got)
	}
	if got := g.In(2); len(got) != 1 || g.Edges[got[0]].From != 1 {
		t.Errorf("In(2) = %v", got)
	}
	// Adjacency must refresh after mutation.
	g.AddEdge(Edge{From: 0, To: 2, Lat: 1})
	if got := g.Out(0); len(got) != 2 {
		t.Errorf("Out(0) after AddEdge = %v, want 2 edges", got)
	}
}

func TestOpCounts(t *testing.T) {
	g := New("mix", 5)
	g.AddNode(isa.Load, "")
	g.AddNode(isa.Store, "")
	g.AddNode(isa.FPMul, "")
	g.AddNode(isa.IntALU, "")
	c := g.OpCounts()
	if c[isa.MemUnit] != 2 || c[isa.FPUnit] != 1 || c[isa.IntUnit] != 1 {
		t.Errorf("OpCounts = %v", c)
	}
}

func TestMIIMaxOfBoth(t *testing.T) {
	m := machine.NewUnified(64)
	// Recurrence-bound: RecMII 5 > ResMII 1.
	g := selfRec(5, 1, 10)
	if got := g.MII(m); got != 5 {
		t.Errorf("MII = %d, want 5", got)
	}
	// Resource-bound: 9 loads, RecMII 1.
	h := New("res", 10)
	for i := 0; i < 9; i++ {
		h.AddNode(isa.Load, "")
	}
	if got := h.MII(m); got != 3 {
		t.Errorf("MII = %d, want 3", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	m := machine.NewUnified(32)
	g := New("empty", 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.RecMII(nil); got != 1 {
		t.Errorf("RecMII = %d, want 1", got)
	}
	tt, ok := g.StartTimes(m, 1, nil)
	if !ok || tt.SL != 0 {
		t.Errorf("StartTimes: ok=%v SL=%d", ok, tt.SL)
	}
}

func TestSCCs(t *testing.T) {
	g := New("scc", 10)
	a := g.AddNode(isa.IntALU, "")
	b := g.AddNode(isa.IntALU, "")
	c := g.AddNode(isa.IntALU, "")
	d := g.AddNode(isa.IntALU, "")
	// a↔b cycle (through dist-1 back edge), c→d chain.
	g.AddEdge(Edge{From: a, To: b, Lat: 1, Dist: 0})
	g.AddEdge(Edge{From: b, To: a, Lat: 1, Dist: 1})
	g.AddEdge(Edge{From: b, To: c, Lat: 1, Dist: 0})
	g.AddEdge(Edge{From: c, To: d, Lat: 1, Dist: 0})
	comps := g.SCCs()
	if len(comps) != 3 {
		t.Fatalf("got %d SCCs, want 3: %v", len(comps), comps)
	}
	sizes := map[int]int{}
	for _, comp := range comps {
		sizes[len(comp)]++
	}
	if sizes[2] != 1 || sizes[1] != 2 {
		t.Errorf("SCC sizes wrong: %v", comps)
	}
}

func TestRecurrences(t *testing.T) {
	g := New("recs", 10)
	a := g.AddNode(isa.FPAdd, "")
	b := g.AddNode(isa.FPAdd, "")
	c := g.AddNode(isa.IntALU, "")
	// Recurrence 1: a→b lat 3, b→a lat 3 dist 1 → RecMII 6.
	g.AddEdge(Edge{From: a, To: b, Lat: 3, Dist: 0, Kind: Data})
	g.AddEdge(Edge{From: b, To: a, Lat: 3, Dist: 1, Kind: Data})
	// Recurrence 2: c self-loop lat 2 dist 1 → RecMII 2.
	g.AddEdge(Edge{From: c, To: c, Lat: 2, Dist: 1, Kind: Data})
	recs := g.Recurrences()
	if len(recs) != 2 {
		t.Fatalf("got %d recurrences, want 2", len(recs))
	}
	if recs[0].RecMII != 6 || recs[1].RecMII != 2 {
		t.Errorf("RecMIIs = %d,%d; want 6,2 (sorted descending)", recs[0].RecMII, recs[1].RecMII)
	}
	if len(recs[0].Nodes) != 2 || len(recs[1].Nodes) != 1 {
		t.Errorf("recurrence sizes = %d,%d; want 2,1", len(recs[0].Nodes), len(recs[1].Nodes))
	}
}

func TestRecurrencesNoneInDAG(t *testing.T) {
	g := chain(5, 10)
	if recs := g.Recurrences(); len(recs) != 0 {
		t.Errorf("DAG has %d recurrences, want 0", len(recs))
	}
}

func TestAddDepUsesProducerLatency(t *testing.T) {
	g := New("dep", 5)
	a := g.AddNode(isa.FPMul, "") // default latency 4
	b := g.AddNode(isa.IntALU, "")
	g.AddDep(a, b, 0)
	if got := g.Edges[0].Lat; got != 4 {
		t.Errorf("AddDep latency = %d, want 4", got)
	}
}

// TestFreezeAllowsConcurrentReaders pins Freeze's contract: after a
// Freeze, read-only analyses on the same graph, including the cached
// recurrences and the plan-driven start times, are safe from multiple
// goroutines (run under -race to enforce it).
func TestFreezeAllowsConcurrentReaders(t *testing.T) {
	g := New("conc", 100)
	a := g.AddNode(isa.Load, "")
	b := g.AddNode(isa.FPAdd, "")
	c := g.AddNode(isa.Store, "")
	g.AddDep(a, b, 0)
	g.AddDep(b, c, 0)
	g.AddDep(b, b, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	m := machine.NewUnified(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = g.Out(a)
				_ = g.In(c)
				_ = g.RecMII(nil)
				_ = g.SCCs()
				_ = g.Recurrences()
				_, _ = g.StartTimes(m, 2, nil)
			}
		}()
	}
	wg.Wait()
}

func TestResMIIHeterogeneousMachine(t *testing.T) {
	// Six FP ops on a machine whose FP units are unevenly split (1 + 3):
	// the machine-wide bound is ceil(6/4) = 2, not 6/1 or 6/3.
	m := machine.MustHetero("het", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{3, 1, 2}, Regs: 16},
		{Units: [isa.NumUnitKinds]int{1, 3, 2}, Regs: 16},
	}, machine.SharedBus, 1, 1, false)
	g := New("fp6", 10)
	for i := 0; i < 6; i++ {
		g.AddNode(isa.FPAdd, "")
	}
	if got := g.ResMII(m); got != 2 {
		t.Errorf("ResMII = %d, want 2 (summed per-cluster FP units)", got)
	}
	// A kind with units in only one cluster bounds at that cluster's count.
	noInt1 := machine.MustHetero("het2", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{2, 1, 1}, Regs: 16},
		{Units: [isa.NumUnitKinds]int{0, 3, 3}, Regs: 16},
	}, machine.SharedBus, 1, 1, false)
	gi := New("int4", 10)
	for i := 0; i < 4; i++ {
		gi.AddNode(isa.IntALU, "")
	}
	if got := gi.ResMII(noInt1); got != 2 {
		t.Errorf("ResMII = %d, want 2 (4 ops / 2 INT units, all in cluster 0)", got)
	}
}
