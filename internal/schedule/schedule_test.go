package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
)

func chain(n, niter int) *ddg.Graph {
	g := ddg.New("chain", niter)
	for i := 0; i < n; i++ {
		g.AddNode(isa.IntALU, "")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ddg.Edge{From: i, To: i + 1, Lat: 1, Kind: ddg.Data})
	}
	return g
}

func zeros(n int) []int { return make([]int, n) }

func mustSchedule(t *testing.T, g *ddg.Graph, m *machine.Config, ii int, opts *Options) *Schedule {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s, fail := TrySchedule(g, m, ii, opts)
	if fail != nil {
		t.Fatalf("TrySchedule(II=%d): %v", ii, fail)
	}
	if err := Verify(g, m, s); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	return s
}

func TestChainUnified(t *testing.T) {
	// 4 int ops on 4 integer units: II = 1, SL = chain length.
	g := chain(4, 100)
	m := machine.NewUnified(32)
	s := mustSchedule(t, g, m, g.MII(m), &Options{Mode: ModeGP, Assign: zeros(4)})
	if s.II != 1 {
		t.Errorf("II = %d, want 1", s.II)
	}
	if s.SL != 4 {
		t.Errorf("SL = %d, want 4 (dependence-bound chain)", s.SL)
	}
	if len(s.Comms) != 0 {
		t.Errorf("unified schedule has %d comms", len(s.Comms))
	}
	if got := s.Cycles(100); got != 99+4 {
		t.Errorf("Cycles(100) = %d, want 103", got)
	}
}

func TestResourceBoundII(t *testing.T) {
	// 9 independent loads on a unified machine (4 memory units): II = 3.
	g := ddg.New("loads", 50)
	for i := 0; i < 9; i++ {
		g.AddNode(isa.Load, "")
	}
	m := machine.NewUnified(64)
	s := mustSchedule(t, g, m, g.MII(m), &Options{Mode: ModeURACAM})
	if s.II != 3 {
		t.Errorf("II = %d, want 3", s.II)
	}
}

func TestCrossClusterCommScheduled(t *testing.T) {
	// A producer in cluster 0 feeding a consumer forced into cluster 1:
	// the schedule must contain exactly one bus transfer and respect the
	// bus latency.
	g := ddg.New("cross", 50)
	a := g.AddNode(isa.IntALU, "")
	b := g.AddNode(isa.IntALU, "")
	g.AddEdge(ddg.Edge{From: a, To: b, Lat: 1, Kind: ddg.Data})
	m := machine.MustClustered(2, 32, 1, 2)
	s := mustSchedule(t, g, m, 3, &Options{Mode: ModeFixed, Assign: []int{0, 1}})
	if len(s.Comms) != 1 {
		t.Fatalf("got %d comms, want 1", len(s.Comms))
	}
	c := s.Comms[0]
	if c.Producer != a {
		t.Errorf("comm producer = %d, want %d", c.Producer, a)
	}
	def := s.Time[a] + 1
	if c.Start < def {
		t.Errorf("comm departs at %d before value ready at %d", c.Start, def)
	}
	if s.Time[b] < c.Start+2 {
		t.Errorf("consumer at %d before transfer arrives at %d", s.Time[b], c.Start+2)
	}
}

func TestBroadcastSingleTransfer(t *testing.T) {
	// One producer, three consumers in the other cluster: broadcast bus →
	// one transfer.
	g := ddg.New("bcast", 50)
	p := g.AddNode(isa.IntALU, "")
	assign := []int{0}
	for i := 0; i < 3; i++ {
		c := g.AddNode(isa.IntALU, "")
		g.AddEdge(ddg.Edge{From: p, To: c, Lat: 1, Kind: ddg.Data})
		assign = append(assign, 1)
	}
	m := machine.MustClustered(2, 32, 1, 1)
	s := mustSchedule(t, g, m, 2, &Options{Mode: ModeFixed, Assign: assign})
	if len(s.Comms) != 1 {
		t.Errorf("broadcast used %d transfers, want 1", len(s.Comms))
	}
}

func TestFixedModeRespectsAssignment(t *testing.T) {
	g := chain(8, 50)
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1}
	m := machine.MustClustered(2, 32, 1, 1)
	s := mustSchedule(t, g, m, 2, &Options{Mode: ModeFixed, Assign: assign})
	for v, c := range s.Cluster {
		if c != assign[v] {
			t.Errorf("node %d in cluster %d, assigned %d", v, c, assign[v])
		}
	}
	if len(s.Comms) != 1 {
		t.Errorf("chain split once: %d comms, want 1", len(s.Comms))
	}
}

func TestGPModeMayOverride(t *testing.T) {
	// Assign everything to cluster 0 but make cluster 0's integer unit too
	// narrow at II=1: GP mode must move overflow nodes to cluster 1 instead
	// of failing (1 INT unit per cluster on the 4-cluster machine).
	g := ddg.New("wide", 50)
	for i := 0; i < 4; i++ {
		g.AddNode(isa.IntALU, "")
	}
	m := machine.MustClustered(4, 64, 1, 1)
	s, fail := TrySchedule(g, m, 1, &Options{Mode: ModeGP, Assign: zeros(4)})
	if fail != nil {
		t.Fatalf("GP mode failed: %v", fail)
	}
	if err := Verify(g, m, s); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range s.Cluster {
		seen[c] = true
	}
	if len(seen) < 4 {
		t.Errorf("GP mode did not spread 4 int ops over 4 single-issue clusters: %v", s.Cluster)
	}
	// Fixed mode must fail instead.
	if _, fail := TrySchedule(g, m, 1, &Options{Mode: ModeFixed, Assign: zeros(4)}); fail == nil {
		t.Error("Fixed mode scheduled 4 int ops on a 1-unit cluster at II=1")
	}
}

func TestRecurrenceScheduledAtRecMII(t *testing.T) {
	g := ddg.New("rec", 50)
	a := g.AddNode(isa.FPAdd, "")
	b := g.AddNode(isa.FPAdd, "")
	g.AddEdge(ddg.Edge{From: a, To: b, Lat: 3, Kind: ddg.Data})
	g.AddEdge(ddg.Edge{From: b, To: a, Lat: 3, Dist: 1, Kind: ddg.Data})
	m := machine.NewUnified(32)
	mii := g.MII(m)
	if mii != 6 {
		t.Fatalf("MII = %d, want 6", mii)
	}
	s := mustSchedule(t, g, m, mii, &Options{Mode: ModeURACAM})
	if s.II != 6 {
		t.Errorf("II = %d, want 6", s.II)
	}
}

func TestRegisterPressureRespected(t *testing.T) {
	// Many long-lived values on a tiny register file: every cluster's
	// MaxLive must stay within the file (spilling if needed).
	g := ddg.New("press", 50)
	prod := make([]int, 6)
	for i := range prod {
		prod[i] = g.AddNode(isa.Load, "")
	}
	sink := g.AddNode(isa.IntALU, "")
	for _, p := range prod {
		g.AddEdge(ddg.Edge{From: p, To: sink, Lat: 2, Kind: ddg.Data})
	}
	m := machine.MustClustered(2, 32, 1, 1)
	s := mustSchedule(t, g, m, 4, &Options{Mode: ModeURACAM})
	for c, ml := range s.MaxLive {
		if ml > m.RegsPerCluster {
			t.Errorf("cluster %d MaxLive %d > %d", c, ml, m.RegsPerCluster)
		}
	}
}

func TestFailureReportedWhenImpossible(t *testing.T) {
	// 5 int ops in one cluster at II=1 on a 2-wide cluster is impossible.
	g := ddg.New("jam", 50)
	for i := 0; i < 5; i++ {
		g.AddNode(isa.IntALU, "")
	}
	m := machine.MustClustered(2, 32, 1, 1)
	_, fail := TrySchedule(g, m, 1, &Options{Mode: ModeFixed, Assign: zeros(5)})
	if fail == nil {
		t.Fatal("impossible schedule succeeded")
	}
	if fail.Reason != FailFU {
		t.Errorf("failure reason = %v, want fu", fail.Reason)
	}
	if fail.Error() == "" {
		t.Error("empty failure message")
	}
}

func TestOrderProperties(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m := machine.NewUnified(64)
	for trial := 0; trial < 40; trial++ {
		g := randomLoop(r, 3+r.Intn(30))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		order := Order(g, m, g.MII(m))
		if len(order) != g.N() {
			t.Fatalf("order has %d nodes, want %d", len(order), g.N())
		}
		seen := make(map[int]bool)
		for _, v := range order {
			if seen[v] {
				t.Fatalf("node %d ordered twice", v)
			}
			seen[v] = true
		}
	}
}

func TestOrderNeighborProperty(t *testing.T) {
	// SMS locality invariant: every ordered node except the seed of each
	// group has at least one neighbor among the earlier-ordered nodes, so
	// the scheduler almost always places nodes with scheduled neighbors on
	// one side (recurrence closers and inter-recurrence path nodes are the
	// unavoidable exceptions, and they still have earlier neighbors).
	r := rand.New(rand.NewSource(23))
	m := machine.NewUnified(64)
	for trial := 0; trial < 40; trial++ {
		g := randomLoop(r, 3+r.Intn(25))
		order := Order(g, m, g.MII(m))
		_, groups := g.SMSGroups()
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		seeds := 0
		for i, v := range order {
			hasEarlier := false
			for _, ei := range g.In(v) {
				if e := g.Edges[ei]; e.From != v && pos[e.From] < i {
					hasEarlier = true
				}
			}
			for _, ei := range g.Out(v) {
				if e := g.Edges[ei]; e.To != v && pos[e.To] < i {
					hasEarlier = true
				}
			}
			if !hasEarlier {
				seeds++
			}
		}
		if seeds > len(groups) {
			t.Fatalf("trial %d: %d seed nodes without earlier neighbors, only %d groups",
				trial, seeds, len(groups))
		}
	}
}

// randomLoop builds a random loop body mixing op classes with a few
// loop-carried edges.
func randomLoop(r *rand.Rand, n int) *ddg.Graph {
	g := ddg.New("rand", 20+r.Intn(200))
	ops := []isa.OpClass{isa.IntALU, isa.IntMul, isa.FPAdd, isa.FPMul, isa.Load, isa.Load}
	for i := 0; i < n; i++ {
		g.AddNode(ops[r.Intn(len(ops))], "")
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+r.Intn(2); k++ {
			from := r.Intn(i)
			g.AddEdge(ddg.Edge{From: from, To: i, Lat: isa.DefaultLatency(g.Nodes[from].Op), Kind: ddg.Data})
		}
	}
	for k := 0; k < r.Intn(3) && n > 3; k++ {
		to := r.Intn(n - 1)
		from := to + 1 + r.Intn(n-to-1)
		g.AddEdge(ddg.Edge{From: from, To: to, Lat: isa.DefaultLatency(g.Nodes[from].Op), Dist: 1 + r.Intn(2), Kind: ddg.Data})
	}
	return g
}

// TestRandomLoopsScheduleAndValidate drives all three modes over random
// loops with escalating II until success, validating every result.
func TestRandomLoopsScheduleAndValidate(t *testing.T) {
	debugChecks = true // per-placement invariant checking
	defer func() { debugChecks = false }()
	r := rand.New(rand.NewSource(29))
	machines := []*machine.Config{
		machine.NewUnified(32),
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(2, 64, 1, 2),
		machine.MustClustered(4, 64, 1, 1),
	}
	for trial := 0; trial < 40; trial++ {
		g := randomLoop(r, 4+r.Intn(24))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		m := machines[trial%len(machines)]
		for _, mode := range []Mode{ModeURACAM, ModeGP, ModeFixed} {
			opts := &Options{Mode: mode}
			if mode != ModeURACAM {
				opts.Assign = make([]int, g.N())
				for v := range opts.Assign {
					opts.Assign[v] = v % m.Clusters
				}
			}
			ii := g.MII(m)
			var s *Schedule
			for ; ii < g.MII(m)+64; ii++ {
				var fail *Failure
				s, fail = TrySchedule(g, m, ii, opts)
				if fail == nil {
					break
				}
				s = nil
			}
			if s == nil {
				if mode == ModeFixed {
					continue // a rigid arbitrary assignment may be unschedulable
				}
				t.Fatalf("trial %d mode %v: no II ≤ MII+64 schedules", trial, mode)
			}
			if err := Verify(g, m, s); err != nil {
				t.Fatalf("trial %d mode %v machine %v: %v\ntimes=%v\nclusters=%v",
					trial, mode, m, err, s.Time, s.Cluster)
			}
		}
	}
}

func TestListScheduleBasics(t *testing.T) {
	g := chain(5, 50)
	m := machine.MustClustered(2, 32, 1, 1)
	s := ListSchedule(g, m, nil)
	if s.II != s.SL {
		t.Errorf("list schedule II %d != SL %d", s.II, s.SL)
	}
	// Dependences hold.
	for _, e := range g.Edges {
		if e.Dist > 0 {
			continue
		}
		lat := e.Lat
		if e.Kind == ddg.Data && s.Cluster[e.From] != s.Cluster[e.To] {
			lat += m.LatBus
		}
		if s.Time[e.To] < s.Time[e.From]+lat {
			t.Errorf("edge %d→%d violated: %d < %d+%d", e.From, e.To, s.Time[e.To], s.Time[e.From], lat)
		}
	}
}

func TestListScheduleRespectsAssign(t *testing.T) {
	g := chain(4, 10)
	m := machine.MustClustered(2, 32, 1, 1)
	assign := []int{0, 1, 0, 1}
	s := ListSchedule(g, m, assign)
	for v, c := range s.Cluster {
		if c != assign[v] {
			t.Errorf("node %d in cluster %d, want %d", v, c, assign[v])
		}
	}
}

func TestListScheduleEmpty(t *testing.T) {
	g := ddg.New("empty", 1)
	m := machine.NewUnified(32)
	s := ListSchedule(g, m, nil)
	if s.II < 1 || s.SL < 1 {
		t.Errorf("empty list schedule II=%d SL=%d", s.II, s.SL)
	}
}

func TestStagesAndCycles(t *testing.T) {
	s := &Schedule{II: 3, SL: 7}
	if s.Stages() != 3 {
		t.Errorf("Stages = %d, want 3", s.Stages())
	}
	if s.Cycles(10) != 9*3+7 {
		t.Errorf("Cycles(10) = %d, want 34", s.Cycles(10))
	}
}

func TestMeritComparison(t *testing.T) {
	// Clear difference beyond threshold: lower max component wins.
	a := merit{0.9, 0.1}
	b := merit{0.5, 0.5}
	if !betterMerit(b, a) {
		t.Error("b (max 0.5) should beat a (max 0.9)")
	}
	if betterMerit(a, b) {
		t.Error("a should not beat b")
	}
	// All components within threshold: smaller sum wins.
	c := merit{0.50, 0.10}
	d := merit{0.52, 0.30}
	if !betterMerit(c, d) {
		t.Error("c (sum 0.6) should beat d (sum 0.82) via sum rule")
	}
	// Equal: not better either way.
	if betterMerit(a, a) {
		t.Error("a vs a: strict better must be false")
	}
}

func TestModeString(t *testing.T) {
	if ModeGP.String() != "GP" || ModeFixed.String() != "FixedPartition" || ModeURACAM.String() != "URACAM" {
		t.Error("mode names wrong")
	}
}
