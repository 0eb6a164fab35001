package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

func sampleLoop() *ddg.Graph {
	g := ddg.New("sample", 200)
	x := g.AddNode(isa.Load, "")
	m := g.AddNode(isa.FPMul, "")
	a := g.AddNode(isa.FPAdd, "")
	s := g.AddNode(isa.Store, "")
	g.AddDep(x, m, 0)
	g.AddDep(m, a, 0)
	g.AddDep(a, s, 0)
	g.AddDep(a, a, 1)
	return g
}

func TestScheduleLoopAllAlgorithms(t *testing.T) {
	g := sampleLoop()
	m := machine.MustClustered(2, 32, 1, 1)
	for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
		res, err := ScheduleLoop(g, m, &Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Schedule == nil {
			t.Fatalf("%v: nil schedule", alg)
		}
		if res.ListFallback {
			t.Errorf("%v: fell back to a list schedule", alg)
		}
		if err := schedule.Verify(g, m, res.Schedule); err != nil {
			t.Errorf("%v: invalid schedule: %v", alg, err)
		}
		if res.Schedule.II < res.MII {
			t.Errorf("%v: II %d below MII %d", alg, res.Schedule.II, res.MII)
		}
		if res.Attempts < 1 {
			t.Errorf("%v: no attempts recorded", alg)
		}
		if alg == URACAM && res.Partitions != 0 {
			t.Errorf("URACAM computed %d partitions", res.Partitions)
		}
		if alg != URACAM && res.Partitions < 1 {
			t.Errorf("%v: no partition computed", alg)
		}
		if res.IPC(g) <= 0 {
			t.Errorf("%v: IPC %v", alg, res.IPC(g))
		}
	}
}

func TestScheduleLoopUnified(t *testing.T) {
	g := sampleLoop()
	m := machine.NewUnified(64)
	res, err := ScheduleLoop(g, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IIBus != 0 {
		t.Errorf("unified IIBus = %d", res.IIBus)
	}
	if len(res.Schedule.Comms) != 0 {
		t.Errorf("unified schedule has comms")
	}
	// The recurrence a→a (FPAdd, lat 3, dist 1) bounds the II at 3.
	if res.Schedule.II != 3 {
		t.Errorf("II = %d, want 3 (RecMII)", res.Schedule.II)
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := ddg.New("bad", 0) // trip count 0
	g.AddNode(isa.IntALU, "")
	if _, err := ScheduleLoop(g, machine.NewUnified(32), nil); err == nil {
		t.Error("invalid graph scheduled")
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	g := sampleLoop()
	if _, err := ScheduleLoop(g, machine.NewUnified(32), &Options{Algorithm: Algorithm(9)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestListFallbackEngages pins the fallback on applu/loop3, the loop of
// the paper's evaluation whose II escalation costs the most: on the paper
// machine every scheme fails each II from the MII of 9 up to the length of
// its list schedule, stops there, and serves a Verify-clean list schedule.
func TestListFallbackEngages(t *testing.T) {
	g := specLoop("applu", 3).G
	m := machine.MustClustered(4, 64, 1, 1)
	for _, tc := range []struct {
		alg      Algorithm
		attempts int
	}{{GP, 19}, {FixedPartition, 19}, {URACAM, 20}} {
		res, err := ScheduleLoop(g, m, &Options{Algorithm: tc.alg})
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		if !res.ListFallback || !res.Schedule.List {
			t.Errorf("%v: no list fallback (II %d)", tc.alg, res.Schedule.II)
		}
		if res.Attempts != tc.attempts {
			t.Errorf("%v: %d attempts, want %d", tc.alg, res.Attempts, tc.attempts)
		}
		if err := schedule.Verify(g, m, res.Schedule); err != nil {
			t.Errorf("%v: fallback fails verification: %v", tc.alg, err)
		}
	}
}

func TestGPRepartitionsOnBusBound(t *testing.T) {
	// A graph whose natural partition needs many communications: IIbus
	// exceeds the MII, so a failed schedule should trigger repartitioning.
	r := rand.New(rand.NewSource(3))
	g := ddg.New("comm-heavy", 100)
	var producers []int
	for i := 0; i < 24; i++ {
		v := g.AddNode(isa.IntALU, "")
		for k := 0; k < 2 && len(producers) > 0; k++ {
			from := producers[r.Intn(len(producers))]
			g.AddDep(from, v, 0)
		}
		producers = append(producers, v)
	}
	m := machine.MustClustered(4, 64, 1, 2)
	res, err := ScheduleLoop(g, m, &Options{Algorithm: GP})
	if err != nil {
		t.Fatal(err)
	}
	if res.ListFallback {
		t.Error("fell back to a list schedule")
	}
	if err := schedule.Verify(g, m, res.Schedule); err != nil {
		t.Error(err)
	}
	t.Logf("II=%d attempts=%d partitions=%d IIbus=%d",
		res.Schedule.II, res.Attempts, res.Partitions, res.IIBus)
}

func TestFixedNeverRepartitions(t *testing.T) {
	g := sampleLoop()
	m := machine.MustClustered(4, 32, 1, 2)
	res, err := ScheduleLoop(g, m, &Options{Algorithm: FixedPartition})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 1 {
		t.Errorf("Fixed computed %d partitions, want exactly 1", res.Partitions)
	}
}

func TestAlgorithmString(t *testing.T) {
	if GP.String() != "GP" || FixedPartition.String() != "Fixed" || URACAM.String() != "URACAM" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("out-of-range algorithm name empty")
	}
}

func TestDeterministicResults(t *testing.T) {
	g := sampleLoop()
	m := machine.MustClustered(2, 32, 1, 1)
	a, err := ScheduleLoop(g, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleLoop(g, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.II != b.Schedule.II || a.Schedule.SL != b.Schedule.SL {
		t.Errorf("non-deterministic: II %d/%d SL %d/%d", a.Schedule.II, b.Schedule.II, a.Schedule.SL, b.Schedule.SL)
	}
	for v := range a.Schedule.Time {
		if a.Schedule.Time[v] != b.Schedule.Time[v] || a.Schedule.Cluster[v] != b.Schedule.Cluster[v] {
			t.Fatalf("placement differs at node %d", v)
		}
	}
}

func TestInputGraphNotMutated(t *testing.T) {
	g := sampleLoop()
	nodes, edges := len(g.Nodes), len(g.Edges)
	m := machine.MustClustered(2, 32, 1, 1)
	for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
		if _, err := ScheduleLoop(g, m, &Options{Algorithm: alg}); err != nil {
			t.Fatal(err)
		}
		if len(g.Nodes) != nodes || len(g.Edges) != edges {
			t.Fatalf("%v mutated the input graph", alg)
		}
	}
}

// TestScheduleLoopWarmAllocs pins the pooled partition arena and attempt
// scratch end to end: once warm, a GP schedule of tomcatv/loop0 on two
// clusters makes at most 39 allocations.
func TestScheduleLoopWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := workload.SPECfp95()[0].Loops[0].G
	m := machine.MustClustered(2, 32, 1, 1)
	opts := &Options{Algorithm: GP}
	got := testing.AllocsPerRun(20, func() {
		if _, err := ScheduleLoop(g, m, opts); err != nil {
			t.Fatal(err)
		}
	})
	if got > 39 {
		t.Errorf("%s on %s: %v allocs per warmed GP schedule, want at most 39", g.Name, m.Name, got)
	}
}

func TestScheduleLoopContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScheduleLoopContext(ctx, sampleLoop(), machine.MustClustered(2, 32, 1, 1), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleLoopContext on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestScheduleLoopContextBackground(t *testing.T) {
	res, err := ScheduleLoopContext(context.Background(), sampleLoop(), machine.MustClustered(2, 32, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ScheduleLoop(sampleLoop(), machine.MustClustered(2, 32, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.II != seq.Schedule.II || res.Attempts != seq.Attempts {
		t.Errorf("context run II=%d attempts=%d differs from plain run II=%d attempts=%d",
			res.Schedule.II, res.Attempts, seq.Schedule.II, seq.Attempts)
	}
}

// TestVerifyOracleAllSchemesAndMachines is the differential oracle: every
// scheme × machine × loop combination must produce a schedule that the
// independent schedule.Verify checker accepts, across the paper's
// homogeneous grid and the generalized machines (heterogeneous unit mixes,
// uneven register files, pipelined bus, point-to-point links).
func TestVerifyOracleAllSchemesAndMachines(t *testing.T) {
	het := machine.MustHetero("het2/24+40reg", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{3, 1, 2}, Regs: 24},
		{Units: [isa.NumUnitKinds]int{1, 3, 2}, Regs: 40},
	}, machine.SharedBus, 1, 1, false)
	pipe := machine.MustClustered(4, 64, 1, 2)
	pipe.Pipelined = true
	pipe.Name = "4-cluster/64reg/1pbus/lat2"
	p2p := machine.MustClustered(2, 32, 1, 1)
	p2p.Topology = machine.PointToPoint
	p2p.Name = "2-cluster/32reg/p2p/lat1"
	machines := []*machine.Config{
		machine.NewUnified(64),
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 64, 1, 2),
		het,
		pipe,
		p2p,
	}

	var loops []*ddg.Graph
	loops = append(loops, sampleLoop())
	for _, bm := range workload.SPECfp95()[:3] {
		loops = append(loops, bm.Loops[0].G)
	}
	for _, bm := range workload.DSP()[:3] {
		loops = append(loops, bm.Loops[0].G)
	}

	for _, m := range machines {
		for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
			for _, g := range loops {
				res, err := ScheduleLoop(g, m, &Options{Algorithm: alg})
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", m.Name, alg, g.Name, err)
				}
				if err := schedule.Verify(g, m, res.Schedule); err != nil {
					t.Errorf("%s/%v/%s: oracle: %v", m.Name, alg, g.Name, err)
				}
			}
		}
	}
}

func TestHeterogeneousMachineKeepsOpsOnCapableClusters(t *testing.T) {
	// A machine whose cluster 0 has no FP units: every FP op must land in
	// cluster 1, for every scheme.
	m := machine.MustHetero("nofp0", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{3, 0, 2}, Regs: 32},
		{Units: [isa.NumUnitKinds]int{1, 4, 2}, Regs: 32},
	}, machine.SharedBus, 1, 1, false)
	g := sampleLoop()
	for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
		res, err := ScheduleLoop(g, m, &Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for v, nd := range g.Nodes {
			if nd.Op.Unit() == isa.FPUnit && res.Schedule.Cluster[v] != 1 {
				t.Errorf("%v: FP op %d in cluster %d, which has no FP units", alg, v, res.Schedule.Cluster[v])
			}
		}
		if err := schedule.Verify(g, m, res.Schedule); err != nil {
			t.Errorf("%v: oracle: %v", alg, err)
		}
	}
}
