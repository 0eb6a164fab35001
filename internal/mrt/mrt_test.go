package mrt

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
)

func TestPlaceOpCapacity(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1) // 1 unit of each kind per cluster
	tab := New(m, 3)
	if !tab.CanPlaceOp(0, isa.IntUnit, 5) {
		t.Fatal("fresh table refuses placement")
	}
	tab.PlaceOp(0, isa.IntUnit, 5) // slot 2
	if tab.CanPlaceOp(0, isa.IntUnit, 2) {
		t.Error("slot 2 should be full (cycle 5 ≡ 2 mod 3)")
	}
	if !tab.CanPlaceOp(0, isa.IntUnit, 3) {
		t.Error("slot 0 should be free")
	}
	if !tab.CanPlaceOp(1, isa.IntUnit, 5) {
		t.Error("other cluster should be free")
	}
	if !tab.CanPlaceOp(0, isa.FPUnit, 5) {
		t.Error("other kind should be free")
	}
	tab.RemoveOp(0, isa.IntUnit, 5)
	if !tab.CanPlaceOp(0, isa.IntUnit, 2) {
		t.Error("slot not freed after RemoveOp")
	}
}

func TestPlaceOpMultipleUnits(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 1) // 2 units per kind per cluster
	tab := New(m, 2)
	tab.PlaceOp(0, isa.MemUnit, 0)
	if !tab.CanPlaceOp(0, isa.MemUnit, 0) {
		t.Fatal("second memory unit should be free")
	}
	tab.PlaceOp(0, isa.MemUnit, 0)
	if tab.CanPlaceOp(0, isa.MemUnit, 0) {
		t.Error("both units taken, slot should be full")
	}
}

func TestPlaceOpPanicsWhenFull(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	tab := New(m, 1)
	tab.PlaceOp(0, isa.IntUnit, 0)
	defer func() {
		if recover() == nil {
			t.Error("PlaceOp on full slot did not panic")
		}
	}()
	tab.PlaceOp(0, isa.IntUnit, 0)
}

func TestRemoveOpPanicsWhenEmpty(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	tab := New(m, 1)
	defer func() {
		if recover() == nil {
			t.Error("RemoveOp on empty slot did not panic")
		}
	}()
	tab.RemoveOp(0, isa.IntUnit, 0)
}

func TestBusNonPipelined(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 2) // 1 bus, latency 2
	tab := New(m, 4)
	if !tab.CanPlaceXfer(0, 1, 1) {
		t.Fatal("fresh bus refused")
	}
	tab.PlaceXfer(0, 1, 1) // occupies slots 1 and 2
	for _, start := range []int{0, 1, 2} {
		if tab.CanPlaceXfer(0, 1, start) {
			t.Errorf("bus start %d should collide with transfer at 1-2", start)
		}
	}
	if !tab.CanPlaceXfer(0, 1, 3) {
		t.Error("bus start 3 (slots 3,0) should be free")
	}
	tab.RemoveXfer(0, 1, 1)
	if !tab.CanPlaceXfer(0, 1, 1) {
		t.Error("bus not freed")
	}
}

func TestBusWrapsModulo(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 2)
	tab := New(m, 3)
	tab.PlaceXfer(0, 1, 2) // slots 2 and 0
	if tab.CanPlaceXfer(0, 1, 0) {
		t.Error("slot 0 should be occupied by the wrapped transfer")
	}
	if tab.CanPlaceXfer(0, 1, 1) {
		t.Error("latency-2 transfer at 1 needs slots 1,2 and slot 2 is taken")
	}
}

func TestBusLongerThanII(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 2)
	tab := New(m, 2)
	// LatBus == II: a transfer would collide with itself each iteration.
	if tab.CanPlaceXfer(0, 1, 0) {
		t.Error("LatBus ≥ II must be rejected")
	}
}

func TestBusCapacityTwoBuses(t *testing.T) {
	m := machine.MustClustered(2, 32, 2, 1) // 2 buses, latency 1
	tab := New(m, 2)
	tab.PlaceXfer(0, 1, 0)
	if !tab.CanPlaceXfer(0, 1, 0) {
		t.Fatal("second bus should be free")
	}
	tab.PlaceXfer(0, 1, 0)
	if tab.CanPlaceXfer(0, 1, 0) {
		t.Error("both buses taken")
	}
}

func TestNoBusOnUnified(t *testing.T) {
	m := machine.NewUnified(32)
	tab := New(m, 4)
	if tab.CanPlaceXfer(0, 1, 0) {
		t.Error("unified machine has no bus")
	}
}

func TestFreeSlotAccounting(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 1) // 2 mem units/cluster
	tab := New(m, 3)
	if got := tab.FreeOpSlots(0, isa.MemUnit); got != 6 {
		t.Fatalf("FreeOpSlots = %d, want 6", got)
	}
	tab.PlaceOp(0, isa.MemUnit, 0)
	tab.PlaceOp(0, isa.MemUnit, 4)
	if got := tab.FreeOpSlots(0, isa.MemUnit); got != 4 {
		t.Errorf("FreeOpSlots = %d, want 4", got)
	}
	if got := tab.FreeXferSlots(); got != 3 {
		t.Errorf("FreeBusSlots = %d, want 3", got)
	}
	tab.PlaceXfer(0, 1, 1)
	if got := tab.FreeXferSlots(); got != 2 {
		t.Errorf("FreeBusSlots = %d, want 2", got)
	}
	if u := tab.XferUtilization(); u < 0.33 || u > 0.34 {
		t.Errorf("BusUtilization = %v, want 1/3", u)
	}
	if u := tab.MemUtilization(0); u < 0.33 || u > 0.34 {
		t.Errorf("MemUtilization = %v, want 2/6", u)
	}
	if u := tab.MemUtilization(1); u != 0 {
		t.Errorf("MemUtilization(1) = %v, want 0", u)
	}
}

func TestNegativeCycleSlots(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 1)
	tab := New(m, 4)
	tab.PlaceOp(0, isa.IntUnit, -1) // slot 3
	tab.PlaceOp(0, isa.IntUnit, -1)
	if tab.CanPlaceOp(0, isa.IntUnit, 3) {
		t.Error("cycle -1 should map to slot 3")
	}
}

func TestNewPanicsOnBadII(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(m, 0) did not panic")
		}
	}()
	New(machine.NewUnified(32), 0)
}

func TestHeterogeneousUnitCapacity(t *testing.T) {
	m := machine.MustHetero("het", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{3, 0, 1}, Regs: 16},
		{Units: [isa.NumUnitKinds]int{1, 2, 1}, Regs: 16},
	}, machine.SharedBus, 1, 1, false)
	tab := New(m, 1)
	for i := 0; i < 3; i++ {
		if !tab.CanPlaceOp(0, isa.IntUnit, 0) {
			t.Fatalf("cluster 0 INT unit %d should be free", i)
		}
		tab.PlaceOp(0, isa.IntUnit, 0)
	}
	if tab.CanPlaceOp(0, isa.IntUnit, 0) {
		t.Error("cluster 0 has only 3 INT units")
	}
	if tab.CanPlaceOp(0, isa.FPUnit, 0) {
		t.Error("cluster 0 has no FP units")
	}
	if !tab.CanPlaceOp(1, isa.FPUnit, 0) {
		t.Error("cluster 1 FP unit should be free")
	}
	if tab.CanPlaceOp(1, isa.IntUnit, 0) == false {
		t.Error("cluster 1 INT unit should be free")
	}
}

func TestPointToPointChannelsIndependent(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	m.Topology = machine.PointToPoint
	tab := New(m, 2)
	tab.PlaceXfer(0, 1, 0)
	if tab.CanPlaceXfer(0, 1, 0) {
		t.Error("link 0→1 should be saturated at slot 0")
	}
	if !tab.CanPlaceXfer(0, 2, 0) {
		t.Error("link 0→2 must be independent of 0→1")
	}
	if !tab.CanPlaceXfer(1, 0, 0) {
		t.Error("link 1→0 must be independent of 0→1")
	}
	// Distinct ordered pairs must map to distinct channels.
	seen := map[int]bool{}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			ch := tab.Channel(src, dst)
			if ch < 0 || ch >= 12 {
				t.Fatalf("channel(%d,%d) = %d out of range", src, dst, ch)
			}
			if seen[ch] {
				t.Fatalf("channel(%d,%d) = %d collides", src, dst, ch)
			}
			seen[ch] = true
		}
	}
}

func TestPipelinedBusSingleSlot(t *testing.T) {
	m := machine.MustClustered(2, 32, 1, 3) // latency 3
	m.Pipelined = true
	tab := New(m, 4)
	tab.PlaceXfer(0, 1, 1)
	if tab.CanPlaceXfer(0, 1, 1) {
		t.Error("pipelined bus still has per-slot capacity 1")
	}
	if !tab.CanPlaceXfer(0, 1, 2) {
		t.Error("pipelined bus must accept a new transfer the next cycle")
	}
	// A pipelined transfer is legal even when LatBus ≥ II.
	small := New(m, 2)
	if !small.CanPlaceXfer(0, 1, 0) {
		t.Error("pipelined transfer with LatBus ≥ II must be accepted")
	}
}

// scanFree is the scanning free-slot count the running totals replaced:
// kind k's slots in cluster c, or every channel's slots when c < 0.
func scanFree(t *Table, c int, k isa.UnitKind) int {
	used := 0
	if c < 0 {
		for _, row := range t.xfer {
			for _, x := range row {
				used += x
			}
		}
		return t.m.NBus*t.II*len(t.xfer) - used
	}
	for s := 0; s < t.II; s++ {
		used += t.fu[c][int(k)*t.II+s]
	}
	return t.m.UnitsIn(c, k)*t.II - used
}

// TestRunningTotalsMatchScan places and removes random operations and
// transfers on a shared bus, a pipelined bus and point-to-point links, and
// after every step compares FreeOpSlots and FreeXferSlots with a scan of
// the slots, and runs CheckTotals. A Reset must zero the totals.
func TestRunningTotalsMatchScan(t *testing.T) {
	pipe := machine.MustClustered(4, 64, 1, 2)
	pipe.Pipelined = true
	p2p := machine.MustClustered(4, 64, 1, 2)
	p2p.Topology = machine.PointToPoint
	for _, m := range []*machine.Config{machine.MustClustered(2, 32, 2, 2), pipe, p2p} {
		r := rand.New(rand.NewSource(5))
		tab := New(m, 5)
		type op struct{ c, k, cyc, dst int }
		var ops, xfers []op
		placedXfers := 0
		for step := 0; step < 400; step++ {
			switch r.Intn(4) {
			case 0:
				o := op{c: r.Intn(m.Clusters), k: r.Intn(isa.NumUnitKinds), cyc: r.Intn(20) - 10}
				if tab.CanPlaceOp(o.c, isa.UnitKind(o.k), o.cyc) {
					tab.PlaceOp(o.c, isa.UnitKind(o.k), o.cyc)
					ops = append(ops, o)
				}
			case 1:
				o := op{c: r.Intn(m.Clusters), dst: r.Intn(m.Clusters), cyc: r.Intn(20) - 10}
				if o.dst != o.c && tab.CanPlaceXfer(o.c, o.dst, o.cyc) {
					tab.PlaceXfer(o.c, o.dst, o.cyc)
					xfers = append(xfers, o)
					placedXfers++
				}
			case 2:
				if len(ops) > 0 {
					i := r.Intn(len(ops))
					o := ops[i]
					ops = append(ops[:i], ops[i+1:]...)
					tab.RemoveOp(o.c, isa.UnitKind(o.k), o.cyc)
				}
			default:
				if len(xfers) > 0 {
					i := r.Intn(len(xfers))
					o := xfers[i]
					xfers = append(xfers[:i], xfers[i+1:]...)
					tab.RemoveXfer(o.c, o.dst, o.cyc)
				}
			}
			if err := tab.CheckTotals(); err != nil {
				t.Fatalf("%s step %d: %v", m.Name, step, err)
			}
			for c := 0; c < m.Clusters; c++ {
				for k := 0; k < isa.NumUnitKinds; k++ {
					if got, want := tab.FreeOpSlots(c, isa.UnitKind(k)), scanFree(tab, c, isa.UnitKind(k)); got != want {
						t.Fatalf("%s step %d: FreeOpSlots(%d, %v) = %d, scan %d", m.Name, step, c, isa.UnitKind(k), got, want)
					}
				}
			}
			if got, want := tab.FreeXferSlots(), scanFree(tab, -1, 0); got != want {
				t.Fatalf("%s step %d: FreeXferSlots = %d, scan %d", m.Name, step, got, want)
			}
		}
		if placedXfers == 0 {
			t.Fatalf("%s: the walk placed no transfer", m.Name)
		}
		tab.Reset(m, 3)
		if got := tab.FreeXferSlots(); got != m.NBus*3*m.Channels() {
			t.Errorf("%s: %d free transfer slots after Reset, want %d", m.Name, got, m.NBus*3*m.Channels())
		}
		if got := tab.FreeOpSlots(0, isa.MemUnit); got != m.UnitsIn(0, isa.MemUnit)*3 {
			t.Errorf("%s: %d free memory slots after Reset, want %d", m.Name, got, m.UnitsIn(0, isa.MemUnit)*3)
		}
	}
}
