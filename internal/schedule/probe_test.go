package schedule

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/workload"
)

// probeFuzzMachines are FuzzProbeMatchesReference's machines: those of
// FuzzTransformCut (8 registers per cluster on a shared, a pipelined and a
// point-to-point interconnect, and a heterogeneous 8+16-register pair),
// where the register check often needs its exact slot walk, plus a
// 2-cluster machine with 16 registers per cluster and the paper's machine.
func probeFuzzMachines() []*machine.Config {
	return append(cutFuzzMachines(), machine.MustClustered(2, 32, 1, 1), machine.MustClustered(4, 64, 1, 1))
}

// checkReference runs one attempt with the incremental probe and with the
// reference probe (reference_test.go) and fails t unless both return
// byte-identical schedule JSON or an equal Failure, with equal transform
// work.
func checkReference(t testing.TB, g *ddg.Graph, m *machine.Config, ii int, opts *Options) {
	t.Helper()
	s, fail := TrySchedule(g, m, ii, opts)
	var ref *Schedule
	var refFail *Failure
	withReference(func() { ref, refFail = TrySchedule(g, m, ii, opts) })
	switch {
	case (fail == nil) != (refFail == nil):
		t.Fatalf("%s on %s, %v at II %d: probe returned %v, reference %v", g.Name, m.Name, opts.Mode, ii, fail, refFail)
	case fail != nil:
		if *fail != *refFail {
			t.Fatalf("%s on %s, %v at II %d: probe failed with %+v, reference with %+v", g.Name, m.Name, opts.Mode, ii, *fail, *refFail)
		}
	default:
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || s.Work != ref.Work {
			t.Fatalf("%s on %s, %v at II %d: schedules differ\n  probe     %s %+v\n  reference %s %+v",
				g.Name, m.Name, opts.Mode, ii, got, s.Work, want, ref.Work)
		}
	}
}

// FuzzProbeMatchesReference runs TrySchedule with the incremental probe
// and with the code it replaced on random loops (FuzzTransformCut's
// generator, at most 32 nodes), a machine, GP, Fixed or URACAM, and an II
// offset of 0 to 3 above the MII: schedule bytes, failures and transform
// work must be identical.
func FuzzProbeMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(31), uint8(0), uint8(0), uint8(0))  // 8 regs per cluster, GP
	f.Add(int64(8), uint8(31), uint8(2), uint8(2), uint8(1))  // links, URACAM
	f.Add(int64(13), uint8(31), uint8(1), uint8(1), uint8(0)) // pipelined bus, Fixed
	f.Add(int64(18), uint8(31), uint8(3), uint8(0), uint8(2)) // heterogeneous, GP
	f.Add(int64(21), uint8(24), uint8(4), uint8(2), uint8(3)) // 2 clusters, URACAM
	f.Add(int64(34), uint8(30), uint8(5), uint8(0), uint8(1)) // paper machine, GP
	ms := probeFuzzMachines()
	f.Fuzz(func(t *testing.T, seed int64, size, mIdx, mode, iiOff uint8) {
		r := rand.New(rand.NewSource(seed))
		g := randomLoop(r, 1+int(size)%32)
		m := ms[int(mIdx)%len(ms)]
		ii := g.MII(m) + int(iiOff)%4
		opts := &Options{Mode: Mode(mode % 3)}
		if opts.Mode != ModeURACAM {
			opts.Assign = partition.New(g, m, nil).Partition(ii).Assign
		}
		checkReference(t, g, m, ii, opts)
	})
}

// TestSMSGroupsMatchReference compares the cached SMS groups with the
// per-attempt computation they replaced on both corpora and on random
// loops.
func TestSMSGroupsMatchReference(t *testing.T) {
	var graphs []*ddg.Graph
	for _, b := range append(workload.SPECfp95(), workload.DSP()...) {
		for _, l := range b.Loops {
			graphs = append(graphs, l.G)
		}
	}
	r := rand.New(rand.NewSource(41))
	for range 200 {
		graphs = append(graphs, randomLoop(r, 1+r.Intn(40)))
	}
	for _, g := range graphs {
		var ref refGroups
		ref.buildGroups(g)
		nodes, ends := g.SMSGroups()
		if !slices.Equal(nodes, ref.groupNodes) || !slices.Equal(ends, ref.groupEnd) {
			t.Fatalf("%s: groups %v ending %v, reference %v ending %v", g.Name, nodes, ends, ref.groupNodes, ref.groupEnd)
		}
	}
}

// TestIncrementalStateMatchesRecount runs one attempt per loop of both
// corpora on the schedule digest machines and on the 4-cluster machine
// with 16 registers in all (4 per cluster), at II = MII … MII+5, under GP
// (following the partition at each II) and URACAM, with debugChecks on:
// after every placement each cluster's pressure window is recounted from
// the values' spans and checked against its cached MaxLive, and the
// reservation table's free-slot totals against its slots. Under -short
// only the paper machine and the tight one are run.
func TestIncrementalStateMatchesRecount(t *testing.T) {
	debugChecks = true
	defer func() { debugChecks = false }()
	machines := append(machine.SweepSet(),
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 32, 1, 2),
		machine.MustClustered(4, 16, 1, 1))
	if testing.Short() {
		machines = []*machine.Config{machines[0], machines[len(machines)-1]}
	}
	corpus := append(workload.SPECfp95(), workload.DSP()...)
	attempts, failed := 0, 0
	for _, m := range machines {
		for _, b := range corpus {
			for _, l := range b.Loops {
				g, mii := l.G, l.G.MII(m)
				for ii := mii; ii <= mii+5; ii++ {
					assign := partition.New(g, m, nil).Partition(ii).Assign
					for _, opts := range []*Options{{Mode: ModeGP, Assign: assign}, {Mode: ModeURACAM}} {
						attempts++
						if _, fail := TrySchedule(g, m, ii, opts); fail != nil {
							failed++
						}
					}
				}
			}
		}
	}
	t.Logf("%d attempts checked, %d failed", attempts, failed)
}

// TestProbeOverflowMatchesReference checks the register check's fallback
// for a state where a cluster already overflows, which placement never
// produces: after half of applu/loop3 is placed on the paper's machine,
// one slot of a cluster is pushed past its file and every placement of
// every unplaced node is probed with the incremental check and with the
// reference. Both must agree on every verdict, failure reason and figure
// of merit; so must they on the state before the push.
func TestProbeOverflowMatchesReference(t *testing.T) {
	g := specLoop(t, "applu/loop3")
	m := machine.MustClustered(4, 64, 1, 1)
	ii := g.MII(m) + 8
	st := newState(g, m, ii)
	defer st.release()
	if !g.StartTimesInto(m, ii, nil, &st.static) {
		t.Fatal("infeasible II")
	}
	order := Order(g, m, ii)
	opts := &Options{Mode: ModeURACAM}
	for _, v := range order[:len(order)/2] {
		if placed, fail := st.placeNode(v, opts, &st.static); !placed {
			t.Fatalf("node %d unplaceable: %v", v, fail)
		}
	}
	compare := func() (plans, regFails int) {
		for _, v := range order[len(order)/2:] {
			lo := st.static.Earliest[v] - ii
			for c := 0; c < m.Clusters; c++ {
				for cyc := lo; cyc < lo+2*ii; cyc++ {
					p, reason := st.planPlace(v, c, cyc)
					var ref *plan
					var refReason FailReason
					withReference(func() { ref, refReason = st.planPlace(v, c, cyc) })
					if (p == nil) != (ref == nil) || reason != refReason {
						t.Fatalf("node %d cluster %d cycle %d: probe %v (%v), reference %v (%v)", v, c, cyc, p != nil, reason, ref != nil, refReason)
					}
					if p != nil {
						plans++
						if !slices.Equal(p.merit, ref.merit) {
							t.Fatalf("node %d cluster %d cycle %d: merit %v, reference %v", v, c, cyc, p.merit, ref.merit)
						}
					} else if reason == FailRegs {
						regFails++
					}
					st.probe.freePlan(p)
					st.probe.freePlan(ref)
				}
			}
		}
		return plans, regFails
	}
	if plans, _ := compare(); plans == 0 {
		t.Fatal("no placement fits before the push: the comparison checked no figure of merit")
	}
	// Push each cluster's fullest slot one past its register file in turn.
	var plans, regFails int
	for c := 0; c < m.Clusters; c++ {
		s := 0
		for sl := 1; sl < ii; sl++ {
			if st.press[c].Slot(sl) > st.press[c].Slot(s) {
				s = sl
			}
		}
		pushed := 0
		for ; st.press[c].Slot(s) <= m.RegsIn(c); pushed++ {
			st.press[c].Add(s, s+1)
		}
		p, f := compare()
		plans, regFails = plans+p, regFails+f
		for ; pushed > 0; pushed-- {
			st.press[c].Remove(s, s+1)
		}
	}
	if plans == 0 || regFails == 0 {
		t.Fatalf("with a cluster overflowing %d placements fit and %d failed on registers; the comparison needs both", plans, regFails)
	}
	t.Logf("with a cluster overflowing: %d placements fit, %d failed on registers", plans, regFails)
}
