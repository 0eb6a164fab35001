package schedule

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/workload"
)

// trySchedule runs one attempt with the transform loop's cycle cut on or
// off.
func trySchedule(g *ddg.Graph, m *machine.Config, ii int, opts *Options, cut bool) (*Schedule, *Failure) {
	transformCut = cut
	defer func() { transformCut = true }()
	return TrySchedule(g, m, ii, opts)
}

// checkCut runs one attempt with and without the cycle cut and fails t
// unless both return byte-identical schedule JSON (Transforms included) or
// an equal Failure{Node, Reason}. Both runs must also enter the same
// transform loops, and the cut may only save placement retries. It
// returns the cut run's work.
func checkCut(t testing.TB, g *ddg.Graph, m *machine.Config, ii int, opts *Options) TransformWork {
	t.Helper()
	s, fail := trySchedule(g, m, ii, opts, true)
	ref, refFail := trySchedule(g, m, ii, opts, false)
	var w, refW TransformWork
	switch {
	case (fail == nil) != (refFail == nil):
		t.Fatalf("%s on %s, %v at II %d: cut returned %v, uncut %v", g.Name, m.Name, opts.Mode, ii, fail, refFail)
	case fail != nil:
		if fail.Node != refFail.Node || fail.Reason != refFail.Reason {
			t.Fatalf("%s on %s, %v at II %d: cut failed on node %d (%v), uncut on node %d (%v)",
				g.Name, m.Name, opts.Mode, ii, fail.Node, fail.Reason, refFail.Node, refFail.Reason)
		}
		w, refW = fail.Work, refFail.Work
	default:
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s on %s, %v at II %d: schedules differ\n  cut   %s\n  uncut %s", g.Name, m.Name, opts.Mode, ii, got, want)
		}
		w, refW = s.Work, ref.Work
	}
	if w.Loops != refW.Loops || w.Retries > refW.Retries || refW.Cuts != 0 {
		t.Fatalf("%s on %s, %v at II %d: cut work %+v, uncut %+v", g.Name, m.Name, opts.Mode, ii, w, refW)
	}
	return w
}

// TestTransformCutMatchesUncut checks the cycle cut against the uncut
// transform loop on the schedule digest oracle's machine grid (every
// SweepSet machine plus the two 32-register paper panels), under GP, Fixed
// and URACAM, over SPECfp95 and DSP at II = MII … MII+4. GP and Fixed
// follow the partition at each II. Under -short only the paper machine is
// checked.
func TestTransformCutMatchesUncut(t *testing.T) {
	machines := append(machine.SweepSet(),
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 32, 1, 2))
	if testing.Short() {
		machines = machines[:1]
	}
	corpus := append(workload.SPECfp95(), workload.DSP()...)
	var work TransformWork
	for _, m := range machines {
		for _, b := range corpus {
			for _, l := range b.Loops {
				g, mii := l.G, l.G.MII(m)
				for ii := mii; ii <= mii+4; ii++ {
					assign := partition.New(g, m, nil).Partition(ii).Assign
					for _, opts := range []*Options{{Mode: ModeGP, Assign: assign}, {Mode: ModeFixed, Assign: assign}, {Mode: ModeURACAM}} {
						work.Add(checkCut(t, g, m, ii, opts))
					}
				}
			}
		}
	}
	if work.Cuts == 0 {
		t.Fatalf("no transform loop was cut (%+v): the check compared nothing", work)
	}
	t.Logf("transform loops %d, cut %d, placement retries %d", work.Loops, work.Cuts, work.Retries)
}

// cutFuzzMachines are FuzzTransformCut's machines: small register files,
// so that random loops of up to 32 nodes need transformations, on a shared
// bus, a pipelined bus, point-to-point links and a heterogeneous mix.
func cutFuzzMachines() []*machine.Config {
	pipe := machine.MustClustered(4, 32, 1, 2)
	pipe.Pipelined = true
	p2p := machine.MustClustered(4, 32, 1, 1)
	p2p.Topology = machine.PointToPoint
	het := machine.MustHetero("het/8+16reg", []machine.ClusterSpec{
		{Units: [isa.NumUnitKinds]int{3, 1, 2}, Regs: 8},
		{Units: [isa.NumUnitKinds]int{1, 3, 2}, Regs: 16},
	}, machine.SharedBus, 1, 1, false)
	return []*machine.Config{machine.MustClustered(4, 32, 1, 2), pipe, p2p, het}
}

// FuzzTransformCut runs TestTransformCutMatchesUncut's comparison on random
// loops: a randomLoop seed and size (at most 32 nodes), a machine, the
// mode and an II offset of 0 to 4 above the MII.
func FuzzTransformCut(f *testing.F) {
	// Each seed cuts a transform loop. The second, third and fourth fail
	// if the cut skips the replay or charges less than the budget; the
	// fourth and fifth if the snapshot leaves out spill code.
	f.Add(int64(1), uint8(31), uint8(0), uint8(0), uint8(0))  // shared bus, GP
	f.Add(int64(8), uint8(31), uint8(2), uint8(1), uint8(0))  // links, Fixed
	f.Add(int64(13), uint8(31), uint8(1), uint8(2), uint8(0)) // pipelined bus, URACAM
	f.Add(int64(18), uint8(31), uint8(3), uint8(0), uint8(0)) // heterogeneous, GP
	f.Add(int64(87), uint8(31), uint8(1), uint8(1), uint8(0)) // pipelined bus, Fixed
	f.Add(int64(99), uint8(28), uint8(3), uint8(0), uint8(2)) // heterogeneous, GP at MII+2
	ms := cutFuzzMachines()
	f.Fuzz(func(t *testing.T, seed int64, size, mIdx, mode, iiOff uint8) {
		r := rand.New(rand.NewSource(seed))
		g := randomLoop(r, 1+int(size)%32)
		m := ms[int(mIdx)%len(ms)]
		ii := g.MII(m) + int(iiOff)%5
		opts := &Options{Mode: Mode(mode % 3)}
		if opts.Mode != ModeURACAM {
			opts.Assign = partition.New(g, m, nil).Partition(ii).Assign
		}
		checkCut(t, g, m, ii, opts)
	})
}
