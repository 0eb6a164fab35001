package partition

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Differential tests: the incremental screen, coarsening and refinement
// tables against the code they replaced (reference_test.go).

// referenceMachines returns the six Table 2 machines (Figures 2 and 3) and
// the heterogeneous, pipelined-bus and point-to-point SweepSet machines.
func referenceMachines() []*machine.Config {
	var ms []*machine.Config
	for _, n := range []int{2, 4} {
		for _, regs := range []int{32, 64} {
			ms = append(ms, machine.MustClustered(n, regs, 1, 1))
		}
	}
	ms = append(ms, machine.MustClustered(4, 32, 1, 2), machine.MustClustered(4, 64, 1, 2))
	return append(ms, machine.SweepSet()[1:]...)
}

// forCorpusLoops calls f for every loop of both corpora on every machine
// of ms that can run it, at its MII.
func forCorpusLoops(ms []*machine.Config, f func(g *ddg.Graph, m *machine.Config, mii int)) {
	for _, corpus := range [][]*workload.Benchmark{workload.SPECfp95(), workload.DSP()} {
		for _, bm := range corpus {
			for _, l := range bm.Loops {
				for _, m := range ms {
					if mii := l.G.MII(m); mii < 1<<20 {
						f(l.G, m, mii)
					}
				}
			}
		}
	}
}

// TestScreenMatchesReference runs refinement on both corpora, on every
// reference machine, at MII…MII+3, with and without the register-aware
// estimate, and requires every candidate's screening bound to equal the
// reference screen's value: at the floor refinement passed, and in full
// (no floor, so the interconnect II is always derived). -short keeps the
// paper's machine only.
func TestScreenMatchesReference(t *testing.T) {
	ms := referenceMachines()
	if testing.Short() {
		ms = []*machine.Config{machine.MustClustered(4, 64, 1, 1)}
	}
	var checked, skipped int
	reference = &referenceImpl{pathBound: func(en *engine, lv *level, ii, gi, c2, gj int, floor int64) int64 {
		got := en.pathBound(lv, ii, gi, c2, gj, floor)
		if want := refPathBound(en, lv, ii, gi, c2, gj, floor); got != want {
			t.Fatalf("%s on %s at II %d: group %d → %d (swap %d), floor %d: bound %d, reference %d",
				en.p.g.Name, en.p.m.Name, ii, gi, c2, gj, floor, got, want)
		}
		full, want := en.pathBound(lv, ii, gi, c2, gj, math.MaxInt64), refPathBound(en, lv, ii, gi, c2, gj, math.MaxInt64)
		if full != want {
			t.Fatalf("%s on %s at II %d: group %d → %d (swap %d): full bound %d, reference %d",
				en.p.g.Name, en.p.m.Name, ii, gi, c2, gj, full, want)
		}
		checked++
		if en.pathOK && en.pathGroup[gi] != en.pathGen && (gj < 0 || en.pathGroup[gj] != en.pathGen) {
			skipped++
		}
		return got
	}}
	defer func() { reference = nil }()
	forCorpusLoops(ms, func(g *ddg.Graph, m *machine.Config, mii int) {
		for _, opts := range []*Options{nil, {RegisterAware: true}} {
			for ii := mii; ii <= mii+3; ii++ {
				New(g, m, opts).Partition(ii)
			}
		}
	})
	if checked == 0 || skipped == 0 {
		t.Fatalf("%d candidates checked, %d skipped the path walk: the screen was not exercised", checked, skipped)
	}
	t.Logf("%d candidates, %d skipped the path walk", checked, skipped)
}

// TestIterationEstimateMatchesReference requires a refinement iteration's
// estimate to equal the full estimate it replaced on everything refinement
// reads (all but the cut slack), and to leave setPath the same forward
// times, on random assignments under the register-aware estimate. Half
// the loops are pressureLoop's, mostly packed into one cluster, so that
// the spill pass leaves the times at a raised II.
func TestIterationEstimateMatchesReference(t *testing.T) {
	ms := append(engineMachines(), machine.MustClustered(4, 32, 1, 1))
	raised := 0
	f := func(seed int64, mIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, spread := randomDAG(r, 4+r.Intn(40)), 1.0
		if r.Intn(2) == 0 {
			g, spread = pressureLoop(8+r.Intn(16)), 0.2
		}
		m := ms[int(mIdx)%len(ms)]
		p := New(g, m, &Options{RegisterAware: true})
		ii := g.MII(m) + r.Intn(3)
		assign := make([]int, g.N())
		for v := range assign {
			if r.Float64() < spread {
				assign[v] = r.Intn(m.Clusters)
			}
		}
		en := newEngine(p, assign)
		got := en.iterationEstimate(ii)
		gotTimes := ddg.Times{II: en.times.II, SL: en.times.SL, Earliest: slices.Clone(en.times.Earliest)}
		want := en.estimate(ii)
		wantTimes := ddg.Times{II: en.times.II, SL: en.times.SL, Earliest: en.times.Earliest}
		want.cutSlack = 0
		if got != want || !reflect.DeepEqual(gotTimes, wantTimes) {
			t.Logf("seed %d on %s at II %d: estimate %+v, times %+v; reference %+v, times %+v",
				seed, m.Name, ii, got, gotTimes, want, wantTimes)
			return false
		}
		if want.ii != want.slackII {
			raised++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if raised == 0 {
		t.Fatal("the register-aware pass never raised the II: the re-timing was not exercised")
	}
	t.Logf("%d of 300 estimates at a raised II", raised)
}

// levelTable is one coarsening level and the refinement tables indexLevel
// builds for it.
type levelTable struct {
	groups                                    [][]int
	edges                                     []graph.Edge
	owner, bndHead, bndList, nbrHead, nbrList []int
}

// levelTables coarsens g on m at ii and indexes every level, copying out
// what coarsening and indexLevel leave in the arena.
func levelTables(g *ddg.Graph, m *machine.Config, opts *Options, ii int) []levelTable {
	p := New(g, m, opts)
	p.computeWeights(ii)
	var out []levelTable
	for _, lv := range p.coarsen() {
		p.indexLevel(lv)
		ar := p.ar
		lt := levelTable{
			edges: slices.Clone(lv.edges), owner: slices.Clone(ar.owner),
			bndHead: slices.Clone(ar.bndHead), bndList: slices.Clone(ar.bndList),
			nbrHead: slices.Clone(ar.nbrHead), nbrList: slices.Clone(ar.nbrList),
		}
		for _, members := range lv.groups {
			lt.groups = append(lt.groups, slices.Clone(members))
		}
		out = append(out, lt)
	}
	return out
}

// TestLevelsMatchReference requires every coarsening level (its groups,
// their member order and its collapsed edges) and every level's refinement
// tables to equal what the reference collapse and indexLevel build, on
// both corpora and every reference machine, under the paper's options,
// greedy matching only and uniform weights.
func TestLevelsMatchReference(t *testing.T) {
	levels := 0
	forCorpusLoops(referenceMachines(), func(g *ddg.Graph, m *machine.Config, mii int) {
		for _, opts := range []*Options{nil, {GreedyMatchingOnly: true}, {Weights: UniformWeights}} {
			got := levelTables(g, m, opts, mii)
			var want []levelTable
			withReference(func() { want = levelTables(g, m, opts, mii) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s, options %+v: levels and tables differ from the reference's:\n got %+v\nwant %+v",
					g.Name, m.Name, opts, got, want)
			}
			levels += len(got)
		}
	})
	t.Logf("%d levels", levels)
}

// FuzzPartitionMatchesReference runs Partition on random loops with and
// without the references installed, under every Options combination, on
// shared-bus, pipelined-bus, point-to-point and heterogeneous machines, and
// requires equal Results (assignment, estimates, levels, moves, screening
// tallies and reuse) at MII…MII+4, one Partitioner per side as the
// escalation calls it.
func FuzzPartitionMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(42), uint8(3), uint8(9))
	f.Add(int64(99), uint8(4), uint8(4))
	f.Add(int64(123), uint8(5), uint8(11))
	f.Add(int64(5), uint8(5), uint8(15))
	ms := append(engineMachines(), machine.SweepSet()[1])
	f.Fuzz(func(t *testing.T, seed int64, mIdx, optBits uint8) {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(40))
		m := ms[int(mIdx)%len(ms)]
		opts := &Options{
			Weights:            WeightScheme(optBits & 1),
			RegisterAware:      optBits&2 != 0,
			SkipRefinement:     optBits&4 != 0,
			GreedyMatchingOnly: optBits&8 != 0,
		}
		mii := g.MII(m)
		var want []*Result
		withReference(func() {
			p := New(g, m, opts)
			for ii := mii; ii <= mii+4; ii++ {
				want = append(want, p.Partition(ii))
			}
		})
		p := New(g, m, opts)
		for i, w := range want {
			if got := p.Partition(mii + i); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s on %s, options %+v, II %d: result %+v, reference %+v", g.Name, m.Name, *opts, mii+i, *got, *w)
			}
		}
	})
}
