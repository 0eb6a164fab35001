package partition

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// The incremental engine must be observationally identical to full
// re-evaluation: same maintained state as a from-scratch rebuild after any
// move sequence, same estimates as Partitioner.evaluate, and — through the
// screening inner loop — the same chosen move sequence as exhaustive
// evaluation of every candidate.

func engineMachines() []*machine.Config {
	p2p := machine.MustClustered(4, 64, 1, 2)
	p2p = &machine.Config{
		Name: "p2p", Clusters: p2p.Clusters, Units: p2p.Units,
		RegsPerCluster: p2p.RegsPerCluster, NBus: 1, LatBus: 2,
		Topology: machine.PointToPoint, Latency: p2p.Latency,
	}
	pipe := machine.MustClustered(4, 64, 1, 2)
	pipe.Pipelined = true
	return []*machine.Config{
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 64, 1, 2),
		machine.MustClustered(4, 32, 2, 1),
		p2p,
		pipe,
	}
}

// engineState is a copy of every delta-maintained field of an engine.
type engineState struct {
	assign, extra, crossOut, destCnt, perLink []int
	cut                                       []bool
	counts                                    [][isa.NumUnitKinds]int
	nCut, nComm                               int
}

func snapshot(en *engine) engineState {
	return engineState{
		assign: slices.Clone(en.assign), extra: slices.Clone(en.extra),
		crossOut: slices.Clone(en.crossOut), destCnt: slices.Clone(en.destCnt),
		perLink: slices.Clone(en.perLink), cut: slices.Clone(en.cut),
		counts: slices.Clone(en.counts), nCut: en.nCut, nComm: en.nComm,
	}
}

// probeScratchClear reports whether the probe scratch is all zero, as the
// next probe requires.
func probeScratchClear(en *engine) bool {
	for _, s := range [][]int{en.dOut, en.dDest, en.dLink} {
		if slices.ContainsFunc(s, func(x int) bool { return x != 0 }) {
			return false
		}
	}
	return true
}

// boundaryOf lists the data edges with exactly one endpoint in members:
// what indexLevel lists for a group.
func boundaryOf(g *ddg.Graph, members []int) []int {
	var bnd []int
	for ei, e := range g.Edges {
		if e.Kind == ddg.Data && slices.Contains(members, e.From) != slices.Contains(members, e.To) {
			bnd = append(bnd, ei)
		}
	}
	return bnd
}

// lowerBoundT is the screening bound of the engine's current assignment,
// from its maintained tallies: what lowerBoundAfter must return for a
// candidate once the candidate is applied.
func (en *engine) lowerBoundT(ii int) int64 {
	iiBus, _ := en.xfer()
	return en.p.timeBound(ii, resIIFrom(en.p.m, en.counts), iiBus)
}

// lowerBoundAfter returns timeBound for the assignment the candidate
// pathBound describes, from the resource and interconnect IIs pathBound
// probes without applying it (resIIAfter, xferAfter): pathBound's bound
// without its critical-path term.
func (en *engine) lowerBoundAfter(lv *level, ii, gi, c2, gj int) int64 {
	c1 := en.assign[lv.groups[gi][0]]
	return en.p.timeBound(ii, en.resIIAfter(lv, gi, c1, c2, gj), en.xferAfter(lv, gi, c1, c2, gj))
}

// estimatesEqual compares every field the selection logic can observe.
func estimatesEqual(a, b estimate) bool {
	return a.t == b.t && a.ii == b.ii && a.iiBus == b.iiBus &&
		a.nComm == b.nComm && a.cutSlack == b.cutSlack && a.nCut == b.nCut
}

// TestEngineStateMatchesRebuild drives random single-group moves through
// one engine and, after every move, compares each piece of delta-maintained
// state against a second engine rebuilt from scratch, plus the estimates
// against the full evaluator.
func TestEngineStateMatchesRebuild(t *testing.T) {
	f := func(seed int64, mIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 5+r.Intn(35))
		ms := engineMachines()
		m := ms[int(mIdx)%len(ms)]
		p := New(g, m, nil)
		ii := g.MII(m)
		p.computeWeights(ii)

		assign := make([]int, g.N())
		for v := range assign {
			assign[v] = r.Intn(m.Clusters)
		}
		en := newEngine(p, assign)

		// Random macro-nodes of 1-3 members, all drawn from one cluster so
		// the group invariant (members share a cluster) holds.
		for step := 0; step < 40; step++ {
			c1 := r.Intn(m.Clusters)
			var members []int
			for v := range assign {
				if assign[v] == c1 {
					members = append(members, v)
				}
			}
			if len(members) == 0 {
				continue
			}
			r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			if n := 1 + r.Intn(3); len(members) > n {
				members = members[:n]
			}
			bnd := boundaryOf(g, members)
			c2 := r.Intn(m.Clusters)
			en.move(members, bnd, c2)

			fresh := newEngine(New(g, m, nil), append([]int(nil), assign...))
			if !reflect.DeepEqual(snapshot(en), snapshot(fresh)) {
				return false
			}
			if !estimatesEqual(en.estimate(ii), p.evaluate(assign, ii)) {
				return false
			}
			// Undo must restore the state exactly (spot-check via estimate).
			en.move(members, bnd, c1)
			if !estimatesEqual(en.estimate(ii), p.evaluate(assign, ii)) {
				return false
			}
			en.move(members, bnd, c2) // keep the move and continue
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomLevel groups the nodes of assign into macro-nodes of 1-3 members
// that share a cluster, and builds the level's refinement tables.
func randomLevel(r *rand.Rand, p *Partitioner, assign []int) *level {
	byCluster := make([][]int, p.m.Clusters)
	for v, c := range assign {
		byCluster[c] = append(byCluster[c], v)
	}
	lv := &level{}
	for _, nodes := range byCluster {
		r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for len(nodes) > 0 {
			k := min(len(nodes), 1+r.Intn(3))
			lv.groups = append(lv.groups, nodes[:k])
			nodes = nodes[k:]
		}
	}
	p.indexLevel(lv)
	return lv
}

// TestProbeMatchesAppliedMove pins the read-only screening probe: for every
// single move of every group to every other cluster, and every interchange
// with a group there, lowerBoundAfter returns exactly the lowerBoundT the
// engine reports with the candidate applied, and leaves the engine's
// state, and its zeroed scratch, exactly as it found them. The machines
// cover the shared bus, the pipelined bus and point-to-point links.
func TestProbeMatchesAppliedMove(t *testing.T) {
	ms := engineMachines()
	f := func(seed int64, mIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(30))
		m := ms[int(mIdx)%len(ms)]
		p := New(g, m, nil)
		ii := g.MII(m) + r.Intn(3)
		assign := make([]int, g.N())
		for v := range assign {
			assign[v] = r.Intn(m.Clusters)
		}
		en := newEngine(p, assign)
		lv := randomLevel(r, p, assign)
		for gi, members := range lv.groups {
			c1 := assign[members[0]]
			for c2 := 0; c2 < m.Clusters; c2++ {
				if c2 == c1 {
					continue
				}
				for gj := -1; gj < len(lv.groups); gj++ {
					if gj >= 0 && assign[lv.groups[gj][0]] != c2 {
						continue
					}
					before := snapshot(en)
					got := en.lowerBoundAfter(lv, ii, gi, c2, gj)
					if !reflect.DeepEqual(snapshot(en), before) || !probeScratchClear(en) {
						t.Logf("seed %d on %s: probing group %d → %d (swap %d) changed the engine", seed, m.Name, gi, c2, gj)
						return false
					}
					en.move(members, p.boundary(gi), c2)
					if gj >= 0 {
						en.move(lv.groups[gj], p.boundary(gj), c1)
					}
					want := en.lowerBoundT(ii)
					if gj >= 0 {
						en.move(lv.groups[gj], p.boundary(gj), c2)
					}
					en.move(members, p.boundary(gi), c1)
					if got != want {
						t.Logf("seed %d on %s: group %d → %d (swap %d): probe %d, applied %d", seed, m.Name, gi, c2, gj, got, want)
						return false
					}
					if !reflect.DeepEqual(snapshot(en), before) {
						t.Logf("seed %d on %s: apply and undo of group %d → %d (swap %d) changed the engine", seed, m.Name, gi, c2, gj)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPathBoundBelowAppliedEstimate pins the soundness of the screen
// minimizeCut runs: with the critical path recorded from the current
// estimate, as each refinement iteration records it, pathBound never
// exceeds the execution time estimateFast reports once the candidate is
// applied, for every single move and every interchange on random levels,
// and probing, applying and undoing leaves the engine's state bit for bit
// as it was. The machines cover the shared bus, the pipelined bus and
// point-to-point links.
func TestPathBoundBelowAppliedEstimate(t *testing.T) {
	ms := engineMachines()
	f := func(seed int64, mIdx uint8, regAware bool) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(30))
		m := ms[int(mIdx)%len(ms)]
		p := New(g, m, &Options{RegisterAware: regAware})
		ii := g.MII(m) + r.Intn(3)
		assign := make([]int, g.N())
		for v := range assign {
			assign[v] = r.Intn(m.Clusters)
		}
		en := newEngine(p, assign)
		lv := randomLevel(r, p, assign)
		en.estimate(ii)
		en.setPath()
		for gi, members := range lv.groups {
			c1 := assign[members[0]]
			for c2 := 0; c2 < m.Clusters; c2++ {
				if c2 == c1 {
					continue
				}
				for gj := -1; gj < len(lv.groups); gj++ {
					if gj >= 0 && assign[lv.groups[gj][0]] != c2 {
						continue
					}
					before := snapshot(en)
					lb := en.pathBound(lv, ii, gi, c2, gj, math.MaxInt64)
					en.move(members, p.boundary(gi), c2)
					if gj >= 0 {
						en.move(lv.groups[gj], p.boundary(gj), c1)
					}
					got := en.estimateFast(ii).t
					if gj >= 0 {
						en.move(lv.groups[gj], p.boundary(gj), c2)
					}
					en.move(members, p.boundary(gi), c1)
					if lb > got {
						t.Logf("seed %d on %s: group %d → %d (swap %d): path bound %d above the applied estimate %d", seed, m.Name, gi, c2, gj, lb, got)
						return false
					}
					if !reflect.DeepEqual(snapshot(en), before) || !probeScratchClear(en) {
						t.Logf("seed %d on %s: probe, apply and undo of group %d → %d (swap %d) changed the engine", seed, m.Name, gi, c2, gj)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundSound: the screening bound must never exceed the true
// estimate's execution time, for any assignment (otherwise screening could
// drop a winning candidate).
func TestLowerBoundSound(t *testing.T) {
	f := func(seed int64, mIdx uint8, regAware bool) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(30))
		ms := engineMachines()
		m := ms[int(mIdx)%len(ms)]
		opts := &Options{RegisterAware: regAware}
		p := New(g, m, opts)
		ii := g.MII(m)
		assign := make([]int, g.N())
		for v := range assign {
			assign[v] = r.Intn(m.Clusters)
		}
		en := newEngine(p, assign)
		return en.lowerBoundT(ii) <= en.estimate(ii).t
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// partitionResultsEqual compares everything Partition returns.
func partitionResultsEqual(a, b *Result) bool {
	if a.IIBus != b.IIBus || a.NComm != b.NComm || a.EstTime != b.EstTime ||
		a.EstII != b.EstII || a.Levels != b.Levels || a.Moves != b.Moves {
		return false
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			return false
		}
	}
	return true
}

// TestEngineMoveSequenceEquivalence pins the tentpole contract: the
// incremental, screened refinement chooses exactly the moves that
// exhaustive full re-evaluation of every candidate chooses, across fuzzed
// loops, machines and option sets.
func TestEngineMoveSequenceEquivalence(t *testing.T) {
	f := func(seed int64, mIdx uint8, optBits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(40))
		ms := engineMachines()
		m := ms[int(mIdx)%len(ms)]
		opts := &Options{
			Weights:       WeightScheme(optBits & 1),
			RegisterAware: optBits&2 != 0,
		}
		ii := g.MII(m)
		fast := New(g, m, opts).Partition(ii)
		ref := New(g, m, opts)
		ref.debugFullEval = true
		slow := ref.Partition(ii)
		return partitionResultsEqual(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCorpusEquivalence runs the same screened-vs-exhaustive
// comparison over the real sweep workloads (both corpora, every sweep
// machine) — the loops behind the golden sweep CSV.
func TestEngineCorpusEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide equivalence is covered by the fuzz variant in -short mode")
	}
	for _, corpus := range [][]*workload.Benchmark{workload.SPECfp95(), workload.DSP()} {
		for _, bm := range corpus {
			for _, l := range bm.Loops {
				for _, m := range machine.SweepSet() {
					if m.Clusters <= 1 {
						continue
					}
					ii := l.G.MII(m)
					if ii >= 1<<20 {
						continue // machine cannot run this loop at all
					}
					fast := New(l.G, m, nil).Partition(ii)
					ref := New(l.G, m, nil)
					ref.debugFullEval = true
					slow := ref.Partition(ii)
					if !partitionResultsEqual(fast, slow) {
						t.Fatalf("%s/%s on %s: incremental and exhaustive refinement diverge:\nfast %+v\nslow %+v",
							bm.Name, l.G.Name, m.Name, fast, slow)
					}
				}
			}
		}
	}
}

// TestBalanceFirstFit pins the destination-scan semantics of the balancing
// pass: the first feasible cluster in index order receives the evicted
// macro-node even when a later cluster is less loaded.
func TestBalanceFirstFit(t *testing.T) {
	// Cluster 0 has no FP units but holds the FP ops (infinitely
	// overloaded); clusters 1 and 2 both fit them, cluster 1 carrying one
	// FP op already, cluster 2 none.
	spec := func(fp int) machine.ClusterSpec {
		return machine.ClusterSpec{Units: [isa.NumUnitKinds]int{1, fp, 1}, Regs: 16}
	}
	m := machine.MustHetero("balance-pin",
		[]machine.ClusterSpec{spec(0), spec(2), spec(2)}, machine.SharedBus, 1, 1, false)

	g := ddgNewBalanceLoop()
	p := New(g, m, nil)
	p.computeWeights(1)
	assign := []int{0, 1, 2, 1} // FP op in cluster 0; glue elsewhere
	lv := &level{groups: [][]int{{0}, {1}, {2}, {3}}}
	p.indexLevel(lv)

	en := newEngine(p, assign)
	if moves := p.balance(lv, en, 1); moves == 0 {
		t.Fatal("balance did not move the stranded FP op")
	}
	if assign[0] != 1 {
		t.Errorf("first-fit: FP op moved to cluster %d, want 1 (first feasible)", assign[0])
	}
}

// ddgNewBalanceLoop is the four-op loop behind TestBalanceFirstFit: one FP
// op stranded on a cluster without FP units, one FP op pre-loading cluster
// 1, and two int ops as glue.
func ddgNewBalanceLoop() *ddg.Graph {
	g := ddg.New("balance-pin", 10)
	a := g.AddNode(isa.FPAdd, "stranded")
	b := g.AddNode(isa.FPAdd, "preload")
	c := g.AddNode(isa.IntALU, "glue1")
	d := g.AddNode(isa.IntALU, "glue2")
	g.AddDep(a, c, 0)
	g.AddDep(b, d, 0)
	return g
}
