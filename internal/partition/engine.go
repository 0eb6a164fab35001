// Incremental partition-evaluation engine.
//
// The refinement heuristics of §3.2.2 probe thousands of candidate moves
// per level; re-deriving the cut-edge set, per-cluster unit counts and
// interconnect tallies from the full assignment for every probe is
// O(candidates × (V+E)) before the longest-path analysis even starts. The
// engine instead delta-maintains that state under an apply/undo move API:
// moving a macro-node touches only its boundary data edges (those with
// exactly one endpoint in it, listed per group by the refinement level's
// tables), so the time estimate pays O(boundary edges) for the move and
// the undo around its longest-path analysis.
//
// Most candidates never get that far. pathBound screens a single move or
// an interchange without applying it: from the groups' unit counts and
// their boundary edges it derives the resource II and the bus or link II
// the move would leave, and from those and one critical path of the
// current assignment (setPath) a proven lower bound on the execution
// time. A candidate that leaves the path's cut edges and the II as they
// are is typically bounded by exactly the current time, so the bound
// rejects almost every candidate; only the ones it cannot reject are
// applied, estimated and undone. setPath also tabulates, once per
// refinement iteration, what every candidate's probe would otherwise
// recompute from state no probe changes: each cluster's resource II, and
// the path's latency under the current cut with the groups that can
// change it stamped, so a candidate moving neither stamped group skips
// the path walk.
//
// Invariants (held between moves, checked by the engine equivalence test):
//   - cut[ei] ⇔ edge ei is a Data edge with endpoints in different clusters
//   - extra[ei] = LatBus when cut[ei], else 0
//   - nCut = |{ei : cut[ei]}|
//   - counts[c][k] = number of nodes of unit kind k assigned to cluster c
//   - crossOut[v] = number of cut outgoing data edges of v;
//     nComm = |{v : crossOut[v] > 0}|
//   - point-to-point only: destCnt[v·C+d] = cut out-edges of v into cluster
//     d; perLink[h·C+d] = |{(v,d) : assign[v]=h, destCnt[v·C+d] > 0}|
//   - between probes, the probe scratch dOut, dDest and dLink is all zero
//
// move(members, bnd, c2) is an exact inverse of move(members, bnd, c1):
// every tally is integral and updated symmetrically, so apply → undo
// restores the state bit for bit, and a probe leaves it untouched.
package partition

import (
	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
)

// engine carries the delta-maintained evaluation state for one Partitioner
// run. Its assign slice aliases the caller's: moves mutate it in place.
type engine struct {
	p      *Partitioner
	assign []int

	cut      []bool // per edge: cut Data edge
	extra    []int  // per edge: LatBus on cut Data edges, 0 otherwise
	nCut     int
	counts   [][isa.NumUnitKinds]int // per-cluster op counts by unit kind
	crossOut []int                   // per node: cut outgoing Data edges
	nComm    int
	destCnt  []int // node·C+dest tallies (point-to-point only, else nil)
	perLink  []int // home·C+dest distinct-transfer counts (p2p only)

	// Probe scratch (xferAfter): an interchange's boundary edges,
	// and the candidate's changes to crossOut (shared bus) or to destCnt
	// and perLink (point-to-point), all zero between probes.
	cand  []int
	dOut  []int
	dDest []int
	dLink []int

	// The critical path setPath recorded for pathBound: its data edges,
	// its total distance, and its latency with no edge cut (the edges'
	// latencies plus its last node's) and under the current cut (plus
	// LatBus per cut data edge); pathOK reports that a path was recorded
	// and that niter−1 ≥ pathDist. A node is on the current walk when its
	// onPath entry equals pathGen, and a group owns an endpoint of a path
	// data edge between two groups when its pathGroup entry does.
	pathData   []int
	pathDist   int
	pathLat    int64
	pathCutLat int64
	pathOK     bool
	onPath     []int
	pathGroup  []int
	pathGen    int

	// Per cluster: its units of each kind, and as setPath last tabulated
	// them from counts, each kind's resource II (kindII) and the largest of
	// those; and the clusters with the three largest, largest first (-1
	// past the cluster count).
	units [][isa.NumUnitKinds]int
	kII   [][isa.NumUnitKinds]int
	clII  []int
	topII [3]int

	times ddg.Times // reusable start-time buffers for the estimates
}

// newEngine returns the partitioner's arena-owned engine, synchronized with
// assign. Reset rebuilds every tally, so whatever a previous run left in the
// arena cannot leak into this one.
func newEngine(p *Partitioner, assign []int) *engine {
	en := &p.ar.en
	en.p = p
	en.reset(assign)
	return en
}

// reset rebuilds the full state from assign (which the engine aliases and
// mutates on move).
func (en *engine) reset(assign []int) {
	g, m := en.p.g, en.p.m
	en.assign = assign
	nE, n, c := len(g.Edges), g.N(), m.Clusters

	en.cut = resizeBools(en.cut, nE)
	en.extra = resizeInts(en.extra, nE)
	for i := 0; i < nE; i++ {
		en.cut[i], en.extra[i] = false, 0
	}
	en.crossOut = zeroInts(en.crossOut, n)
	en.dOut = zeroInts(en.dOut, n)
	en.onPath = zeroInts(en.onPath, n)
	en.pathGroup = zeroInts(en.pathGroup, n)
	en.pathGen, en.pathOK = 0, false
	en.counts = resizeKinds(en.counts, c)
	en.units = resizeKinds(en.units, c)
	for i := range en.counts {
		en.counts[i] = [isa.NumUnitKinds]int{}
		for k := range en.units[i] {
			en.units[i][k] = m.UnitsIn(i, isa.UnitKind(k))
		}
	}
	en.destCnt, en.perLink = nil, nil
	if m.Topology == machine.PointToPoint {
		en.destCnt = zeroInts(en.destCnt, n*c)
		en.perLink = zeroInts(en.perLink, c*c)
		en.dDest = zeroInts(en.dDest, n*c)
		en.dLink = zeroInts(en.dLink, c*c)
	}
	en.nCut, en.nComm = 0, 0

	for v, nd := range g.Nodes {
		en.counts[assign[v]][nd.Op.Unit()]++
	}
	for ei := range g.Edges {
		en.admit(ei)
	}
}

// admit installs edge ei's contribution to the cut state if it is a Data
// edge crossing clusters under the current assignment.
func (en *engine) admit(ei int) {
	g, m := en.p.g, en.p.m
	e := &g.Edges[ei]
	if e.Kind != ddg.Data || en.assign[e.From] == en.assign[e.To] {
		return
	}
	en.cut[ei] = true
	en.extra[ei] = m.LatBus
	en.nCut++
	if en.crossOut[e.From]++; en.crossOut[e.From] == 1 {
		en.nComm++
	}
	if en.destCnt != nil {
		c := m.Clusters
		di := e.From*c + en.assign[e.To]
		if en.destCnt[di]++; en.destCnt[di] == 1 {
			en.perLink[en.assign[e.From]*c+en.assign[e.To]]++
		}
	}
}

// retire removes edge ei's contribution, if any, under the current
// assignment (the exact inverse of the admit that installed it).
func (en *engine) retire(ei int) {
	if !en.cut[ei] {
		return
	}
	g, m := en.p.g, en.p.m
	e := &g.Edges[ei]
	en.cut[ei] = false
	en.extra[ei] = 0
	en.nCut--
	if en.crossOut[e.From]--; en.crossOut[e.From] == 0 {
		en.nComm--
	}
	if en.destCnt != nil {
		c := m.Clusters
		di := e.From*c + en.assign[e.To]
		if en.destCnt[di]--; en.destCnt[di] == 0 {
			en.perLink[en.assign[e.From]*c+en.assign[e.To]]--
		}
	}
}

// move reassigns every member of one macro-node to cluster c2, updating the
// state in O(|members| + |bnd|). bnd lists the group's boundary data edges,
// each once: edges with both endpoints in the group stay uncut wherever it
// goes. Undo is move(members, bnd, c1) with the original cluster.
func (en *engine) move(members, bnd []int, c2 int) {
	g := en.p.g
	for _, ei := range bnd {
		en.retire(ei)
	}
	for _, v := range members {
		k := g.Nodes[v].Op.Unit()
		en.counts[en.assign[v]][k]--
		en.counts[c2][k]++
		en.assign[v] = c2
	}
	for _, ei := range bnd {
		en.admit(ei)
	}
}

// xfer returns the interconnect II bound and communicated-value count from
// the maintained tallies (same contract as iiXfer).
func (en *engine) xfer() (iiBus, nComm int) {
	m := en.p.m
	if m.Clusters <= 1 || m.NBus == 0 {
		return 0, 0
	}
	occ := m.XferOccupancy()
	if en.destCnt != nil {
		for _, cnt := range en.perLink {
			if v := ceilDiv(cnt*occ, m.NBus); v > iiBus {
				iiBus = v
			}
		}
		return iiBus, en.nComm
	}
	return ceilDiv(en.nComm*occ, m.NBus), en.nComm
}

// estimateFast computes the §3.2.2 quality estimate for the current
// assignment from the maintained state, all but the cut-slack tie-break:
// only the forward (ASAP) longest-path analysis runs on the graph, as the
// cut set, counts and interconnect tallies are already up to date. The ALAP
// pass and the per-edge slack sum are deferred to finishSlack and run only
// for candidates whose primary key is competitive; with it, the estimate
// is bit-identical to Partitioner.evaluate's. est.cutSlack is left 0 and
// est.slackII records the II the deferred slacks are defined at.
func (en *engine) estimateFast(ii int) estimate {
	p := en.p
	g, m := p.g, p.m
	var est estimate
	est.nCut = en.nCut
	est.iiBus, est.nComm = en.xfer()

	resII := resIIFrom(m, en.counts)
	base := ii
	if resII > base {
		base = resII
	}
	if est.iiBus > base {
		base = est.iiBus
	}
	t, used := g.EstimateTimeInto(m, base, en.extra, &en.times)
	est.t, est.ii = t, used
	est.slackII = used
	p.usedMin = min(p.usedMin, used)

	if p.opts.RegisterAware {
		if extraMemII := p.spillPressureII(en.assign, &en.times, en.counts); extraMemII > used {
			t2, used2 := g.EstimateTimeInto(m, extraMemII, en.extra, &en.times)
			est.t, est.ii = t2, used2
		}
	}
	return est
}

// iterationEstimate returns the estimate a refinement iteration compares
// its candidates against, and leaves en.times holding the forward times at
// the estimate's slack II for setPath. It needs no cut-slack tie-break, as
// a winner must beat its t strictly; when the register-aware pass left the
// times at its own II, the forward pass is re-run at the slack II.
func (en *engine) iterationEstimate(ii int) estimate {
	if h := reference; h != nil && h.estimate != nil {
		return h.estimate(en, ii)
	}
	est := en.estimateFast(ii)
	if en.times.II != est.slackII {
		en.p.g.EstimateTimeInto(en.p.m, est.slackII, en.extra, &en.times)
	}
	return est
}

// finishSlack completes a fast estimate with its cut-slack tie-break. Must
// be called before the next move/estimate on the engine (it reuses the
// forward times estimateFast left behind when they are still at the slack
// II; the register-aware pass may have advanced them, in which case the
// forward pass is re-run).
func (en *engine) finishSlack(est *estimate) {
	g, m := en.p.g, en.p.m
	if en.times.II != est.slackII {
		if !g.StartTimesInto(m, est.slackII, en.extra, &en.times) {
			panic("partition: slack II infeasible") // unreachable: it was used for the estimate
		}
	} else {
		g.LatestInto(m, en.extra, &en.times)
	}
	for i := range g.Edges {
		if en.cut[i] {
			est.cutSlack += int64(g.Slack(&en.times, i, en.extra))
		}
	}
}

// timeBound returns a proven lower bound on the estimate's execution time
// for an assignment with resource MII resII and interconnect II iiBus,
// without running the longest-path analysis: the estimator never uses an
// II below max(ii, resII, iiBus), and the schedule length is at least the
// largest single-operation latency (every node starts at cycle ≥ 0), so
// T = (niter−1)·II + SL is bounded below accordingly. The register-aware
// pass can only raise the II, so the bound holds there too.
func (p *Partitioner) timeBound(ii, resII, iiBus int) int64 {
	return int64(p.g.Niter-1)*int64(max(ii, resII, iiBus)) + int64(p.maxOpLat)
}

// resIIProbe returns the resource MII of the assignment the refinement
// candidate would leave — group gi of level lv moved from its cluster c1
// to cluster c2 and, when gj ≥ 0, group gj moved to c1 — without applying
// it: resIIFrom of the moved counts. Only c1's and c2's counts change, and
// only in the kinds the candidate moves a net number of operations of, so
// every other cluster, and every other kind of c1 and c2, keeps the
// resource II setPath tabulated; the largest other cluster's is among the
// top three.
func (en *engine) resIIProbe(lv *level, gi, c1, c2, gj int) int {
	gcs := en.p.groupCountsOf(lv)
	resII := 1
	for k := range isa.NumUnitKinds {
		d := gcs[gi][k]
		if gj >= 0 {
			d -= gcs[gj][k]
		}
		if d == 0 {
			resII = max(resII, en.kII[c1][k], en.kII[c2][k])
		} else {
			resII = max(resII, kindII(en.counts[c1][k]-d, en.units[c1][k]), kindII(en.counts[c2][k]+d, en.units[c2][k]))
		}
	}
	for _, c := range en.topII {
		if c != c1 && c != c2 {
			if c >= 0 {
				resII = max(resII, en.clII[c])
			}
			break
		}
	}
	return resII
}

// setResII tabulates each cluster's resource II under the current counts,
// by unit kind and in all, and the three clusters with the largest, for
// resIIProbe.
func (en *engine) setResII() {
	n := en.p.m.Clusters
	en.kII = resizeKinds(en.kII, n)
	en.clII = resizeInts(en.clII, n)
	en.topII = [3]int{-1, -1, -1}
	for c := range en.clII {
		v := 0
		for k, n := range en.counts[c] {
			en.kII[c][k] = kindII(n, en.units[c][k])
			v = max(v, en.kII[c][k])
		}
		en.clII[c] = v
		for i := range en.topII {
			if t := en.topII[i]; t < 0 || v > en.clII[t] {
				copy(en.topII[i+1:], en.topII[i:])
				en.topII[i] = c
				break
			}
		}
	}
}

// setPath records one longest path of the current assignment for
// pathBound, from the ASAP times en.times holds (as estimateFast leaves
// them, at the estimate's slackII): it starts at the first node that sets
// SL and walks back along tight arcs, Earliest[u] + lat + extra − II·dist
// = Earliest[v], until it reaches a node that starts at cycle 0 or one it
// has already visited. It then tabulates the per-iteration state of
// pathBound's probes (the path's cut latency and the groups that can
// change it, on the level indexLevel last built, and each cluster's
// resource II), which holds until the next move.
func (en *engine) setPath() {
	g, m, t := en.p.g, en.p.m, &en.times
	v := 0
	for t.Earliest[v]+m.OpLatency(g.Nodes[v].Op) != t.SL {
		v++ // SL is the largest Earliest + latency, so some node sets it
	}
	en.pathData = en.pathData[:0]
	en.pathDist, en.pathLat = 0, int64(m.OpLatency(g.Nodes[v].Op))
	en.pathGen++
	en.onPath[v] = en.pathGen
	for t.Earliest[v] > 0 {
		next := -1
		for _, ei := range g.In(v) {
			e := &g.Edges[ei]
			if t.Earliest[e.From]+e.Lat+en.extra[ei]-t.II*e.Dist == t.Earliest[v] {
				next = ei
				break
			}
		}
		if next < 0 || en.onPath[g.Edges[next].From] == en.pathGen {
			break
		}
		e := &g.Edges[next]
		if e.Kind == ddg.Data {
			en.pathData = append(en.pathData, next)
		}
		en.pathDist += e.Dist
		en.pathLat += int64(e.Lat)
		v = e.From
		en.onPath[v] = en.pathGen
	}
	en.pathOK = g.Niter-1 >= en.pathDist

	// A data edge inside one group is never cut, wherever the group goes,
	// so only a candidate moving a group that owns an endpoint of a path
	// data edge between two groups can change the path's cut latency.
	owner := en.p.ar.owner
	en.pathCutLat = en.pathLat
	for _, ei := range en.pathData {
		e := &g.Edges[ei]
		if en.cut[ei] {
			en.pathCutLat += int64(m.LatBus)
		}
		if a, b := owner[e.From], owner[e.To]; a != b {
			en.pathGroup[a], en.pathGroup[b] = en.pathGen, en.pathGen
		}
	}
	en.setResII()
}

// pathBound returns a proven lower bound on the execution time of the
// assignment the refinement candidate would leave — group gi of level lv
// moved to cluster c2 and, when gj ≥ 0, group gj moved to gi's cluster —
// without applying it: the engine's state is only read, and the probe
// scratch is left zeroed. It needs the level's tables (indexLevel).
//
// The bound is the larger of timeBound and a term from the critical path
// P that setPath recorded. Every node starts at cycle ≥ 0 and every arc
// u → v holds Earliest[v] ≥ Earliest[u] + lat + extra − II·dist, so at
// any II the schedule length is at least L − II·D, where D is P's total
// distance and L its latency under the candidate's cut: its edges'
// latencies, the bus latency on each of its data edges the candidate
// leaves cut, and its last node's latency; a candidate that moves no
// group setPath stamped leaves every path edge's cut state, so its L is
// the current one. The estimator's II is at least
// IIlb = max(ii, resII′, iiBus′), so T = (niter−1)·II + SL is at least
// (niter−1−D)·IIlb + L when niter−1 ≥ D; the path term is used only then.
// When P starts at cycle 0, L − II·D is the current SL, so a candidate
// that leaves P's cut edges as they are and IIlb at the current
// estimate's II is bounded by exactly the current time, and the screen
// rejects it.
//
// Both terms only grow with the II, so a bound computed without the
// interconnect II is a lower bound too. When that bound already reaches
// floor, pathBound returns it without deriving iiBus′ (xferAfter): the
// caller rejects every candidate whose bound reaches floor.
func (en *engine) pathBound(lv *level, ii, gi, c2, gj int, floor int64) int64 {
	p := en.p
	g, c1 := p.g, en.assign[lv.groups[gi][0]]
	resII := en.resIIProbe(lv, gi, c1, c2, gj)
	l := en.pathCutLat
	if en.pathOK && (en.pathGroup[gi] == en.pathGen || gj >= 0 && en.pathGroup[gj] == en.pathGen) {
		l = en.pathLat
		owner := p.ar.owner
		for _, ei := range en.pathData {
			e := &g.Edges[ei]
			if movedCluster(owner, en.assign, e.From, gi, c1, c2, gj) != movedCluster(owner, en.assign, e.To, gi, c1, c2, gj) {
				l += int64(p.m.LatBus)
			}
		}
	}
	bound := func(iiBus int) int64 {
		lb := p.timeBound(ii, resII, iiBus)
		if en.pathOK {
			lb = max(lb, int64(g.Niter-1-en.pathDist)*int64(max(ii, resII, iiBus))+l)
		}
		return lb
	}
	if lb := bound(0); lb >= floor {
		return lb
	}
	return bound(en.xferAfter(lv, gi, c1, c2, gj))
}

// movedCluster returns node v's cluster once group gi (in cluster c1) has
// moved to c2 and, when gj ≥ 0, group gj to c1, from the level's owner
// table (indexLevel) and the current assignment.
func movedCluster(owner, assign []int, v, gi, c1, c2, gj int) int {
	switch owner[v] {
	case gi:
		return c2
	case gj:
		return c1
	}
	return assign[v]
}

// xferAfter returns the interconnect II bound xfer would report after the
// candidate pathBound describes. Only the candidate's boundary edges
// can change cut state, and only their sources' crossOut and destCnt
// tallies; those changes accumulate in the probe scratch, and each touched
// tally's zero crossing is then applied once (its scratch entry is zeroed
// on the way, so a later visit skips it).
func (en *engine) xferAfter(lv *level, gi, c1, c2, gj int) int {
	p := en.p
	g, m, owner := p.g, p.m, p.ar.owner
	if m.Clusters <= 1 || m.NBus == 0 {
		return 0
	}
	// after is a node's cluster once the candidate is applied.
	after := func(v int) int { return movedCluster(owner, en.assign, v, gi, c1, c2, gj) }
	edges := p.boundary(gi)
	if gj >= 0 {
		// An interchange moves gj too. An edge between the two groups is
		// on both lists, and counting it twice changes nothing: it is cut
		// before and after, so the shared bus sees no change, and on
		// point-to-point links it adds only to pairs of a moving source
		// whose outcome is settled anyway: (source, new cluster) ends at
		// zero, (source, old cluster) above zero.
		edges = append(append(en.cand[:0], edges...), p.boundary(gj)...)
		en.cand = edges
	}
	occ := m.XferOccupancy()

	if en.destCnt == nil {
		// Shared bus: nComm counts the nodes with a cut outgoing edge.
		for _, ei := range edges {
			e := &g.Edges[ei]
			if cut := after(e.From) != after(e.To); cut != en.cut[ei] {
				if cut {
					en.dOut[e.From]++
				} else {
					en.dOut[e.From]--
				}
			}
		}
		nComm := en.nComm
		for _, ei := range edges {
			v := g.Edges[ei].From
			if d := en.dOut[v]; d != 0 {
				en.dOut[v] = 0
				nComm += b2i(en.crossOut[v]+d > 0) - b2i(en.crossOut[v] > 0)
			}
		}
		return ceilDiv(nComm*occ, m.NBus)
	}

	// Point-to-point: perLink counts the (source, destination cluster)
	// pairs with a cut edge on the link out of the source's cluster.
	c := m.Clusters
	for _, ei := range edges {
		e := &g.Edges[ei]
		if en.cut[ei] {
			en.dDest[e.From*c+en.assign[e.To]]--
		}
		if hf, ht := after(e.From), after(e.To); hf != ht {
			en.dDest[e.From*c+ht]++
		}
	}
	// A moving node's pairs all change links, whether or not their counts
	// change: its cut edges all cross the group boundary, so every pair it
	// has, before or after, is in its row of dDest's domain.
	for _, gk := range [2]int{gi, gj} {
		if gk < 0 {
			continue
		}
		for _, v := range lv.groups[gk] {
			from, to := en.assign[v]*c, after(v)*c
			for d := 0; d < c; d++ {
				k := v*c + d
				en.dLink[from+d] -= b2i(en.destCnt[k] > 0)
				en.dLink[to+d] += b2i(en.destCnt[k]+en.dDest[k] > 0)
				en.dDest[k] = 0
			}
		}
	}
	// A staying source keeps its link row; a pair changes only when its
	// count crosses zero. Its edge's destination moves, so both the old
	// and the new destination cluster may have changed.
	for _, ei := range edges {
		e := &g.Edges[ei]
		if o := owner[e.From]; o == gi || o == gj {
			continue
		}
		row := en.assign[e.From] * c
		for _, d := range [2]int{en.assign[e.To], after(e.To)} {
			k := e.From*c + d
			if dd := en.dDest[k]; dd != 0 {
				en.dDest[k] = 0
				en.dLink[row+d] += b2i(en.destCnt[k]+dd > 0) - b2i(en.destCnt[k] > 0)
			}
		}
	}
	iiBus := 0
	for l, cnt := range en.perLink {
		if v := ceilDiv((cnt+en.dLink[l])*occ, m.NBus); v > iiBus {
			iiBus = v
		}
		en.dLink[l] = 0
	}
	return iiBus
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
