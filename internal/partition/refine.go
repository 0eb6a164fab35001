package partition

import (
	"math"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
)

// estimate is the partition-quality estimate of §3.2.2: execution time on a
// hypothetical machine with the real functional units, buses and memory
// ports but unlimited registers and ideal memory.
type estimate struct {
	t        int64 // estimated execution time, cycles
	ii       int   // II the estimate was computed at
	iiBus    int
	nComm    int
	cutSlack int64 // total slack of inter-cluster data edges (tie-break 1)
	nCut     int   // number of inter-cluster data edges (tie-break 2)
	slackII  int   // II cutSlack is defined at (engine.finishSlack bookkeeping)
}

// better reports whether a is preferable to b under the paper's ordering:
// smaller execution time; then larger cut slack; then fewer cut edges.
func (a estimate) better(b estimate) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.cutSlack != b.cutSlack {
		return a.cutSlack > b.cutSlack
	}
	return a.nCut < b.nCut
}

// scratch is the Partitioner's persistent evaluation arena: every buffer
// the estimator needs, allocated once and reused across all evaluations so
// the refinement inner loop runs allocation-free in the steady state.
type scratch struct {
	counts   [][isa.NumUnitKinds]int // per-cluster op counts by unit kind
	times    ddg.Times               // start-time buffers for the estimator
	lifetime []int64                 // spillPressureII per-cluster lifetimes
	xfer     xferScratch             // interconnect-tally buffers
	dests    []int                   // candidate destination clusters
	destSeen []bool                  // per-cluster dedupe marks
	slack    []int                   // computeWeights per-edge slack
	probe    []int                   // computeWeights delay(e) probe extras
	recOf    []int                   // computeWeights per-node recurrence, -1 for none
}

// evaluate computes the estimate for an assignment at scheduling interval
// ii, from scratch but into the persistent arena (no allocation in the
// steady state). Cut data edges receive the bus latency; the II used is the
// maximum of ii, the per-cluster resource MII, IIbus and the recurrence MII
// of the latency-extended graph.
func (p *Partitioner) evaluate(assign []int, ii int) estimate {
	g, m := p.g, p.m
	for i := range p.extra {
		p.extra[i] = 0
	}
	var est estimate
	for i, e := range g.Edges {
		if e.Kind == ddg.Data && assign[e.From] != assign[e.To] {
			p.extra[i] = m.LatBus
			est.nCut++
		}
	}
	est.iiBus, est.nComm = p.sc.xfer.compute(g, m, assign)

	counts := p.clusterCountsInto(assign)
	resII := resIIFrom(m, counts)

	base := ii
	if resII > base {
		base = resII
	}
	if est.iiBus > base {
		base = est.iiBus
	}
	t, used := g.EstimateTimeInto(m, base, p.extra, &p.sc.times)
	est.t, est.ii = t, used
	est.slackII = used
	p.usedMin = min(p.usedMin, used)

	// Complete the ALAP times at used for the cut-slack tie-break.
	g.LatestInto(m, p.extra, &p.sc.times)
	for i, e := range g.Edges {
		if e.Kind == ddg.Data && assign[e.From] != assign[e.To] {
			est.cutSlack += int64(g.Slack(&p.sc.times, i, p.extra))
		}
	}

	if p.opts.RegisterAware {
		// Estimate per-cluster register pressure from the ASAP lifetimes
		// and charge the spill traffic of overflowing values as extra
		// memory-port load, possibly raising the II (ablation A6 in
		// cmd/gpbench; the paper's §4.2 future-work suggestion).
		if extraMemII := p.spillPressureII(assign, &p.sc.times, counts); extraMemII > used {
			t2, used2 := g.EstimateTimeInto(m, extraMemII, p.extra, &p.sc.times)
			est.t, est.ii = t2, used2
		}
	}
	return est
}

// resIIFrom returns the per-cluster resource MII (heterogeneous unit mixes:
// each cluster is bounded by its own units).
func resIIFrom(m *machine.Config, counts [][isa.NumUnitKinds]int) int {
	return resIIMoved(m, counts, 0, 0, [isa.NumUnitKinds]int{})
}

// resIIMoved is resIIFrom for counts with d's operations moved from
// cluster c1 to cluster c2 (d may be negative: an interchange moves the
// difference of the two groups' counts), without modifying counts.
func resIIMoved(m *machine.Config, counts [][isa.NumUnitKinds]int, c1, c2 int, d [isa.NumUnitKinds]int) int {
	resII := 1
	for c := 0; c < m.Clusters; c++ {
		for k := 0; k < isa.NumUnitKinds; k++ {
			cnt := counts[c][k]
			switch c {
			case c1:
				cnt -= d[k]
			case c2:
				cnt += d[k]
			}
			if cnt == 0 {
				continue
			}
			units := m.UnitsIn(c, isa.UnitKind(k))
			if units == 0 {
				resII = 1 << 20 // unschedulable partition
				continue
			}
			if v := ceilDiv(cnt, units); v > resII {
				resII = v
			}
		}
	}
	return resII
}

// spillPressureII estimates, per cluster, the steady-state register
// pressure Σ lifetimes / II; values beyond the register file each cost a
// store and a load per iteration on the cluster's memory ports. It returns
// the resulting resource-MII bound (which equals times.II when nothing
// overflows).
func (p *Partitioner) spillPressureII(assign []int, times *ddg.Times, counts [][isa.NumUnitKinds]int) int {
	g, m := p.g, p.m
	ii := times.II
	lifetime := resizeInt64s(p.sc.lifetime, m.Clusters)
	p.sc.lifetime = lifetime
	for i := range lifetime {
		lifetime[i] = 0
	}
	for u := range g.Nodes {
		if !g.Nodes[u].Op.ProducesValue() {
			continue
		}
		def := times.Earliest[u] + m.OpLatency(g.Nodes[u].Op)
		end := def + 1
		for _, ei := range g.Out(u) {
			e := g.Edges[ei]
			if e.Kind != ddg.Data {
				continue
			}
			if use := times.Earliest[e.To] + ii*e.Dist + 1; use > end {
				end = use
			}
		}
		lifetime[assign[u]] += int64(end - def)
	}
	worst := ii
	for c := 0; c < m.Clusters; c++ {
		memUnits := m.UnitsIn(c, isa.MemUnit)
		if memUnits == 0 {
			continue
		}
		maxLive := int((lifetime[c] + int64(ii) - 1) / int64(ii))
		over := maxLive - m.RegsIn(c)
		if over <= 0 {
			continue
		}
		memOps := counts[c][isa.MemUnit] + 2*over
		if v := ceilDiv(memOps, memUnits); v > worst {
			worst = v
		}
	}
	return worst
}

// clusterCountsInto fills the scratch per-cluster operation counts by unit
// kind and returns them.
func (p *Partitioner) clusterCountsInto(assign []int) [][isa.NumUnitKinds]int {
	if cap(p.sc.counts) >= p.m.Clusters {
		p.sc.counts = p.sc.counts[:p.m.Clusters]
	} else {
		p.sc.counts = make([][isa.NumUnitKinds]int, p.m.Clusters)
	}
	counts := p.sc.counts
	for i := range counts {
		counts[i] = [isa.NumUnitKinds]int{}
	}
	for v, n := range p.g.Nodes {
		counts[assign[v]][n.Op.Unit()]++
	}
	return counts
}

// groupCounts returns the per-unit-kind operation counts of one macro-node.
func (p *Partitioner) groupCounts(members []int) [isa.NumUnitKinds]int {
	var c [isa.NumUnitKinds]int
	for _, v := range members {
		c[p.g.Nodes[v].Op.Unit()]++
	}
	return c
}

// groupCountsOf returns the level's per-group unit counts, computed once
// (the groups of a level never change; only their cluster assignment does).
func (p *Partitioner) groupCountsOf(lv *level) [][isa.NumUnitKinds]int {
	if !lv.gcsOK {
		if cap(lv.gcs) >= len(lv.groups) {
			lv.gcs = lv.gcs[:len(lv.groups)]
		} else {
			lv.gcs = make([][isa.NumUnitKinds]int, len(lv.groups))
		}
		for gi, members := range lv.groups {
			lv.gcs[gi] = p.groupCounts(members)
		}
		lv.gcsOK = true
	}
	return lv.gcs
}

// maxMoves returns the refinement move cap for one level, a safety valve.
func (p *Partitioner) maxMoves() int {
	return 4*p.g.N() + 16
}

// balance implements the workload-balancing heuristic (§3.2.2): while any
// per-cluster resource exceeds 100% utilization at the current II estimate,
// move macro-nodes that use the most saturated resource out of the
// overloaded cluster, provided the destination does not become overloaded
// on that resource or any more-critical resource already handled.
func (p *Partitioner) balance(lv *level, en *engine, ii int) int {
	m := p.m
	moves := 0
	limit := p.maxMoves()
	gcs := p.groupCountsOf(lv)
	for moves < limit {
		// Only the capping II is needed here — skip the cut-slack
		// tie-break half of the estimate.
		cur := en.estimateFast(ii)
		capII := cur.ii
		counts := en.counts

		// Find the most saturated overloaded (cluster, kind), measured by
		// utilization ratio ops/(units·II).
		worstC, worstK, worstRatio, found := 0, 0, 0.0, false
		for c := 0; c < m.Clusters; c++ {
			for k := 0; k < isa.NumUnitKinds; k++ {
				units := m.UnitsIn(c, isa.UnitKind(k))
				if counts[c][k] == 0 || counts[c][k] <= units*capII {
					continue
				}
				// A cluster with zero units of a kind it was assigned ops of
				// is infinitely overloaded: those ops can never issue there.
				r := math.Inf(1)
				if units > 0 {
					r = float64(counts[c][k]) / float64(units*capII)
				}
				if !found || r > worstRatio {
					worstC, worstK, worstRatio, found = c, k, r, true
				}
			}
		}
		if !found {
			return moves // nothing overloaded
		}

		// Try moving a group that uses the overloaded resource out of the
		// cluster, preferring the group whose departure relieves the most.
		// The destination scan is first-fit: the first feasible cluster in
		// index order wins (see TestBalanceFirstFit).
		bestGi, bestC2, bestUse := -1, -1, 0
		for gi := range lv.groups {
			members := lv.groups[gi]
			if len(members) == 0 || en.assign[members[0]] != worstC {
				continue
			}
			gc := gcs[gi]
			if gc[worstK] == 0 {
				continue
			}
			destC2 := -1
			for c2 := 0; c2 < m.Clusters; c2++ {
				if c2 == worstC {
					continue
				}
				units := m.UnitsIn(c2, isa.UnitKind(worstK))
				if counts[c2][worstK]+gc[worstK] > units*capII {
					continue // would overload the destination
				}
				destC2 = c2
				break
			}
			if destC2 >= 0 && gc[worstK] > bestUse {
				bestGi, bestC2, bestUse = gi, destC2, gc[worstK]
			}
		}
		if bestGi == -1 {
			// No beneficial movement at this granularity; wait for a finer
			// level (paper: "we wait for the next step").
			return moves
		}
		en.move(lv.groups[bestGi], p.boundary(bestGi), bestC2)
		moves++
	}
	return moves
}

// minimizeCut implements the cut-impact heuristic (§3.2.2): repeatedly
// evaluate all single macro-node moves toward a neighbor's cluster and,
// when resources do not allow a move, all pair interchanges; apply the
// transformation with the largest execution-time benefit (ties: maximize
// slack of cut edges, then minimize the cut size); stop when no
// transformation has positive benefit.
//
// Candidate evaluation is incremental: each candidate is first screened
// against a proven lower bound on its execution time, computed without
// applying it from the IIs it would leave and the iteration's critical
// path (engine.pathBound), and only when the bound cannot rule it out is
// it applied to the engine (O(boundary edges)), estimated and undone. The
// screen is conservative — a rejected candidate's true estimate is
// strictly worse than the incumbent's on the primary key — so the chosen
// move sequence is identical to exhaustive full evaluation
// (TestEngineMoveSequenceEquivalence pins this).
func (p *Partitioner) minimizeCut(lv *level, en *engine, ii int) int {
	m := p.m
	moves := 0
	limit := p.maxMoves()
	gcs := p.groupCountsOf(lv)
	nbrHead, nbrList := p.ar.nbrHead, p.ar.nbrList
	p.sc.destSeen = resizeBools(p.sc.destSeen, m.Clusters)
	for i := range p.sc.destSeen {
		p.sc.destSeen[i] = false
	}

	for moves < limit {
		cur := en.estimate(ii)
		en.setPath()
		counts := en.counts
		capII := cur.ii

		type move struct {
			gi, c2 int // single move: group gi → cluster c2
			swapGj int // ≥ 0: interchange with group gj (in c2)
			est    estimate
		}
		var best move
		haveBest := false

		// apply performs a candidate on the engine; undo reverses it.
		apply := func(mv move) (c1 int) {
			c1 = en.assign[lv.groups[mv.gi][0]]
			en.move(lv.groups[mv.gi], p.boundary(mv.gi), mv.c2)
			if mv.swapGj >= 0 {
				en.move(lv.groups[mv.swapGj], p.boundary(mv.swapGj), c1)
			}
			return c1
		}
		undo := func(mv move, c1 int) {
			if mv.swapGj >= 0 {
				en.move(lv.groups[mv.swapGj], p.boundary(mv.swapGj), mv.c2)
			}
			en.move(lv.groups[mv.gi], p.boundary(mv.gi), c1)
		}

		// consider estimates one candidate in three stages of increasing
		// cost, each rejecting only candidates that provably cannot change
		// the chosen move. The best candidate is taken only when its t is
		// strictly below cur.t, and a candidate displaces the incumbent
		// only when it at least ties best's t — so t ≥ cur.t (or a lower
		// bound on t ≥ cur.t) rules a candidate out entirely: any real
		// winner beats it on the primary key, and when no winner exists the
		// iteration terminates identically. The stages:
		//  1. a closed-form lower bound on t from the IIs the candidate
		//     would leave and the critical path setPath recorded, probed
		//     without applying the candidate,
		//  2. the exact t (forward longest-path analysis only),
		//  3. the cut-slack tie-break (ALAP pass), computed last and only
		//     for candidates still in the running.
		// Under debugFullEval every candidate is applied and evaluated in
		// full.
		consider := func(mv move) {
			if !p.debugFullEval {
				floor := cur.t
				if haveBest {
					floor = min(floor, best.est.t+1)
				}
				if en.pathBound(lv, ii, mv.gi, mv.c2, mv.swapGj, floor) >= floor {
					p.screenLB++
					return
				}
			}
			c1 := apply(mv)
			inRunning := true
			if p.debugFullEval {
				p.screenFull++
				mv.est = p.evaluate(en.assign, ii)
			} else if mv.est = en.estimateFast(ii); mv.est.t >= cur.t || (haveBest && mv.est.t > best.est.t) {
				p.screenExact++
				inRunning = false
			} else {
				p.screenFull++
				en.finishSlack(&mv.est)
			}
			undo(mv, c1)
			if inRunning && (!haveBest || mv.est.better(best.est)) {
				best = mv
				haveBest = true
			}
		}

		fits := func(gc [isa.NumUnitKinds]int, c2 int, minus [isa.NumUnitKinds]int) bool {
			for k := 0; k < isa.NumUnitKinds; k++ {
				if gc[k] == 0 {
					continue
				}
				units := m.UnitsIn(c2, isa.UnitKind(k))
				if counts[c2][k]-minus[k]+gc[k] > units*capII {
					return false
				}
			}
			return true
		}

		for gi := range lv.groups {
			members := lv.groups[gi]
			if len(members) == 0 {
				continue
			}
			c1 := en.assign[members[0]]
			gc := gcs[gi]
			// Candidate destination clusters: clusters of neighbor groups,
			// deduplicated and in ascending order.
			dests := p.sc.dests[:0]
			for _, nb := range nbrList[nbrHead[gi]:nbrHead[gi+1]] {
				if len(lv.groups[nb]) == 0 {
					continue
				}
				c := en.assign[lv.groups[nb][0]]
				if c == c1 || p.sc.destSeen[c] {
					continue
				}
				p.sc.destSeen[c] = true
				dests = append(dests, c)
			}
			p.sc.dests = dests
			for _, c := range dests {
				p.sc.destSeen[c] = false
			}
			sortInts(dests)
			for _, c2 := range dests {
				if fits(gc, c2, [isa.NumUnitKinds]int{}) {
					consider(move{gi: gi, c2: c2, swapGj: -1})
					continue
				}
				// Single move does not fit: consider interchanges with
				// groups currently in c2 (paper: "all feasible interchanges
				// between pairs of nodes").
				for gj := range lv.groups {
					other := lv.groups[gj]
					if gj == gi || len(other) == 0 || en.assign[other[0]] != c2 {
						continue
					}
					oc := gcs[gj]
					if !fits(gc, c2, oc) || !fitsReverse(p, counts, oc, gc, c1, capII) {
						continue
					}
					consider(move{gi: gi, c2: c2, swapGj: gj})
				}
			}
		}

		if !haveBest || !best.est.better(cur) || best.est.t >= cur.t {
			return moves // no strictly positive execution-time benefit
		}
		apply(best)
		moves++
	}
	return moves
}

// indexLevel builds the refinement tables of level lv into the arena:
// owner maps each node to its group; group gi's boundary data edges (one
// endpoint in gi, in edge order) are bndList[bndHead[gi]:bndHead[gi+1]];
// and its neighbor groups, sorted ascending and deduplicated, are
// nbrList[nbrHead[gi]:nbrHead[gi+1]]. Refinement builds them once per level
// before balancing it; arena contents are unspecified, so every entry is
// rewritten.
func (p *Partitioner) indexLevel(lv *level) {
	g, ar := p.g, p.ar
	nG := len(lv.groups)
	owner := resizeInts(ar.owner, g.N())
	ar.owner = owner
	for gi, members := range lv.groups {
		for _, v := range members {
			owner[v] = gi
		}
	}
	head := zeroInts(ar.bndHead, nG+1)
	ar.bndHead = head
	for _, e := range g.Edges {
		if a, b := owner[e.From], owner[e.To]; e.Kind == ddg.Data && a != b {
			head[a+1]++
			head[b+1]++
		}
	}
	for i := 0; i < nG; i++ {
		head[i+1] += head[i]
	}
	bnd := resizeInts(ar.bndList, head[nG])
	ar.bndList = bnd
	nbr := resizeInts(ar.nbrList, head[nG])
	fill := zeroInts(ar.nbrFill, nG)
	ar.nbrFill = fill
	for ei, e := range g.Edges {
		if a, b := owner[e.From], owner[e.To]; e.Kind == ddg.Data && a != b {
			bnd[head[a]+fill[a]], nbr[head[a]+fill[a]] = ei, b
			fill[a]++
			bnd[head[b]+fill[b]], nbr[head[b]+fill[b]] = ei, a
			fill[b]++
		}
	}
	// Sort and deduplicate each neighbor row in place, compacting nbr
	// (rows stay contiguous, so each row's end is the next row's start).
	nHead := resizeInts(ar.nbrHead, nG+1)
	w := 0
	for gi := 0; gi < nG; gi++ {
		row := nbr[head[gi]:head[gi+1]]
		sortInts(row)
		nHead[gi] = w
		for i, v := range row {
			if i == 0 || v != nbr[w-1] {
				nbr[w] = v
				w++
			}
		}
	}
	nHead[nG] = w
	ar.nbrHead, ar.nbrList = nHead, nbr[:w]
}

// boundary returns group gi's boundary data edges on the level indexLevel
// last built.
func (p *Partitioner) boundary(gi int) []int {
	return p.ar.bndList[p.ar.bndHead[gi]:p.ar.bndHead[gi+1]]
}

// fitsReverse checks the source-cluster side of an interchange: after the
// swap, cluster c1 holds its ops minus gc plus oc without overloading.
func fitsReverse(p *Partitioner, counts [][isa.NumUnitKinds]int, oc, gc [isa.NumUnitKinds]int, c1, capII int) bool {
	for k := 0; k < isa.NumUnitKinds; k++ {
		if oc[k] == 0 {
			continue
		}
		units := p.m.UnitsIn(c1, isa.UnitKind(k))
		if counts[c1][k]-gc[k]+oc[k] > units*capII {
			return false
		}
	}
	return true
}

// sortInts is an allocation-free insertion sort for the short slices
// (cluster lists, adjacency rows) the refinement loop handles.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// resizeInts returns s resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// zeroInts is resizeInts with every entry zeroed.
func zeroInts(s []int, n int) []int {
	s = resizeInts(s, n)
	clear(s)
	return s
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
