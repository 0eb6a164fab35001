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
	owner    []int                   // node → group, per level
	dests    []int                   // candidate destination clusters
	destSeen []bool                  // per-cluster dedupe marks
	slack    []int                   // computeWeights per-edge slack
	probe    []int                   // computeWeights delay(e) probe extras
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
	resII := 1
	for c := 0; c < m.Clusters; c++ {
		for k := 0; k < isa.NumUnitKinds; k++ {
			if counts[c][k] == 0 {
				continue
			}
			units := m.UnitsIn(c, isa.UnitKind(k))
			if units == 0 {
				resII = 1 << 20 // unschedulable partition
				continue
			}
			if v := ceilDiv(counts[c][k], units); v > resII {
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

// maxMoves returns the refinement move cap for one level.
func (p *Partitioner) maxMoves() int {
	if p.opts.MaxMoves > 0 {
		return p.opts.MaxMoves
	}
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
		// The destination scan is first-fit by construction (the first
		// feasible cluster in index order wins; see TestBalanceFirstFit);
		// Options.BalanceBestFit instead scans all destinations and takes
		// the one least loaded on the overloaded resource.
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
				if p.opts.BalanceBestFit {
					if destC2 == -1 || counts[c2][worstK] < counts[destC2][worstK] {
						destC2 = c2
					}
					continue
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
		en.move(lv.groups[bestGi], bestC2)
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
// Candidate evaluation is incremental: each candidate is applied to the
// engine (O(affected edges)), screened against a proven lower bound on its
// execution time, fully estimated only when the bound cannot rule it out,
// and undone. The screen is conservative — a rejected candidate's true
// estimate is strictly worse than the incumbent's on the primary key — so
// the chosen move sequence is identical to exhaustive full evaluation
// (TestEngineMoveSequenceEquivalence pins this).
func (p *Partitioner) minimizeCut(lv *level, en *engine, ii int) int {
	m := p.m
	moves := 0
	limit := p.maxMoves()
	gcs := p.groupCountsOf(lv)

	owner := resizeInts(p.sc.owner, p.g.N())
	p.sc.owner = owner
	for gi, members := range lv.groups {
		for _, v := range members {
			owner[v] = gi
		}
	}
	// Neighbor groups via original data edges: a sorted, deduplicated CSR
	// adjacency built once per level, so the per-iteration scans below are
	// deterministic and allocation-free.
	nbrHead, nbrList := p.buildGroupAdjacency(owner, len(lv.groups))
	p.sc.destSeen = resizeBools(p.sc.destSeen, m.Clusters)
	for i := range p.sc.destSeen {
		p.sc.destSeen[i] = false
	}

	for moves < limit {
		cur := en.estimate(ii)
		counts := en.counts
		capII := cur.ii

		type move struct {
			gi, c2 int // single move: group gi → cluster c2
			swapGj int // ≥ 0: interchange with group gj (in c2)
			est    estimate
		}
		var best move
		haveBest := false

		consider := func(mv move, e estimate) {
			if !haveBest || e.better(best.est) {
				mv.est = e
				best = mv
				haveBest = true
			}
		}

		// evalCandidate estimates the move just applied to the engine, in
		// three stages of increasing cost, each rejecting only candidates
		// that provably cannot change the chosen move. A candidate is
		// applied only when its t is strictly below cur.t, and displaces
		// the incumbent only when it at least ties best's t — so t ≥ cur.t
		// (or a lower bound on t ≥ cur.t) rules a candidate out entirely:
		// any real winner beats it on the primary key, and when no winner
		// exists the iteration terminates identically. The stages:
		//  1. a closed-form lower bound on t from the maintained tallies,
		//  2. the exact t (forward longest-path analysis only),
		//  3. the cut-slack tie-break (ALAP pass), computed last and only
		//     for candidates still in the running.
		evalCandidate := func() (estimate, bool) {
			if p.debugFullEval {
				p.screenFull++
				return p.evaluate(en.assign, ii), true
			}
			lb := en.lowerBoundT(ii)
			if lb >= cur.t || (haveBest && lb > best.est.t) {
				p.screenLB++
				return estimate{}, false
			}
			e := en.estimateFast(ii)
			if e.t >= cur.t || (haveBest && e.t > best.est.t) {
				p.screenExact++
				return estimate{}, false
			}
			p.screenFull++
			en.finishSlack(&e)
			return e, true
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
					en.move(members, c2)
					if e, ok := evalCandidate(); ok {
						consider(move{gi: gi, c2: c2, swapGj: -1}, e)
					}
					en.move(members, c1)
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
					en.move(members, c2)
					en.move(other, c1)
					if e, ok := evalCandidate(); ok {
						consider(move{gi: gi, c2: c2, swapGj: gj}, e)
					}
					en.move(other, c2)
					en.move(members, c1)
				}
			}
		}

		if !haveBest || !best.est.better(cur) || best.est.t >= cur.t {
			return moves // no strictly positive execution-time benefit
		}
		members := lv.groups[best.gi]
		c1 := en.assign[members[0]]
		en.move(members, best.c2)
		if best.swapGj >= 0 {
			en.move(lv.groups[best.swapGj], c1)
		}
		moves++
	}
	return moves
}

// buildGroupAdjacency returns the macro-node neighbor lists as a CSR pair
// (head, list): group gi's neighbors are list[head[gi]:head[gi+1]], sorted
// ascending and deduplicated. Built once per refinement level into the
// arena's buffers (explicitly re-zeroed: arena contents are unspecified).
func (p *Partitioner) buildGroupAdjacency(owner []int, nG int) (head, list []int) {
	g, ar := p.g, p.ar
	head = resizeInts(ar.nbrHead, nG+1)
	ar.nbrHead = head
	for i := range head {
		head[i] = 0
	}
	for _, e := range g.Edges {
		if e.Kind != ddg.Data {
			continue
		}
		a, b := owner[e.From], owner[e.To]
		if a == b {
			continue
		}
		head[a+1]++
		head[b+1]++
	}
	for i := 0; i < nG; i++ {
		head[i+1] += head[i]
	}
	list = resizeInts(ar.nbrList, head[nG])
	ar.nbrList = list
	fill := resizeInts(ar.nbrFill, nG)
	ar.nbrFill = fill
	for i := range fill {
		fill[i] = 0
	}
	for _, e := range g.Edges {
		if e.Kind != ddg.Data {
			continue
		}
		a, b := owner[e.From], owner[e.To]
		if a == b {
			continue
		}
		list[head[a]+fill[a]] = b
		fill[a]++
		list[head[b]+fill[b]] = a
		fill[b]++
	}
	// Sort and deduplicate each row in place, compacting list and head.
	w := 0
	prevEnd := 0
	for gi := 0; gi < nG; gi++ {
		row := list[prevEnd:head[gi+1]]
		prevEnd = head[gi+1]
		sortInts(row)
		start := w
		for i, v := range row {
			if i == 0 || v != list[w-1] {
				list[w] = v
				w++
			}
		}
		head[gi] = start
	}
	// head[gi] now holds the compacted row starts (rows stay contiguous,
	// so each row's end is the next row's start); w is the final sentinel.
	head[nG] = w
	return head, list[:w]
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

func resizeBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
