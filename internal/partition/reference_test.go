package partition

import (
	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
)

// The references: the code the touched-path screen, the per-cluster
// resource II, the level-from-level collapse, the neighbor rows from
// collapsed edges and the iteration's fast estimate replaced, kept as it
// was so that tests can run Partition both ways through the reference
// hook and require identical results. Tests that install them must not
// run in parallel.

// withReference runs f with every reference installed.
func withReference(f func()) {
	reference = &referenceImpl{
		pathBound:  refPathBound,
		estimate:   (*engine).estimate,
		collapse:   refCollapseEdgesInto,
		indexLevel: refIndexLevel,
	}
	defer func() { reference = nil }()
	f()
}

// estimate is the iteration estimate minimizeCut ran before it used
// estimateFast: the full estimate, whose cut slack no decision reads. As
// it was:
//
// estimate computes the full §3.2.2 quality estimate for the current
// assignment from the maintained state: only the longest-path time analysis
// runs on the graph; the cut set, counts and interconnect tallies are
// already up to date. Produces bit-identical results to
// Partitioner.evaluate.
func (en *engine) estimate(ii int) estimate {
	est := en.estimateFast(ii)
	en.finishSlack(&est)
	return est
}

// resIIAfter and resIIMoved are the resource II probe resIIProbe
// replaced, as they were:
//
// resIIAfter returns the resource MII of the assignment the refinement
// candidate would leave — group gi of level lv moved from its cluster c1
// to cluster c2 and, when gj ≥ 0, group gj moved to c1 — without applying
// it.
func (en *engine) resIIAfter(lv *level, gi, c1, c2, gj int) int {
	gcs := en.p.groupCountsOf(lv)
	d := gcs[gi]
	if gj >= 0 {
		for k := range d {
			d[k] -= gcs[gj][k]
		}
	}
	return resIIMoved(en.p.m, en.counts, c1, c2, d)
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

// refPathBound is the screen pathBound replaced: it walks every data
// edge of the path for every candidate and derives the resource II from
// every cluster's counts. As it was:
//
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
// leaves cut, and its last node's latency. The estimator's II is at least
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
func refPathBound(en *engine, lv *level, ii, gi, c2, gj int, floor int64) int64 {
	p := en.p
	g, c1 := p.g, en.assign[lv.groups[gi][0]]
	resII := en.resIIAfter(lv, gi, c1, c2, gj)
	l := en.pathLat
	if en.pathOK {
		for _, ei := range en.pathData {
			e := &g.Edges[ei]
			if en.clusterAfter(e.From, gi, c1, c2, gj) != en.clusterAfter(e.To, gi, c1, c2, gj) {
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

// clusterAfter returns node v's cluster once group gi (in cluster c1) has
// moved to c2 and, when gj ≥ 0, group gj to c1. It needs the level's
// owner table (indexLevel).
func (en *engine) clusterAfter(v, gi, c1, c2, gj int) int {
	switch en.p.ar.owner[v] {
	case gi:
		return c2
	case gj:
		return c1
	}
	return en.assign[v]
}

// refCollapseEdgesInto is the collapse every coarse level used before
// collapseLevel: from the original graph's edges through an owner map.
// As it was:
//
// collapseEdgesInto rebuilds lv.edges as the inter-group data edges with
// summed weights (parallel edges combine, intra-group edges disappear —
// §2.1.2), sorted by (U, V), using only arena storage. Each edge is
// bucketed under its smaller group in a CSR row; a row's duplicates merge
// into one entry per partner (slot marks where partner b's entry sits in
// lv.edges; an entry from an earlier row lies before the row's start), and
// the merged row is then sorted by partner.
func refCollapseEdgesInto(p *Partitioner, lv *level) {
	ar, g := p.ar, p.g
	nG := len(lv.groups)
	owner := resizeInts(ar.owner, g.N())
	ar.owner = owner
	for gi, members := range lv.groups {
		for _, v := range members {
			owner[v] = gi
		}
	}
	head := zeroInts(ar.colHead, nG+1)
	ar.colHead = head
	for _, e := range g.Edges {
		if a, b := owner[e.From], owner[e.To]; e.Kind == ddg.Data && a != b {
			head[min(a, b)+1]++
		}
	}
	for i := 0; i < nG; i++ {
		head[i+1] += head[i]
	}
	part := resizeInts(ar.colPart, head[nG])
	ar.colPart = part
	weight := resizeInt64s(ar.colW, head[nG])
	ar.colW = weight
	fill := zeroInts(ar.colFill, nG)
	ar.colFill = fill
	for ei, e := range g.Edges {
		if a, b := owner[e.From], owner[e.To]; e.Kind == ddg.Data && a != b {
			a, b = min(a, b), max(a, b)
			part[head[a]+fill[a]], weight[head[a]+fill[a]] = b, p.weights[ei]
			fill[a]++
		}
	}
	slot := resizeInts(ar.colSlot, nG)
	ar.colSlot = slot
	for i := range slot {
		slot[i] = -1
	}
	edges := lv.edges[:0]
	for a := 0; a < nG; a++ {
		start := len(edges)
		for i := head[a]; i < head[a+1]; i++ {
			if b := part[i]; slot[b] >= start {
				edges[slot[b]].W += weight[i]
			} else {
				slot[b] = len(edges)
				edges = append(edges, graph.Edge{U: a, V: b, W: weight[i]})
			}
		}
		row := edges[start:]
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j].V < row[j-1].V; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
	}
	lv.edges = edges
}

// refIndexLevel is indexLevel before its neighbor rows came from the
// level's collapsed edges: it sorts and deduplicates rows built from the
// original graph's edges. As it was:
//
// indexLevel builds the refinement tables of level lv into the arena:
// owner maps each node to its group; group gi's boundary data edges (one
// endpoint in gi, in edge order) are bndList[bndHead[gi]:bndHead[gi+1]];
// and its neighbor groups, sorted ascending and deduplicated, are
// nbrList[nbrHead[gi]:nbrHead[gi+1]]. Refinement builds them once per level
// before balancing it; arena contents are unspecified, so every entry is
// rewritten.
func refIndexLevel(p *Partitioner, lv *level) {
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
