// Package partition implements the paper's multilevel graph-partitioning
// cluster assignment (§3.2): the first half of the GP scheme.
//
// The data dependence graph is coarsened by repeated maximum-weight
// matching, where the weight of an edge estimates the execution-time damage
// of cutting it:
//
//	weight(e) = delay(e)·(maxslack+1) + maxslack − slack(e) + 1
//
// with delay(e) the increase of the estimated software-pipelined execution
// time T = (niter−1)·II + max_path when a bus latency is added to e, and
// slack(e) the number of cycles e can be delayed without growing T. Any
// difference in delay therefore outweighs the largest difference in slack,
// and no edge has zero weight (paper §3.2.1).
//
// Coarsening stops when as many macro-nodes remain as there are clusters;
// each macro-node seeds one cluster. The partition is then refined from the
// coarsest level back to the original graph with two heuristics (§3.2.2):
// workload balancing (no per-cluster resource may exceed 100% utilization)
// and cut-impact minimization (single moves and pair interchanges, selected
// by execution-time benefit, with slack-of-cut and cut-size tie-breakers).
//
// The execution-time estimator assumes unlimited registers and an ideal
// single-cycle memory but models the inter-cluster bus and per-cluster
// functional units realistically, exactly as the paper prescribes.
package partition

import (
	"math"
	"slices"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/machine"
)

// WeightScheme selects how coarsening edge weights are computed. The paper
// scheme is the default; Uniform is an ablation (A1 in cmd/gpbench's
// -ablations table).
type WeightScheme int8

const (
	// PaperWeights uses delay/slack execution-time-aware weights (§3.2.1).
	PaperWeights WeightScheme = iota
	// UniformWeights gives every data edge weight 1 (cut-size-only
	// partitioning, as in conventional graph partitioning).
	UniformWeights
)

// Options tunes the partitioner. The zero value reproduces the paper.
type Options struct {
	// Weights selects the coarsening edge-weight scheme.
	Weights WeightScheme
	// SkipRefinement disables the uncoarsening refinement passes
	// (ablation A2: the induced initial partition is returned as is,
	// after a single balancing pass to keep it feasible).
	SkipRefinement bool
	// GreedyMatchingOnly forces greedy heavy-edge matching even on small
	// coarse graphs where the exact algorithm would be used (ablation A4).
	GreedyMatchingOnly bool
	// RegisterAware makes the refinement estimator model register
	// pressure: per-cluster lifetimes are estimated from the ASAP times
	// and clusters whose estimated MaxLive exceeds the register file pay
	// the spill cost (two memory operations per overflowing value per
	// iteration), which can raise the cluster's resource MII. The paper
	// identifies exactly this blind spot — "the partitioning phase
	// ignores register pressure, and then it tends to schedule operations
	// in the fewest number of clusters" (§4.2) — and names
	// pressure-aware partitioning as future work; this option implements
	// it (ablation A6).
	RegisterAware bool
}

// Result is a computed cluster assignment.
type Result struct {
	// Assign maps each node ID of the partitioned graph to a cluster.
	Assign []int
	// IIBus is the initiation-interval lower bound imposed by the
	// inter-cluster bus: ceil(NComm·LatBus / NBus) (paper §3.1).
	IIBus int
	// NComm is the number of values communicated across clusters.
	NComm int
	// EstTime and EstII are the estimator's execution time and the II it
	// was achieved at, for the returned assignment.
	EstTime int64
	EstII   int
	// Levels is the number of coarsening levels built (≥ 1).
	Levels int
	// Moves is the total number of refinement transformations applied.
	Moves int
	// Candidate-screening stage tallies for the refinement inner loop:
	// ScreenLowerBound counts candidates rejected by the closed-form lower
	// bound, ScreenExact those rejected by the exact-t forward analysis,
	// and ScreenFull those that survived to the full evaluation (ALAP
	// slack pass). Their sum is the number of candidates considered.
	ScreenLowerBound, ScreenExact, ScreenFull int64
	// Reused reports that Partition returned its previous refinement's
	// result without refining, because it provably equals what refining
	// would compute (see Partition); the screening tallies are then 0.
	Reused bool
}

// Partitioner computes cluster assignments for one loop on one machine.
type Partitioner struct {
	g    *ddg.Graph
	m    *machine.Config
	opts Options

	// ar owns every reusable buffer of a Partition run; weights, extra and
	// sc alias into it. See arena.go for the ownership contract.
	ar      *Arena
	weights []int64 // per original edge; 0 for non-data edges
	extra   []int   // scratch per-edge latency additions

	// maxOpLat is the largest single-operation latency of the loop body on
	// m: a lower bound on any schedule length, used by the refinement
	// candidate screen.
	maxOpLat int
	sc       *scratch // persistent evaluation arena, reused across calls

	// debugFullEval forces full re-evaluation (no incremental state, no
	// screening) for every refinement candidate. Test hook: the engine
	// equivalence suite pins that both paths choose the same moves.
	debugFullEval bool

	// Per-run screening tallies, reset by Partition and copied into its
	// Result. Mutated only by the (single-goroutine) refinement loop.
	screenLB, screenExact, screenFull int64

	// usedMin is the smallest II any estimate of the current run used
	// (estimateFast and evaluate lower it). The repartition memo is the last refined Result (its
	// Assign and levels live in the arena's memo buffers), valid when
	// memoOK: it was refined at memoII and no estimate of it used an II
	// below memoH.
	usedMin       int
	memo          Result
	memoOK        bool
	memoII, memoH int
}

// New returns a partitioner for graph g on machine m with a private arena.
// opts may be nil for the paper-faithful defaults.
func New(g *ddg.Graph, m *machine.Config, opts *Options) *Partitioner {
	return NewWithArena(g, m, opts, nil)
}

// NewWithArena returns a partitioner whose scratch lives in ar, so repeated
// runs (across requests, or across II escalations of one request) reuse the
// same buffers. A nil ar gets a private arena. The arena must not serve two
// live Partitioners at once.
func NewWithArena(g *ddg.Graph, m *machine.Config, opts *Options, ar *Arena) *Partitioner {
	if ar == nil {
		ar = NewArena()
	}
	p := &Partitioner{g: g, m: m, ar: ar, sc: &ar.sc}
	if opts != nil {
		p.opts = *opts
	}
	ar.extra = resizeInts(ar.extra, len(g.Edges))
	p.extra = ar.extra
	for _, n := range g.Nodes {
		if lat := m.OpLatency(n.Op); lat > p.maxOpLat {
			p.maxOpLat = lat
		}
	}
	return p
}

// Partition computes a cluster assignment for initiation interval ii (the
// MII on the first call; a raised II on recomputation, per §3.1).
//
// A recomputation returns a copy of the previous refinement's result, with
// Reused set, when it can prove refining again would compute the same one:
// coarsening at ii yields the very levels it refined (same groups, same
// member order), and memoII ≤ ii ≤ memoH. Refinement reads ii only through
// its estimates, each of which uses max(ii, resII, iiBus, recurrence II)
// and so stays the same for any ii between the old ii and the II it used,
// and through the screening bound, which only grows with ii and so still
// rejects every candidate it rejected (each of which the same estimates
// would reject anyway). Every choice, and so the result, is unchanged.
func (p *Partitioner) Partition(ii int) *Result {
	n := p.g.N()
	p.screenLB, p.screenExact, p.screenFull = 0, 0, 0
	res := &Result{Assign: make([]int, n), Levels: 1}
	if p.m.Clusters <= 1 || n == 0 {
		est := p.evaluate(res.Assign, ii)
		res.IIBus, res.NComm, res.EstTime, res.EstII = est.iiBus, est.nComm, est.t, est.ii
		return res
	}

	p.computeWeights(ii)
	levels := p.coarsen()
	if p.memoOK && p.memoII <= ii && ii <= p.memoH && p.sameLevels(levels) {
		assign := res.Assign
		*res = p.memo
		res.Assign = assign
		copy(assign, p.ar.memoAssign)
		res.Reused = true
		return res
	}
	p.usedMin = math.MaxInt
	res.Levels = len(levels)

	// Initial partition: one coarsest macro-node per cluster (deterministic:
	// heaviest macro-node — most operations — first).
	coarsest := levels[len(levels)-1]
	order := resizeInts(p.ar.idx, len(coarsest.groups))
	p.ar.idx = order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if len(coarsest.groups[a]) < len(coarsest.groups[b]) ||
				(len(coarsest.groups[a]) == len(coarsest.groups[b]) && a > b) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	for rank, gi := range order {
		for _, v := range coarsest.groups[gi] {
			res.Assign[v] = rank % p.m.Clusters
		}
	}

	// Refinement from coarsest to finest (paper §3.2.2). Even with
	// refinement disabled, one balancing pass keeps the partition feasible.
	// One incremental engine carries the cut/count/transfer state across
	// all levels; its moves mutate res.Assign in place.
	en := newEngine(p, res.Assign)
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		p.indexLevel(lv)
		res.Moves += p.balance(lv, en, ii)
		if !p.opts.SkipRefinement {
			res.Moves += p.minimizeCut(lv, en, ii)
		}
	}

	final := p.evaluate(res.Assign, ii)
	res.IIBus, res.NComm = final.iiBus, final.nComm
	res.EstTime, res.EstII = final.t, final.ii
	res.ScreenLowerBound, res.ScreenExact, res.ScreenFull = p.screenLB, p.screenExact, p.screenFull
	p.saveMemo(levels, res, ii)
	return res
}

// saveMemo makes res, refined at ii from levels, the repartition memo:
// the levels' member lists and the assignment are copied into the arena's
// memo buffers, the rest of res (screening tallies zeroed) into p.
func (p *Partitioner) saveMemo(levels []*level, res *Result, ii int) {
	ar := p.ar
	ar.memoSlab, ar.memoEnd, ar.memoGroups = ar.memoSlab[:0], ar.memoEnd[:0], ar.memoGroups[:0]
	for _, lv := range levels {
		ar.memoGroups = append(ar.memoGroups, len(lv.groups))
		for _, members := range lv.groups {
			ar.memoSlab = append(ar.memoSlab, members...)
			ar.memoEnd = append(ar.memoEnd, len(ar.memoSlab))
		}
	}
	ar.memoAssign = append(ar.memoAssign[:0], res.Assign...)
	p.memo = *res
	p.memo.Assign = nil
	p.memo.ScreenLowerBound, p.memo.ScreenExact, p.memo.ScreenFull = 0, 0, 0
	p.memoOK, p.memoII, p.memoH = true, ii, p.usedMin
}

// sameLevels reports whether levels are the memo's levels: the same
// number of levels, of groups per level, and the same members in the same
// order in every group.
func (p *Partitioner) sameLevels(levels []*level) bool {
	ar := p.ar
	if len(levels) != len(ar.memoGroups) {
		return false
	}
	start, gk := 0, 0
	for li, lv := range levels {
		if len(lv.groups) != ar.memoGroups[li] {
			return false
		}
		for _, members := range lv.groups {
			end := ar.memoEnd[gk]
			if !slices.Equal(members, ar.memoSlab[start:end]) {
				return false
			}
			start, gk = end, gk+1
		}
	}
	return true
}

// IIBusFor returns the interconnect-imposed II bound for an assignment: the
// minimum number of cycles needed to schedule the partition's
// communications on the available buses (paper §3.1) or, for point-to-point
// machines, on the busiest link.
func IIBusFor(g *ddg.Graph, m *machine.Config, assign []int) (iiBus, nComm int) {
	return iiXfer(g, m, assign)
}

// iiXfer computes the interconnect II bound and the number of communicated
// values. On the shared bus each communicated value costs one broadcast of
// XferOccupancy bus slots; on point-to-point links each (producer,
// destination-cluster) pair costs one transfer on its home→dest link, and
// the busiest link bounds the II.
func iiXfer(g *ddg.Graph, m *machine.Config, assign []int) (iiBus, nComm int) {
	var s xferScratch
	return s.compute(g, m, assign)
}

// xferScratch holds the reusable tally buffers behind iiXfer so the hot
// evaluation path recomputes the interconnect bound without allocating.
type xferScratch struct {
	cross   []bool // per node: has a cut outgoing data edge
	destCnt []int  // node·C+dest cut-edge counts (point-to-point only)
	perLink []int  // home·C+dest distinct-transfer counts (p2p only)
}

func (x *xferScratch) compute(g *ddg.Graph, m *machine.Config, assign []int) (iiBus, nComm int) {
	if m.Clusters <= 1 || m.NBus == 0 {
		return 0, 0
	}
	occ := m.XferOccupancy()
	n := g.N()
	x.cross = resizeBools(x.cross, n)
	for i := range x.cross {
		x.cross[i] = false
	}
	if m.Topology == machine.PointToPoint {
		c := m.Clusters
		x.destCnt = resizeInts(x.destCnt, n*c)
		for i := range x.destCnt {
			x.destCnt[i] = 0
		}
		x.perLink = resizeInts(x.perLink, c*c)
		for i := range x.perLink {
			x.perLink[i] = 0
		}
		for _, e := range g.Edges {
			if e.Kind != ddg.Data || assign[e.From] == assign[e.To] {
				continue
			}
			x.cross[e.From] = true
			di := e.From*c + assign[e.To]
			if x.destCnt[di]++; x.destCnt[di] == 1 {
				x.perLink[assign[e.From]*c+assign[e.To]]++
			}
		}
		for _, crossed := range x.cross {
			if crossed {
				nComm++
			}
		}
		for _, cnt := range x.perLink {
			if v := ceilDiv(cnt*occ, m.NBus); v > iiBus {
				iiBus = v
			}
		}
		return iiBus, nComm
	}
	for _, e := range g.Edges {
		if e.Kind == ddg.Data && assign[e.From] != assign[e.To] {
			x.cross[e.From] = true
		}
	}
	for _, crossed := range x.cross {
		if crossed {
			nComm++
		}
	}
	return ceilDiv(nComm*occ, m.NBus), nComm
}

// computeWeights fills p.weights with the §3.2.1 edge weights, computed on
// the original graph (coarse edges sum the weights of their constituents,
// per §2.1.2).
//
// delay(e) is the growth of the execution-time estimate when e carries the
// bus latency. For an edge outside every recurrence it is exactly
// max(0, LatBus − slack(e)): no cycle passes through e, so the extra latency
// leaves the II feasible, and neither the start time of e's source nor the
// longest path onward from e's target can depend on e, so the schedule
// length grows by what the latency exceeds e's slack. Only an edge inside a
// recurrence, where the latency can raise the II, is probed with a full
// estimate.
func (p *Partitioner) computeWeights(ii int) {
	g := p.g
	p.weights = resizeInt64s(p.ar.weights, len(g.Edges))
	p.ar.weights = p.weights
	for i := range p.weights {
		p.weights[i] = 0
	}
	if p.opts.Weights == UniformWeights {
		for i, e := range g.Edges {
			if e.Kind == ddg.Data {
				p.weights[i] = 1
			}
		}
		return
	}
	// EstimateTimeInto leaves p.sc.times holding the ASAP times at usedII;
	// one ALAP completion gives the slacks with no second forward pass.
	baseT, usedII := g.EstimateTimeInto(p.m, ii, nil, &p.sc.times)
	g.LatestInto(p.m, nil, &p.sc.times)
	// Slack and maxslack over data edges.
	slack := resizeInts(p.sc.slack, len(g.Edges))
	p.sc.slack = slack
	maxsl := 0
	for i, e := range g.Edges {
		if e.Kind != ddg.Data {
			continue
		}
		slack[i] = g.Slack(&p.sc.times, i, nil)
		if slack[i] > maxsl {
			maxsl = slack[i]
		}
	}
	recOf := resizeInts(p.sc.recOf, g.N())
	p.sc.recOf = recOf
	for v := range recOf {
		recOf[v] = -1
	}
	for r, rec := range g.Recurrences() {
		for _, v := range rec.Nodes {
			recOf[v] = r
		}
	}
	probe := resizeInts(p.sc.probe, len(g.Edges))
	p.sc.probe = probe
	for i := range probe {
		probe[i] = 0
	}
	for i, e := range g.Edges {
		if e.Kind != ddg.Data {
			continue
		}
		var delay int64
		if recOf[e.From] < 0 || recOf[e.From] != recOf[e.To] {
			delay = int64(p.m.LatBus - slack[i])
		} else {
			probe[i] = p.m.LatBus
			delayT, _ := g.EstimateTimeInto(p.m, usedII, probe, &p.sc.times)
			probe[i] = 0
			delay = delayT - baseT
		}
		if delay < 0 {
			delay = 0
		}
		p.weights[i] = delay*int64(maxsl+1) + int64(maxsl-slack[i]) + 1
	}
}

// level is one coarsening level: groups[i] lists the original node IDs
// fused into macro-node i. The membership lists live in the level's slab
// (every level partitions the original node set, so the slab holds exactly
// g.N() entries); both are arena-owned and reused across runs.
type level struct {
	groups [][]int
	slab   []int // flat member storage backing groups
	used   int   // slab entries consumed
	// edges are the collapsed inter-group data edges with summed weights.
	edges []graph.Edge
	// gcs caches the per-group unit counts (lazily, via groupCountsOf):
	// they depend only on the fixed group membership, not the assignment.
	gcs   [][isa.NumUnitKinds]int
	gcsOK bool
}

// coarsen builds the level hierarchy, finest first, stopping once the
// number of macro-nodes reaches the cluster count (§3.2.1). All levels are
// arena-owned; the returned slice is valid until the arena's next run.
func (p *Partitioner) coarsen() []*level {
	g := p.g
	n := g.N()
	lv0 := p.freshLevel(0)
	if cap(lv0.groups) >= n {
		lv0.groups = lv0.groups[:n]
	} else {
		lv0.groups = make([][]int, n)
	}
	for v := 0; v < n; v++ {
		lv0.slab[v] = v
		lv0.groups[v] = lv0.slab[v : v+1 : v+1]
	}
	lv0.used = n
	p.collapseEdgesInto(lv0)
	count := 1

	for cur := lv0; len(cur.groups) > p.m.Clusters; {
		gg := &graph.Graph{N: len(cur.groups), Edges: cur.edges}
		var m *graph.Matching
		if p.opts.GreedyMatchingOnly {
			m = p.ar.match.Greedy(gg)
		} else {
			m = p.ar.match.MaxWeight(gg)
		}
		next := p.fuse(cur, m, count)
		if len(next.groups) == len(cur.groups) {
			// No matched edges (disconnected remainder): force-pair the two
			// smallest groups so coarsening always terminates.
			next = p.forcePair(cur, count)
			if len(next.groups) == len(cur.groups) {
				break
			}
		}
		count++
		cur = next
	}
	return p.ar.levels[:count]
}

// fuse builds level li by fusing matched macro-node pairs of cur,
// respecting the target count: it never fuses below the cluster count.
func (p *Partitioner) fuse(cur *level, m *graph.Matching, li int) *level {
	n := len(cur.groups)
	target := p.m.Clusters
	remap := resizeInts(p.ar.remap, n)
	p.ar.remap = remap
	for i := range remap {
		remap[i] = -1
	}
	next := p.freshLevel(li)
	budget := n - target // how many fusions we may still perform
	// Matched pairs in decreasing weight order (EdgeIdx is not sorted by
	// weight, so sort indices by edge weight for determinism).
	idx := append(p.ar.idx[:0], m.EdgeIdx...)
	p.ar.idx = idx
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := cur.edges[idx[j-1]], cur.edges[idx[j]]
			if a.W < b.W || (a.W == b.W && idx[j-1] > idx[j]) {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			} else {
				break
			}
		}
	}
	for _, ei := range idx {
		if budget <= 0 {
			break
		}
		e := cur.edges[ei]
		if remap[e.U] != -1 || remap[e.V] != -1 {
			continue
		}
		remap[e.U], remap[e.V] = len(next.groups), len(next.groups)
		next.addGroup(cur.groups[e.U], cur.groups[e.V])
		budget--
	}
	for v := 0; v < n; v++ {
		if remap[v] == -1 {
			remap[v] = len(next.groups)
			next.addGroup(cur.groups[v])
		}
	}
	p.collapseEdgesInto(next)
	return next
}

// forcePair fuses the two smallest groups when matching cannot make
// progress (disconnected graphs), building level li.
func (p *Partitioner) forcePair(cur *level, li int) *level {
	if len(cur.groups) < 2 {
		return cur
	}
	a, b := 0, 1
	for i := range cur.groups {
		if len(cur.groups[i]) < len(cur.groups[a]) {
			b, a = a, i
		} else if i != a && len(cur.groups[i]) < len(cur.groups[b]) {
			b = i
		}
	}
	if a > b {
		a, b = b, a
	}
	next := p.freshLevel(li)
	next.addGroup(cur.groups[a], cur.groups[b])
	for i := range cur.groups {
		if i != a && i != b {
			next.addGroup(cur.groups[i])
		}
	}
	p.collapseEdgesInto(next)
	return next
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
