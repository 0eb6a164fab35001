// Package ddg implements the data dependence graphs (DDGs) of innermost
// loops that the paper's partitioner and modulo scheduler operate on.
//
// A DDG node is one operation of the loop body. A DDG edge (u → v, lat,
// dist) constrains the modulo schedule: operation v of iteration i+dist may
// not start before lat cycles after operation u of iteration i, i.e.
//
//	t(v) ≥ t(u) + lat − II·dist
//
// where II is the initiation interval. Edges with dist = 0 are
// intra-iteration dependences and must form a DAG; edges with dist > 0 are
// loop-carried and may close recurrence cycles.
//
// The package provides the static loop analyses the paper relies on:
// the resource-constrained minimum II (ResMII), the recurrence-constrained
// minimum II (RecMII, via positive-cycle detection on the constraint graph),
// earliest/latest start times for a given II, edge slack, and the
// software-pipelined execution-time estimate T = (niter−1)·II + SL used by
// the partitioner's delay(e) edge weights (paper §3.2.1).
package ddg

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/machine"
)

// Node is one operation of the loop body.
type Node struct {
	// ID is the node's index in Graph.Nodes.
	ID int
	// Op is the operation class, which determines the functional-unit kind
	// and the latency under a given machine.
	Op isa.OpClass
	// Name is an optional human-readable label ("load a[i]").
	Name string
}

// EdgeKind distinguishes true data dependences, which carry a register
// value, from memory and control ordering dependences, which do not.
type EdgeKind int8

const (
	// Data is a register flow dependence: the destination reads the value
	// produced by the source. Only Data edges consume registers and only
	// Data edges need an inter-cluster communication when cut.
	Data EdgeKind = iota
	// Mem is a memory ordering dependence (store→load, store→store, …).
	Mem
)

// String returns "data" or "mem".
func (k EdgeKind) String() string {
	if k == Data {
		return "data"
	}
	return "mem"
}

// Edge is a dependence between two operations.
type Edge struct {
	// From and To are node IDs.
	From, To int
	// Lat is the dependence latency in cycles (usually the producer's
	// operation latency for Data edges).
	Lat int
	// Dist is the iteration distance: 0 for intra-iteration dependences,
	// ≥ 1 for loop-carried ones.
	Dist int
	// Kind tells register dependences from memory ordering dependences.
	Kind EdgeKind
}

// Graph is the data dependence graph of one innermost loop.
//
// Build a Graph with New, AddNode and AddEdge, then call Validate (or use
// the top-level gpsched builder, which validates for you). Graphs are cheap
// to clone and the analyses never mutate the graph. Change a graph only
// through AddNode, AddEdge and AddDep: the analyses cache structure derived
// from its edges, and only those calls drop it.
type Graph struct {
	// Name labels the loop ("tomcatv/loop3").
	Name string
	// Nodes and Edges are the operations and dependences. Node IDs are
	// dense indices into Nodes.
	Nodes []Node
	Edges []Edge
	// Niter is the profiled trip count of the loop, used by the
	// execution-time estimate. Must be ≥ 1.
	Niter int

	// Caches built lazily by buildAdj and dropped by AddNode and AddEdge:
	// out and in are the adjacency lists of edge indices, fwd and bwd the
	// relaxation plans of the forward and backward longest-path passes
	// (plan.go), recs the Recurrences result and sms the SMSGroups result
	// once computed.
	out, in  [][]int
	fwd, bwd []segment
	recs     []Recurrence
	sms      *smsGroups
	recsOK   bool
	dirty    bool
}

// New returns an empty DDG with the given name and profiled trip count.
func New(name string, niter int) *Graph {
	return &Graph{Name: name, Niter: niter, dirty: true}
}

// AddNode appends an operation and returns its node ID.
func (g *Graph) AddNode(op isa.OpClass, name string) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Op: op, Name: name})
	g.dirty = true
	return id
}

// AddEdge appends a dependence edge. It does not validate node IDs; call
// Validate after construction.
func (g *Graph) AddEdge(e Edge) {
	g.Edges = append(g.Edges, e)
	g.dirty = true
}

// AddDep is shorthand for adding a Data edge whose latency is the default
// latency of the producer's operation class.
func (g *Graph) AddDep(from, to, dist int) {
	lat := 1
	if from >= 0 && from < len(g.Nodes) {
		lat = isa.DefaultLatency(g.Nodes[from].Op)
	}
	g.AddEdge(Edge{From: from, To: to, Lat: lat, Dist: dist, Kind: Data})
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Nodes) }

// Clone returns a deep copy of the graph (adjacency caches are rebuilt
// lazily in the copy).
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, Niter: g.Niter, dirty: true}
	c.Nodes = append([]Node(nil), g.Nodes...)
	c.Edges = append([]Edge(nil), g.Edges...)
	return c
}

// Validate checks structural invariants:
//   - node IDs are dense and match indices,
//   - edges reference valid nodes, with Lat ≥ 0 and Dist ≥ 0,
//   - Data edges originate from value-producing operations,
//   - the subgraph of dist-0 edges is acyclic,
//   - Niter ≥ 1.
func (g *Graph) Validate() error {
	if g.Niter < 1 {
		return fmt.Errorf("ddg %q: trip count %d < 1", g.Name, g.Niter)
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("ddg %q: node %d has ID %d", g.Name, i, n.ID)
		}
		if !n.Op.Valid() {
			return fmt.Errorf("ddg %q: node %d has invalid op class %d", g.Name, i, int(n.Op))
		}
	}
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("ddg %q: edge %d (%d→%d) references missing node", g.Name, i, e.From, e.To)
		}
		if e.Lat < 0 {
			return fmt.Errorf("ddg %q: edge %d has negative latency %d", g.Name, i, e.Lat)
		}
		if e.Dist < 0 {
			return fmt.Errorf("ddg %q: edge %d has negative distance %d", g.Name, i, e.Dist)
		}
		if e.Kind == Data && !g.Nodes[e.From].Op.ProducesValue() {
			return fmt.Errorf("ddg %q: edge %d is a data edge from a store", g.Name, i)
		}
		if e.From == e.To && e.Dist == 0 {
			return fmt.Errorf("ddg %q: edge %d is a zero-distance self loop", g.Name, i)
		}
	}
	if !g.acyclicDist0() {
		return fmt.Errorf("ddg %q: zero-distance dependences form a cycle", g.Name)
	}
	return nil
}

// acyclicDist0 reports whether the dist-0 subgraph is a DAG (Kahn's
// algorithm). The successor lists, in-degrees and queue share one slice.
func (g *Graph) acyclicDist0() bool {
	n := len(g.Nodes)
	m := 0
	for _, e := range g.Edges {
		if e.Dist == 0 {
			m++
		}
	}
	buf := make([]int, 3*n+1+m)
	head, indeg, queue, succ := buf[:n+1], buf[n+1:2*n+1], buf[2*n+1:2*n+1:3*n+1], buf[3*n+1:]
	for _, e := range g.Edges {
		if e.Dist == 0 {
			head[e.From]++
			indeg[e.To]++
		}
	}
	for v := 1; v <= n; v++ {
		head[v] += head[v-1]
	}
	// head[v] is now the end of v's successor list. Filling the lists back
	// to front leaves them in edge order and head[v] at the start of v's,
	// so v's successors are succ[head[v]:head[v+1]].
	for i := len(g.Edges) - 1; i >= 0; i-- {
		if e := &g.Edges[i]; e.Dist == 0 {
			head[e.From]--
			succ[head[e.From]] = e.To
		}
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range succ[head[v]:head[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen == n
}

// buildAdj populates the adjacency lists and the relaxation plans.
func (g *Graph) buildAdj() {
	if !g.dirty && g.out != nil {
		return
	}
	n := len(g.Nodes)
	g.out, g.in = adjacency(n, g.Edges, true), adjacency(n, g.Edges, false)
	comps := g.sccs()
	compOf := make([]int, n)
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	g.fwd, g.bwd = g.buildPlan(comps, compOf, true), g.buildPlan(comps, compOf, false)
	g.recs, g.recsOK, g.sms = nil, false, nil
	g.dirty = false
}

// adjacency returns, per node, the indices of the edges leaving it (out)
// or entering it (!out), in edge order, as sub-slices of one slab.
func adjacency(n int, edges []Edge, out bool) [][]int {
	end := func(e *Edge) int {
		if out {
			return e.From
		}
		return e.To
	}
	head := make([]int, n+1)
	for i := range edges {
		head[end(&edges[i])+1]++
	}
	for v := 0; v < n; v++ {
		head[v+1] += head[v]
	}
	slab := make([]int, len(edges))
	lists := make([][]int, n)
	for v := range lists {
		lists[v] = slab[head[v]:head[v]:head[v+1]]
	}
	for i := range edges {
		v := end(&edges[i])
		lists[v] = append(lists[v], i)
	}
	return lists
}

// Freeze precomputes every lazily built cache — the adjacency lists, the
// relaxation plans, the recurrences and the SMS groups — so that
// subsequent read-only use of the graph (Out, In, Recurrences, SMSGroups
// and every analysis built on them) is safe for concurrent readers. The
// experiment harness calls this before fanning a loop out to worker
// goroutines. Mutating the graph afterwards (AddNode, AddEdge, AddDep)
// drops the caches and makes it unsafe for concurrent use again until the
// next Freeze.
func (g *Graph) Freeze() { g.SMSGroups() }

// Out returns the indices into Edges of v's outgoing edges.
func (g *Graph) Out(v int) []int { g.buildAdj(); return g.out[v] }

// In returns the indices into Edges of v's incoming edges.
func (g *Graph) In(v int) []int { g.buildAdj(); return g.in[v] }

// OpCounts returns the number of operations per functional-unit kind.
func (g *Graph) OpCounts() [isa.NumUnitKinds]int {
	var c [isa.NumUnitKinds]int
	for _, n := range g.Nodes {
		c[n.Op.Unit()]++
	}
	return c
}

// ResMII returns the resource-constrained minimum initiation interval on
// machine m: the most saturated functional-unit kind, machine-wide
// (cluster assignment is not yet known at MII time).
func (g *Graph) ResMII(m *machine.Config) int {
	mii := 1
	counts := g.OpCounts()
	for k := 0; k < isa.NumUnitKinds; k++ {
		total := m.TotalUnits(isa.UnitKind(k))
		if counts[k] == 0 {
			continue
		}
		if total == 0 {
			// No unit can execute these operations; treat as unbounded.
			return math.MaxInt32
		}
		if v := ceilDiv(counts[k], total); v > mii {
			mii = v
		}
	}
	return mii
}

// FeasibleII reports whether the recurrence constraints admit a schedule at
// initiation interval ii: the constraint graph with arc weights
// lat(e) − ii·dist(e) must contain no positive-weight cycle.
//
// Latency overrides for individual edges may be supplied through extra,
// indexed by edge (used by the partitioner's delay(e) and cut estimates);
// extra may be nil or shorter than Edges (missing entries are zero).
func (g *Graph) FeasibleII(ii int, extra []int) bool {
	var t Times
	return g.feasibleIIInto(ii, extra, &t)
}

// feasibleIIInto is FeasibleII probing with t.Earliest as the relaxation
// buffer (left in an unspecified state afterwards).
func (g *Graph) feasibleIIInto(ii int, extra []int, t *Times) bool {
	est, ok := g.longestPathsInto(ii, extra, t.Earliest)
	t.Earliest = est
	return ok
}

// RecMII returns the recurrence-constrained minimum initiation interval:
// the smallest ii ≥ 1 such that FeasibleII(ii, extra) holds. extra may be
// nil. The result is found by binary search over [1, maxLat·maxDistSum],
// using the property that feasibility is monotone in ii.
func (g *Graph) RecMII(extra []int) int {
	var t Times
	return g.recMIIInto(extra, &t)
}

// recMIIInto is RecMII using t's buffers for every feasibility probe.
func (g *Graph) recMIIInto(extra []int, t *Times) int {
	// Upper bound: the latency of any cycle is at most the sum of all edge
	// latencies, and every cycle has distance ≥ 1, so RecMII ≤ that sum.
	hi := 1
	for i, e := range g.Edges {
		lat := e.Lat + extraAt(extra, i)
		if lat > 0 {
			hi += lat
		}
	}
	return minFeasibleII(hi, func(ii int) bool { return g.feasibleIIInto(ii, extra, t) })
}

// minFeasibleII returns the smallest ii in [1, hi] at which feasible holds,
// by binary search, given that feasibility is monotone in ii and holds at
// hi.
func minFeasibleII(hi int, feasible func(ii int) bool) int {
	lo := 1
	if feasible(lo) {
		return lo
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MII returns the minimum initiation interval max(ResMII, RecMII) on m.
func (g *Graph) MII(m *machine.Config) int {
	res := g.ResMII(m)
	rec := g.RecMII(nil)
	if rec > res {
		return rec
	}
	return res
}

// longestPathsInto computes earliest start times consistent with II = ii:
// longest paths over arcs of weight lat − ii·dist, with every node's start
// clamped at ≥ 0, relaxed along the graph's forward plan (plan.go). It
// reports ok = false when a positive-weight cycle exists (ii below RecMII).
// The relaxation runs in buf when its capacity suffices (the returned slice
// is always the buffer actually used, so callers can retain it for reuse).
func (g *Graph) longestPathsInto(ii int, extra []int, buf []int) (est []int, ok bool) {
	g.buildAdj()
	est = resizeInts(buf, len(g.Nodes))
	for i := range est {
		est[i] = 0 // every node may start at cycle 0
	}
	return est, relax(g.fwd, ii, extra, est)
}

// Times bundles the per-node earliest and latest start times for a given II
// together with the schedule length they imply.
type Times struct {
	II       int
	Earliest []int // ASAP start per node
	Latest   []int // ALAP start per node, for the same schedule length
	// SL is the schedule length: the maximum over nodes of
	// Earliest[v] + latency(v).
	SL int
}

// StartTimes computes earliest and latest start times for initiation
// interval ii on machine m, with optional per-edge latency additions. It
// reports ok = false when ii is below the recurrence-constrained minimum.
func (g *Graph) StartTimes(m *machine.Config, ii int, extra []int) (*Times, bool) {
	t := &Times{}
	if !g.StartTimesInto(m, ii, extra, t) {
		return nil, false
	}
	return t, true
}

// StartTimesInto is StartTimes writing into t: the Earliest and Latest
// buffers are reused when their capacity suffices, so a caller that keeps
// one Times across calls performs no allocation in the steady state. On
// ok = false, t's buffers remain usable but its contents are unspecified.
func (g *Graph) StartTimesInto(m *machine.Config, ii int, extra []int, t *Times) bool {
	return g.earliestInto(m, ii, extra, t) && g.LatestInto(m, extra, t)
}

// earliestInto computes the ASAP half of StartTimesInto: it fills t.II,
// t.Earliest and t.SL, reporting false when ii is below the
// recurrence-constrained minimum. t.Latest is left untouched.
func (g *Graph) earliestInto(m *machine.Config, ii int, extra []int, t *Times) bool {
	est, ok := g.longestPathsInto(ii, extra, t.Earliest)
	t.Earliest = est
	if !ok {
		return false
	}
	sl := 0
	for v := 0; v < len(g.Nodes); v++ {
		if f := est[v] + m.OpLatency(g.Nodes[v].Op); f > sl {
			sl = f
		}
	}
	t.II, t.SL = ii, sl
	return true
}

// LatestInto completes t with the ALAP start times for the schedule length
// already recorded in t: a backward relaxation from the deadline implied by
// t.SL, at t.II, with the same extra latencies the forward pass used.
// Callers that only need the execution-time estimate (no edge slacks) can
// skip this pass entirely — that is the point of the split: the refinement
// inner loop completes the tie-break slacks only for candidate moves whose
// primary key survives screening.
//
// The backward pass relaxes the negated start times along the reversed
// arcs of the backward plan: lst[u] ≤ lst[v] − w for an edge u → v of
// weight w is −lst[u] ≥ −lst[v] + w, a longest-path step. It reports false
// on a positive cycle, which cannot happen when the forward pass succeeded
// at t.II with the same extra.
func (g *Graph) LatestInto(m *machine.Config, extra []int, t *Times) bool {
	g.buildAdj()
	lst := resizeInts(t.Latest, len(g.Nodes))
	t.Latest = lst
	for v := range lst {
		lst[v] = m.OpLatency(g.Nodes[v].Op) - t.SL
	}
	ok := relax(g.bwd, t.II, extra, lst)
	for v := range lst {
		lst[v] = -lst[v]
	}
	return ok
}

// Slack returns the slack of edge ei under the given start times: the
// number of delay cycles that could be added to the edge without affecting
// the schedule length (paper §3.2.1). The result is never negative.
func (g *Graph) Slack(t *Times, ei int, extra []int) int {
	e := g.Edges[ei]
	lat := e.Lat + extraAt(extra, ei)
	s := t.Latest[e.To] - t.Earliest[e.From] - lat + t.II*e.Dist
	if s < 0 {
		return 0
	}
	return s
}

// EstimateTime returns the estimated execution time, in cycles, of the
// software-pipelined loop at initiation interval ii:
//
//	T = (niter−1)·II + SL
//
// where SL is the dependence-constrained schedule length. When ii is below
// the recurrence-constrained minimum for the (possibly latency-extended)
// graph, the smallest feasible II ≥ ii is used instead, mirroring the
// paper's delay(e) definition where adding a bus latency to an edge may
// raise the II. The II actually used is returned alongside the time.
func (g *Graph) EstimateTime(m *machine.Config, ii int, extra []int) (cycles int64, usedII int) {
	var t Times
	return g.EstimateTimeInto(m, ii, extra, &t)
}

// EstimateTimeInto is EstimateTime reusing t's buffers for the feasibility
// probes, the RecMII search and the start-time computation — with a
// retained Times, zero allocations. The forward pass doubles as the
// feasibility probe (one relaxation instead of two in the common, feasible
// case). On return t holds the ASAP times at the used II: t.II, t.Earliest
// and t.SL are valid; t.Latest is NOT computed — call LatestInto when edge
// slacks are needed.
func (g *Graph) EstimateTimeInto(m *machine.Config, ii int, extra []int, t *Times) (cycles int64, usedII int) {
	use := ii
	if !g.earliestInto(m, use, extra, t) {
		// Infeasible at ii: the recurrence minimum is above it.
		if rec := g.recMIIInto(extra, t); rec > use {
			use = rec
		}
		if !g.earliestInto(m, use, extra, t) {
			// Unreachable: use ≥ RecMII by construction.
			panic("ddg: EstimateTime: infeasible II after RecMII adjustment")
		}
	}
	return int64(g.Niter-1)*int64(use) + int64(t.SL), use
}

// CriticalOps returns the node IDs whose earliest and latest start times
// coincide (zero mobility) under t.
func (g *Graph) CriticalOps(t *Times) []int {
	var crit []int
	for v := range g.Nodes {
		if t.Earliest[v] == t.Latest[v] {
			crit = append(crit, v)
		}
	}
	return crit
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// resizeInts returns s resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func resizeInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// extraAt reads an optional per-edge latency addition.
func extraAt(extra []int, i int) int {
	if i < len(extra) {
		return extra[i]
	}
	return 0
}
