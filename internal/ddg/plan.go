package ddg

// Longest-path relaxation plans.
//
// The start-time analyses solve longest paths over arcs of weight
// lat + extra − II·dist. Round-robin Bellman-Ford over every edge needs as
// many full rounds as the longest path has arcs. A plan instead visits the
// strongly connected components (SCCs) in topological order: an arc that
// enters a component from an earlier one is relaxed once, after its source
// has settled, and only the arcs inside a recurrence are iterated, until
// nothing changes or a positive cycle shows itself within the component's
// own size bound. Every cycle lies inside one component, so this is the
// same least fixed point, and the same positive-cycle verdict, as the
// round-robin relaxation. On SPECfp95 only 3.2% of the edges lie inside a
// recurrence; the largest has 11 nodes.
//
// Each graph builds two plans with its adjacency lists (buildAdj): the
// forward plan of the ASAP pass, and the backward plan of the ALAP pass,
// which visits the components in reverse order over reversed arcs.

// arc is one edge in the compact form the relaxation reads: x[to] is
// raised to at least x[from] + lat + extra[edge] − II·dist.
type arc struct {
	from, to, lat, dist, edge int32
}

// segment is one step of a plan. The once arcs leave nodes that earlier
// arcs have settled and are relaxed once, in order; the inner arcs join the
// nodes of one recurrence (an SCC with at least one edge, a self-loop
// included) and are iterated to a fixed point. The acyclic components
// between two recurrences need no iteration, so their arcs join the once
// arcs of the next segment; a final segment without a recurrence has no
// nodes.
type segment struct {
	once, inner []arc
	nodes       []int
}

// buildPlan returns the forward or backward plan of the graph, given its
// SCCs in reverse topological order (as sccs returns them) and each node's
// index into them. Every edge becomes exactly one arc.
func (g *Graph) buildPlan(comps [][]int, compOf []int, forward bool) []segment {
	arcs := make([]arc, 0, len(g.Edges))
	// collect appends the arcs entering (forward) or leaving (backward)
	// comp's nodes from outside it, or from inside it when inner.
	collect := func(comp []int, inner bool) {
		adj := g.out
		if forward {
			adj = g.in
		}
		for _, v := range comp {
			for _, ei := range adj[v] {
				e := &g.Edges[ei]
				if (compOf[e.From] == compOf[e.To]) != inner {
					continue
				}
				a := arc{from: int32(e.From), to: int32(e.To), lat: int32(e.Lat), dist: int32(e.Dist), edge: int32(ei)}
				if !forward {
					a.from, a.to = a.to, a.from
				}
				arcs = append(arcs, a)
			}
		}
	}
	var segs []segment
	start := 0
	for i := range comps {
		// Forward: the components in topological order. Backward: the
		// reverse.
		comp := comps[i]
		if forward {
			comp = comps[len(comps)-1-i]
		}
		collect(comp, false)
		mid := len(arcs)
		collect(comp, true)
		if end := len(arcs); end > mid {
			segs = append(segs, segment{once: arcs[start:mid:mid], inner: arcs[mid:end:end], nodes: comp})
			start = end
		}
	}
	if end := len(arcs); end > start {
		segs = append(segs, segment{once: arcs[start:end:end]})
	}
	return segs
}

// relax raises x along every arc of plan at initiation interval ii (extra
// may be nil or shorter than Edges; missing entries are zero). It reports
// false, leaving x partly relaxed, when a recurrence has a positive cycle.
func relax(plan []segment, ii int, extra []int, x []int) bool {
	for i := range plan {
		s := &plan[i]
		for _, a := range s.once {
			if t := x[a.from] + int(a.lat) + extraAt(extra, int(a.edge)) - ii*int(a.dist); t > x[a.to] {
				x[a.to] = t
			}
		}
		if len(s.inner) > 0 && !relaxSCC(s.inner, len(s.nodes), ii, extra, x) {
			return false
		}
	}
	return true
}

// relaxSCC iterates the arcs inside one recurrence of size nodes to a fixed
// point. Without a positive cycle no path inside it has more than size−1
// arcs, so a change in round size (counting from 0) proves one.
func relaxSCC(arcs []arc, size, ii int, extra []int, x []int) bool {
	for round := 0; ; round++ {
		changed := false
		for _, a := range arcs {
			if t := x[a.from] + int(a.lat) + extraAt(extra, int(a.edge)) - ii*int(a.dist); t > x[a.to] {
				x[a.to] = t
				changed = true
			}
		}
		if !changed {
			return true
		}
		if round >= size {
			return false
		}
	}
}

// recMII returns the RecMII of the recurrence alone: of the subgraph its
// nodes induce, whose edges are exactly its inner arcs. x is scratch
// indexed by node.
func (s *segment) recMII(x []int) int {
	hi := 1
	for _, a := range s.inner {
		if a.lat > 0 {
			hi += int(a.lat)
		}
	}
	return minFeasibleII(hi, func(ii int) bool {
		for _, v := range s.nodes {
			x[v] = 0
		}
		return relaxSCC(s.inner, len(s.nodes), ii, nil, x)
	})
}
