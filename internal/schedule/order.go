package schedule

import (
	"repro/internal/ddg"
	"repro/internal/machine"
)

// Order computes the node scheduling order following the Swing Modulo
// Scheduling ordering algorithm (Llosa et al., PACT'96), which the paper
// uses verbatim (§3.3.3): recurrences are processed in decreasing RecMII
// order, each extended with the nodes on paths to previously ordered
// groups, and within a group the order alternates between top-down and
// bottom-up sweeps so that every node (except the first of a group) is
// ordered while having scheduled neighbors on one side only. Priorities
// within a sweep use criticality (mobility, then position), computed from
// the ASAP/ALAP times at initiation interval ii; TrySchedule passes the II
// it is attempting. An ii below RecMII falls back to the times at RecMII.
func Order(g *ddg.Graph, m *machine.Config, ii int) []int {
	times, ok := g.StartTimes(m, ii, nil)
	if !ok {
		times, _ = g.StartTimes(m, g.RecMII(nil), nil)
	}
	var o orderState
	return o.order(g, times)
}

// orderState is Order's working memory. The scheduler's pooled state owns
// one, so the II attempts of a loop reuse its buffers.
type orderState struct {
	out     []int
	ordered []bool
	preds   adjacency
	succs   adjacency

	inGroup, td, bu, seed nodeSet

	// buildGroups
	groupNodes []int // the groups' nodes, concatenated
	groupEnd   []int // end offset of each group in groupNodes
	reach      []bool
	grouped    []bool
	member     []bool
	undirected adjacency
	stack      []int
}

// adjacency is a compressed neighbor list: node v's neighbors are
// nbr[start[v]:start[v+1]], in dependence-edge order.
type adjacency struct {
	start, nbr []int
}

func (a *adjacency) of(v int) []int { return a.nbr[a.start[v]:a.start[v+1]] }

// build collects, for every edge between distinct nodes, To as a neighbor
// of From (fwd) and From as a neighbor of To (back).
func (a *adjacency) build(g *ddg.Graph, fwd, back bool) {
	n := g.N()
	a.start = resize(a.start, n+1)
	clear(a.start)
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		if fwd {
			a.start[e.From+1]++
		}
		if back {
			a.start[e.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		a.start[v+1] += a.start[v]
	}
	a.nbr = resize(a.nbr, a.start[n])
	// Fill in edge order, advancing start[v] as a cursor to v's end (the
	// next node's beginning), then shift the offsets back into place.
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		if fwd {
			a.nbr[a.start[e.From]] = e.To
			a.start[e.From]++
		}
		if back {
			a.nbr[a.start[e.To]] = e.From
			a.start[e.To]++
		}
	}
	for v := n; v > 0; v-- {
		a.start[v] = a.start[v-1]
	}
	a.start[0] = 0
}

// nodeSet is a set of node IDs with constant-time add, delete and
// membership. Its members are iterated in no particular order: every use
// in Order picks by a total order.
type nodeSet struct {
	pos   []int // node → index in items + 1; 0 when absent
	items []int
}

func (s *nodeSet) init(n int) {
	s.pos = resize(s.pos, n)
	clear(s.pos)
	s.items = s.items[:0]
}

func (s *nodeSet) has(v int) bool { return s.pos[v] != 0 }

func (s *nodeSet) add(v int) {
	if s.pos[v] == 0 {
		s.items = append(s.items, v)
		s.pos[v] = len(s.items)
	}
}

func (s *nodeSet) del(v int) {
	i := s.pos[v] - 1
	if i < 0 {
		return
	}
	last := s.items[len(s.items)-1]
	s.items[i], s.pos[last] = last, i+1
	s.items = s.items[:len(s.items)-1]
	s.pos[v] = 0
}

func (s *nodeSet) clear() {
	for _, v := range s.items {
		s.pos[v] = 0
	}
	s.items = s.items[:0]
}

// order computes Order's result from start times at the attempt's II. The
// slice is o's and valid until the next call.
func (o *orderState) order(g *ddg.Graph, times *ddg.Times) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	o.buildGroups(g)
	o.ordered = resize(o.ordered, n)
	clear(o.ordered)
	out := o.out[:0]

	// Adjacency over all dependence edges (data and memory ordering alike:
	// both constrain placement windows).
	o.preds.build(g, false, true)
	o.succs.build(g, true, false)

	mobility := func(v int) int { return times.Latest[v] - times.Earliest[v] }

	// pick returns the best candidate of set under the sweep direction:
	// most critical first (lowest mobility); ties prefer earlier ASAP for
	// top-down sweeps and later ALAP for bottom-up ones; final tie on ID.
	pick := func(set *nodeSet, topDown bool) int {
		best := -1
		for _, v := range set.items {
			if best == -1 {
				best = v
				continue
			}
			mv, mb := mobility(v), mobility(best)
			switch {
			case mv != mb:
				if mv < mb {
					best = v
				}
			case topDown && times.Earliest[v] != times.Earliest[best]:
				if times.Earliest[v] < times.Earliest[best] {
					best = v
				}
			case !topDown && times.Latest[v] != times.Latest[best]:
				if times.Latest[v] > times.Latest[best] {
					best = v
				}
			default:
				if v < best {
					best = v
				}
			}
		}
		return best
	}

	inGroup := &o.inGroup
	for _, set := range []*nodeSet{inGroup, &o.td, &o.bu, &o.seed} {
		set.init(n)
	}
	begin := 0
	for _, end := range o.groupEnd {
		group := o.groupNodes[begin:end]
		begin = end
		inGroup.clear()
		for _, v := range group {
			if !o.ordered[v] {
				inGroup.add(v)
			}
		}
		for len(inGroup.items) > 0 {
			// Seed set: group nodes adjacent to already-ordered nodes.
			td, bu := &o.td, &o.bu // ordered predecessor → top-down; successor → bottom-up
			td.clear()
			bu.clear()
			for _, v := range inGroup.items {
				for _, p := range o.preds.of(v) {
					if o.ordered[p] {
						td.add(v)
						break
					}
				}
				for _, s := range o.succs.of(v) {
					if o.ordered[s] {
						bu.add(v)
						break
					}
				}
			}
			topDown := true
			var frontier *nodeSet
			switch {
			case len(td.items) > 0:
				frontier = td
			case len(bu.items) > 0:
				frontier, topDown = bu, false
			default:
				// Nothing ordered yet touches this group: start top-down
				// from the group's most critical source-like node.
				frontier = &o.seed
				frontier.clear()
				frontier.add(pick(inGroup, true))
			}
			// Sweep until the frontier empties; then swing direction.
			for len(frontier.items) > 0 {
				v := pick(frontier, topDown)
				frontier.del(v)
				if o.ordered[v] {
					continue
				}
				o.ordered[v] = true
				inGroup.del(v)
				out = append(out, v)
				// Grow the frontier along the sweep direction.
				next := o.preds.of(v)
				if topDown {
					next = o.succs.of(v)
				}
				for _, w := range next {
					if inGroup.has(w) && !o.ordered[w] {
						frontier.add(w)
					}
				}
				if len(frontier.items) == 0 {
					// Swing: continue in the opposite direction from the
					// nodes adjacent to what has been ordered so far.
					topDown = !topDown
					for _, w := range inGroup.items {
						adj := o.preds.of(w)
						if !topDown {
							adj = o.succs.of(w)
						}
						for _, x := range adj {
							if o.ordered[x] {
								frontier.add(w)
								break
							}
						}
					}
					if len(frontier.items) == 0 {
						break // disconnected remainder: outer loop reseeds
					}
				}
			}
		}
	}
	o.out = out
	return out
}

// buildGroups computes the SMS set list into groupNodes/groupEnd: one group
// per recurrence in decreasing RecMII order, each union the nodes on paths
// between it and the previously grouped nodes; remaining nodes form one
// final group per weakly-connected component.
func (o *orderState) buildGroups(g *ddg.Graph) {
	n := g.N()
	recs := g.Recurrences()
	o.grouped = resize(o.grouped, n)
	clear(o.grouped)
	o.member = resize(o.member, n)
	o.groupNodes, o.groupEnd = o.groupNodes[:0], o.groupEnd[:0]
	grouped, member := o.grouped, o.member

	o.reachability(g)
	reach := func(from, to int) bool { return o.reach[from*n+to] }

	for _, rec := range recs {
		clear(member)
		fresh := false
		for _, v := range rec.Nodes {
			if !grouped[v] {
				member[v] = true
				fresh = true
			}
		}
		if !fresh {
			continue
		}
		// Nodes on paths between earlier groups and this recurrence:
		// v with (grouped ⇝ v and v ⇝ rec) or (rec ⇝ v and v ⇝ grouped).
		for v := 0; v < n; v++ {
			if grouped[v] || member[v] {
				continue
			}
			fromPrev, toPrev := false, false
			for w := 0; w < n; w++ {
				if grouped[w] {
					if reach(w, v) {
						fromPrev = true
					}
					if reach(v, w) {
						toPrev = true
					}
				}
			}
			toRec, fromRec := false, false
			for _, w := range rec.Nodes {
				if reach(v, w) {
					toRec = true
				}
				if reach(w, v) {
					fromRec = true
				}
			}
			if (fromPrev && toRec) || (fromRec && toPrev) {
				member[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if member[v] {
				o.groupNodes = append(o.groupNodes, v)
				grouped[v] = true
			}
		}
		o.groupEnd = append(o.groupEnd, len(o.groupNodes))
	}

	// Remaining nodes: weakly-connected components, in node-ID order.
	o.undirected.build(g, true, true)
	for v := 0; v < n; v++ {
		if grouped[v] {
			continue
		}
		stack := append(o.stack[:0], v)
		grouped[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			o.groupNodes = append(o.groupNodes, x)
			for _, w := range o.undirected.of(x) {
				if !grouped[w] {
					grouped[w] = true
					stack = append(stack, w)
				}
			}
		}
		o.stack = stack
		o.groupEnd = append(o.groupEnd, len(o.groupNodes))
	}
}

// reachability fills o.reach with the transitive closure over all edges:
// reach[v·n+w] reports a path v ⇝ w of at least one edge, w ≠ v (one DFS
// per node; loop bodies are small).
func (o *orderState) reachability(g *ddg.Graph) {
	n := g.N()
	o.reach = resize(o.reach, n*n)
	clear(o.reach)
	for v := 0; v < n; v++ {
		row := o.reach[v*n : (v+1)*n]
		row[v] = true // seen; cleared below
		stack := append(o.stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.Out(x) {
				if w := g.Edges[ei].To; !row[w] {
					row[w] = true
					stack = append(stack, w)
				}
			}
		}
		o.stack = stack
		row[v] = false
	}
}
