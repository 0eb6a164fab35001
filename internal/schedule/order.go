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

	inGroup, td, bu, seed nodeSet
}

// hasOrderedPred reports whether a predecessor of v other than v itself is
// ordered; hasOrderedSucc is the same for successors.
func (o *orderState) hasOrderedPred(g *ddg.Graph, v int) bool {
	for _, ei := range g.In(v) {
		if u := g.Edges[ei].From; u != v && o.ordered[u] {
			return true
		}
	}
	return false
}

func (o *orderState) hasOrderedSucc(g *ddg.Graph, v int) bool {
	for _, ei := range g.Out(v) {
		if w := g.Edges[ei].To; w != v && o.ordered[w] {
			return true
		}
	}
	return false
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
	groupNodes, groupEnd := g.SMSGroups()
	if h := probeReference; h != nil {
		groupNodes, groupEnd = h.groups(g)
	}
	o.ordered = resize(o.ordered, n)
	clear(o.ordered)
	out := o.out[:0]

	// Neighbors are taken over all dependence edges (data and memory
	// ordering alike: both constrain placement windows).
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
	for _, end := range groupEnd {
		group := groupNodes[begin:end]
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
				if o.hasOrderedPred(g, v) {
					td.add(v)
				}
				if o.hasOrderedSucc(g, v) {
					bu.add(v)
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
				if topDown {
					for _, ei := range g.Out(v) {
						if w := g.Edges[ei].To; inGroup.has(w) && !o.ordered[w] {
							frontier.add(w)
						}
					}
				} else {
					for _, ei := range g.In(v) {
						if w := g.Edges[ei].From; inGroup.has(w) && !o.ordered[w] {
							frontier.add(w)
						}
					}
				}
				if len(frontier.items) == 0 {
					// Swing: continue in the opposite direction from the
					// nodes adjacent to what has been ordered so far.
					topDown = !topDown
					for _, w := range inGroup.items {
						if topDown && o.hasOrderedPred(g, w) || !topDown && o.hasOrderedSucc(g, w) {
							frontier.add(w)
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
