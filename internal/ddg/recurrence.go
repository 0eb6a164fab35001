package ddg

// Recurrence analysis: strongly connected components of the full dependence
// graph (including loop-carried edges) identify the recurrences that bound
// the initiation interval. The Swing Modulo Scheduling ordering (paper
// §3.3.3, Llosa et al.) processes recurrences in decreasing order of their
// individual RecMII.

// Recurrence is one strongly connected component with at least one cycle.
type Recurrence struct {
	// Nodes are the member node IDs.
	Nodes []int
	// RecMII is the recurrence-constrained minimum II of the subgraph
	// induced by Nodes.
	RecMII int
}

// SCCs returns the strongly connected components of the graph (Tarjan),
// in reverse topological order of the condensation.
func (g *Graph) SCCs() [][]int {
	g.buildAdj()
	return g.sccs()
}

// sccs is SCCs over the adjacency lists buildAdj has already built. The
// components are sub-slices of one slab.
func (g *Graph) sccs() [][]int {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	stack := make([]int, 0, n)
	slab := make([]int, 0, n)
	comps := make([][]int, 0, n)
	next := 0

	// Iterative Tarjan to avoid recursion depth limits on long chains.
	type frame struct {
		v, ei int
	}
	callStack := make([]frame, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{root, 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(g.out[v]) {
				e := g.Edges[g.out[v][f.ei]]
				f.ei++
				w := e.To
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(slab)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					slab = append(slab, w)
					if w == v {
						break
					}
				}
				comps = append(comps, slab[start:len(slab):len(slab)])
			}
		}
	}
	return comps
}

// Recurrences returns the graph's recurrences: SCCs that contain at least
// one edge (a self-loop counts), each with the RecMII of its induced
// subgraph. The slice is sorted by decreasing RecMII (ties: larger first
// node ID last, for determinism). It is computed once per graph (Freeze
// computes it up front) and shared by every caller, so callers must treat
// it, and each recurrence's Nodes, as read-only.
func (g *Graph) Recurrences() []Recurrence {
	g.buildAdj()
	if g.recsOK {
		return g.recs
	}
	// Every segment of the forward plan but a trailing acyclic one holds
	// one recurrence, its inner arcs being the induced subgraph's edges.
	var recs []Recurrence
	x := make([]int, len(g.Nodes))
	for i := range g.fwd {
		if s := &g.fwd[i]; len(s.inner) > 0 {
			recs = append(recs, Recurrence{Nodes: s.nodes, RecMII: s.recMII(x)})
		}
	}
	// Sort by decreasing RecMII; stable on first node ID for determinism.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && less(recs[j-1], recs[j]); j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
	g.recs, g.recsOK = recs, true
	return recs
}

func less(a, b Recurrence) bool {
	if a.RecMII != b.RecMII {
		return a.RecMII < b.RecMII
	}
	return a.Nodes[0] > b.Nodes[0]
}

// smsGroups is the SMSGroups result: group i is nodes[ends[i-1]:ends[i]],
// the first starting at 0.
type smsGroups struct {
	nodes, ends []int
}

// SMSGroups returns the node sets of the Swing Modulo Scheduling order
// (Llosa et al., PACT'96; paper §3.3.3) concatenated in nodes, group i
// ending at ends[i]:
//
//   - one group per recurrence, in Recurrences order, that still has
//     ungrouped nodes: those nodes and every ungrouped node on a path
//     between the recurrence and the nodes grouped before it, in ID order;
//   - then one group per weakly connected component of the remaining
//     nodes, in ID order of the components' first nodes, each in the order
//     a depth-first walk over the edges in index order meets them.
//
// The groups do not depend on the II, so like Recurrences they are
// computed once per graph (Freeze computes them up front) and shared:
// callers must treat both slices as read-only.
func (g *Graph) SMSGroups() (nodes, ends []int) {
	recs := g.Recurrences()
	if g.sms != nil {
		return g.sms.nodes, g.sms.ends
	}
	n := len(g.Nodes)
	flags := make([]bool, 6*n)
	grouped, member := flags[:n], flags[n:2*n]
	fromPrev, toPrev, fromRec, toRec := flags[2*n:3*n], flags[3*n:4*n], flags[4*n:5*n], flags[5*n:]
	// One slab holds the groups' nodes, their ends (at most one group per
	// node) and the walks' stack (at most every node twice).
	slab := make([]int, 4*n)
	sms := &smsGroups{nodes: slab[:0:n], ends: slab[n : n : 2*n]}
	stack := slab[2*n : 2*n : 4*n]
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
		// Nodes on paths between earlier groups and this recurrence: v
		// with (grouped ⇝ v and v ⇝ rec) or (rec ⇝ v and v ⇝ grouped),
		// each path at least one edge long.
		stack = g.reach(fromPrev, sms.nodes, true, stack)
		stack = g.reach(toPrev, sms.nodes, false, stack)
		stack = g.reach(fromRec, rec.Nodes, true, stack)
		stack = g.reach(toRec, rec.Nodes, false, stack)
		for v := 0; v < n; v++ {
			if !grouped[v] && !member[v] && (fromPrev[v] && toRec[v] || fromRec[v] && toPrev[v]) {
				member[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if member[v] {
				sms.nodes = append(sms.nodes, v)
				grouped[v] = true
			}
		}
		sms.ends = append(sms.ends, len(sms.nodes))
	}

	// Remaining nodes: weakly connected components, in node-ID order. A
	// node's neighbors are the other ends of its edges in index order,
	// merged from its out- and in-lists (both in index order).
	for v := 0; v < n; v++ {
		if grouped[v] {
			continue
		}
		stack = append(stack[:0], v)
		grouped[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sms.nodes = append(sms.nodes, x)
			out, in := g.out[x], g.in[x]
			for len(out) > 0 || len(in) > 0 {
				var e *Edge
				if len(in) == 0 || len(out) > 0 && out[0] < in[0] {
					e, out = &g.Edges[out[0]], out[1:]
				} else {
					e, in = &g.Edges[in[0]], in[1:]
				}
				w := e.To
				if w == x {
					w = e.From
				}
				if e.From != e.To && !grouped[w] {
					grouped[w] = true
					stack = append(stack, w)
				}
			}
		}
		sms.ends = append(sms.ends, len(sms.nodes))
	}
	g.sms = sms
	return sms.nodes, sms.ends
}

// reach sets seen[v] for exactly the nodes v reachable from some source by
// a path of at least one edge, along the edges (fwd) or against them. The
// stack is scratch; reach returns it for reuse.
func (g *Graph) reach(seen []bool, sources []int, fwd bool, stack []int) []int {
	clear(seen)
	stack = append(stack[:0], sources...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fwd {
			for _, ei := range g.out[x] {
				if w := g.Edges[ei].To; !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		} else {
			for _, ei := range g.in[x] {
				if w := g.Edges[ei].From; !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return stack
}
