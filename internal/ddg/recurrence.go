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
