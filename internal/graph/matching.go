// Package graph provides the weighted undirected graphs and maximum-weight
// matching used by the multilevel coarsening phase of the partitioner.
//
// The paper computes a maximum-weight matching at every coarsening step
// using the implementation in the LEDA library (paper §2.1.2, footnote).
// LEDA's exact general-graph matching is not available here, so this package
// substitutes:
//
//   - an exact maximum-weight matching via dynamic programming over vertex
//     subsets for graphs with at most ExactLimit vertices (which covers the
//     small coarse graphs near the end of coarsening, where the matching
//     choice matters most), and
//   - greedy heavy-edge matching followed by 2-exchange local improvement
//     for larger graphs (the standard multilevel-partitioning practice,
//     e.g. METIS; greedy alone is a ½-approximation, which the tests check
//     against the exact algorithm on random small graphs).
//
// Both run out of a Matcher's reusable scratch, so a caller that keeps one
// Matcher across graphs (the partitioner keeps it in its arena) matches
// without allocating once the buffers have grown.
package graph

import (
	"cmp"
	"math/bits"
	"slices"
)

// Edge is an undirected edge with a non-negative weight. Parallel edges are
// allowed (the partitioner merges them before matching); self loops are
// ignored by the matching algorithms.
type Edge struct {
	U, V int
	W    int64
}

// Graph is a simple edge-list representation of an undirected weighted
// graph over vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// ExactLimit is the largest vertex count for which MaxWeight uses the exact
// subset DP. The DP evaluates only the vertex subsets reachable from the
// full set, at most 2^N of them, each in O(N) time, and keeps 2^N memo
// slots; on a 14-vertex coarse graph that is tens of microseconds. Above
// the limit, greedy matching with 2-exchange improvement is fast and
// within a few percent of optimal. The limit shapes every coarsening, so
// changing it changes partitions.
const ExactLimit = 14

// maxImprovePasses bounds the 2-exchange local search of improve.
const maxImprovePasses = 8

// Matching is a set of vertex-disjoint edges, given by indices into the
// graph's edge list.
type Matching struct {
	// EdgeIdx are indices into Graph.Edges.
	EdgeIdx []int
	// Weight is the total weight of the matched edges.
	Weight int64
	// Mate maps each vertex to its partner, or -1 if unmatched.
	Mate []int
}

// Matcher computes matchings out of reusable scratch. The zero value is
// ready to use. A Matcher serves one goroutine at a time, and the Matching
// its methods return is owned by the Matcher: it stays valid only until the
// next call.
type Matcher struct {
	m Matching

	// Exact DP. pairW and pairIdx hold the heaviest positive edge of each
	// vertex pair (row-major, stride ExactLimit) and adj[v] the mask of
	// v's partners through such edges. dp and choice are the memo tables,
	// indexed by vertex subset: the best weight within the subset and the
	// partner matched to its lowest vertex (-1 for none). A slot is valid
	// only while its stamp equals gen, so no table is cleared per call.
	pairW   [ExactLimit * ExactLimit]int64
	pairIdx [ExactLimit * ExactLimit]int32
	adj     [ExactLimit]uint32
	dp      []int64
	choice  []int8
	stamp   []uint32
	gen     uint32

	// order is the greedy scan order over edge indices, and keys its
	// packed sort keys (see greedyOrder).
	order []int
	keys  []uint64

	// The 2-exchange best-edge index: every non-loop edge listed under
	// both endpoints, each vertex's list in ascending edge order (CSR).
	head []int
	inc  []incidence
	// pos maps a vertex to the position in EdgeIdx of the greedy edge
	// that covers it (-1 for none), and near collects the positions a
	// pair exchange visits.
	pos  []int
	near []int
}

// incidence is one entry of a vertex's edge list: the other endpoint and
// the edge index.
type incidence struct{ v, e int }

// MaxWeight returns a maximum-weight matching of g: exact for graphs with
// at most ExactLimit vertices, greedy heavy-edge matching with 2-exchange
// improvement above that.
func (mt *Matcher) MaxWeight(g *Graph) *Matching {
	if g.N <= ExactLimit {
		return mt.exact(g)
	}
	mt.Greedy(g)
	mt.improve(g)
	return &mt.m
}

// Greedy returns the heavy-edge greedy matching: edges are scanned in order
// of decreasing weight (ties by lower edge index, for determinism) and
// added when both endpoints are free. This is a ½-approximation of the
// maximum-weight matching.
func (mt *Matcher) Greedy(g *Graph) *Matching {
	edges := g.Edges
	order := mt.greedyOrder(edges)
	m := mt.reset(g.N)
	for _, ei := range order {
		e := edges[ei]
		if e.U == e.V || e.W < 0 {
			continue
		}
		if m.Mate[e.U] == -1 && m.Mate[e.V] == -1 {
			matchPair(m, e.U, e.V)
			m.EdgeIdx = append(m.EdgeIdx, ei)
			m.Weight += e.W
		}
	}
	return m
}

// Packed greedy keys: (maxW − W) above keyIdxBits bits of edge index, so
// that ascending keys are descending weights with ties by ascending index.
// Weights must lie in [0, 1<<keyWBits) and indices below 1<<keyIdxBits for
// the key to fit in 63 bits.
const (
	keyIdxBits = 24
	keyWBits   = 39
)

// greedyOrder returns the edge indices sorted by decreasing weight, ties by
// ascending index, in the Matcher's order buffer. The order is total, so
// any correct sort yields the same permutation: when every weight and index
// fits a packed key it sorts plain integers, and otherwise it falls back to
// comparing the edges.
func (mt *Matcher) greedyOrder(edges []Edge) []int {
	order := mt.order[:0]
	if greedyOrderReference != nil {
		order = greedyOrderReference(order, edges)
		mt.order = order
		return order
	}
	var maxW int64
	packed := len(edges) < 1<<keyIdxBits
	for _, e := range edges {
		if e.W < 0 || e.W >= 1<<keyWBits {
			packed = false
			break
		}
		maxW = max(maxW, e.W)
	}
	if !packed {
		for i := range edges {
			order = append(order, i)
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(edges[b].W, edges[a].W); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		mt.order = order
		return order
	}
	keys := mt.keys[:0]
	for i, e := range edges {
		keys = append(keys, uint64(maxW-e.W)<<keyIdxBits|uint64(i))
	}
	slices.Sort(keys)
	for _, k := range keys {
		order = append(order, int(k&(1<<keyIdxBits-1)))
	}
	mt.keys, mt.order = keys, order
	return order
}

// greedyOrderReference, when a test sets it, replaces greedyOrder's sort:
// it appends the order to its first argument and returns it.
var greedyOrderReference func(order []int, edges []Edge) []int

// reset empties the Matcher's result for an n-vertex graph and returns it.
func (mt *Matcher) reset(n int) *Matching {
	m := &mt.m
	if cap(m.Mate) >= n {
		m.Mate = m.Mate[:n]
	} else {
		m.Mate = make([]int, n)
	}
	for i := range m.Mate {
		m.Mate[i] = -1
	}
	m.EdgeIdx = m.EdgeIdx[:0]
	m.Weight = 0
	return m
}

// improve applies 2-exchange local search to the matching in mt.m: for
// every pair of matched edges (a,b),(c,d) it considers rematching as
// (a,c),(b,d) or (a,d),(b,c) when those edges exist and are heavier; and
// for every matched edge it considers replacing it with a heavier incident
// edge whose other endpoint is free. It repeats until a pass makes no
// improvement, for at most maxImprovePasses passes, then rebuilds EdgeIdx
// and Weight from Mate.
//
// Either rematching needs an edge from a to c or d, so the pair loop
// visits, for each matched edge, only the later matched edges with an
// endpoint adjacent to a, in ascending position: the pairs it skips could
// not rewire, so it makes the same rewires in the same order as visiting
// every pair.
func (mt *Matcher) improve(g *Graph) {
	mt.indexEdges(g)
	m := &mt.m
	pos := slices.Grow(mt.pos[:0], g.N)[:g.N]
	for v := range pos {
		pos[v] = -1
	}
	for i, ei := range m.EdgeIdx {
		pos[g.Edges[ei].U], pos[g.Edges[ei].V] = i, i
	}
	mt.pos = pos
	weightOf := func(u, v int) (int64, bool) {
		if j := mt.heaviest(g, u, v); j >= 0 {
			return g.Edges[j].W, true
		}
		return 0, false
	}
	for pass := 0; pass < maxImprovePasses; pass++ {
		improved := false
		// Single-edge upgrades: matched edge (u,v) vs incident (u,x) with x free.
		for _, e := range g.Edges {
			if e.U == e.V {
				continue
			}
			u, v := e.U, e.V
			if m.Mate[u] == -1 && m.Mate[v] == -1 {
				// Both free: greedy missed only if weight positive; take it.
				if e.W > 0 {
					matchPair(m, u, v)
					improved = true
				}
				continue
			}
			if m.Mate[u] != -1 && m.Mate[v] != -1 {
				continue
			}
			// Exactly one endpoint matched; try replacing its current edge.
			if m.Mate[v] != -1 {
				u, v = v, u // u matched, v free
			}
			w := m.Mate[u]
			cur, _ := weightOf(u, w)
			if e.W > cur {
				unmatchPair(m, u, w)
				matchPair(m, u, v)
				improved = true
			}
		}
		// Pair exchanges. Rewiring updates only Mate, so until rebuild
		// EdgeIdx still lists the greedy matching's edges; the Mate check
		// skips those no longer matched.
		for i, ei := range m.EdgeIdx {
			e1 := g.Edges[ei]
			a, b := e1.U, e1.V
			if m.Mate[a] != b {
				continue // already rewired this pass
			}
			near := mt.near[:0]
			for _, in := range mt.inc[mt.head[a]:mt.head[a+1]] {
				if j := pos[in.v]; j > i {
					near = append(near, j)
				}
			}
			slices.Sort(near)
			mt.near = slices.Compact(near)
			for _, j := range mt.near {
				e2 := g.Edges[m.EdgeIdx[j]]
				c, d := e2.U, e2.V
				if m.Mate[c] != d {
					continue // already rewired this pass
				}
				base := e1.W + e2.W
				if w1, ok1 := weightOf(a, c); ok1 {
					if w2, ok2 := weightOf(b, d); ok2 && w1+w2 > base {
						unmatchPair(m, a, b)
						unmatchPair(m, c, d)
						matchPair(m, a, c)
						matchPair(m, b, d)
						improved = true
						break
					}
				}
				if w1, ok1 := weightOf(a, d); ok1 {
					if w2, ok2 := weightOf(b, c); ok2 && w1+w2 > base {
						unmatchPair(m, a, b)
						unmatchPair(m, c, d)
						matchPair(m, a, d)
						matchPair(m, b, c)
						improved = true
						break
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	mt.rebuild(g)
}

// indexEdges builds the best-edge index of g's non-loop edges.
func (mt *Matcher) indexEdges(g *Graph) {
	head := slices.Grow(mt.head[:0], g.N+1)[:g.N+1]
	clear(head)
	for _, e := range g.Edges {
		if e.U != e.V {
			head[e.U]++
			head[e.V]++
		}
	}
	for v := 1; v <= g.N; v++ {
		head[v] += head[v-1]
	}
	// head[v] is now the end of v's list. Filling each list backwards
	// while scanning edges in descending order leaves head[v] at the
	// list's start and every list ascending.
	inc := slices.Grow(mt.inc[:0], head[g.N])[:head[g.N]]
	for i := len(g.Edges) - 1; i >= 0; i-- {
		e := g.Edges[i]
		if e.U == e.V {
			continue
		}
		head[e.U]--
		inc[head[e.U]] = incidence{e.V, i}
		head[e.V]--
		inc[head[e.V]] = incidence{e.U, i}
	}
	mt.head, mt.inc = head, inc
}

// heaviest returns the index of the heaviest edge joining u and v, the
// lowest index among equally heavy parallel edges, or -1 if none exists.
func (mt *Matcher) heaviest(g *Graph, u, v int) int {
	best := -1
	for _, in := range mt.inc[mt.head[u]:mt.head[u+1]] {
		if in.v == v && (best < 0 || g.Edges[in.e].W > g.Edges[best].W) {
			best = in.e
		}
	}
	return best
}

func matchPair(m *Matching, u, v int) {
	m.Mate[u], m.Mate[v] = v, u
}

func unmatchPair(m *Matching, u, v int) {
	m.Mate[u], m.Mate[v] = -1, -1
}

// rebuild recomputes EdgeIdx (in vertex order) and Weight from Mate,
// taking the heaviest parallel edge of each matched pair from the index
// improve built.
func (mt *Matcher) rebuild(g *Graph) {
	m := &mt.m
	m.EdgeIdx = m.EdgeIdx[:0]
	m.Weight = 0
	for u, v := range m.Mate {
		if v > u {
			j := mt.heaviest(g, u, v)
			m.EdgeIdx = append(m.EdgeIdx, j)
			m.Weight += g.Edges[j].W
		}
	}
}

// exact computes a maximum-weight matching of a graph with at most
// ExactLimit vertices by dynamic programming over vertex subsets. For a
// subset S, best(S) is the heaviest matching using only vertices in S: with
// v the lowest vertex of S, either v stays unmatched, or v is matched to a
// partner u in S through the heaviest positive v–u edge. The recursion runs
// top-down from the full vertex set, so only reachable subsets are
// evaluated.
func (mt *Matcher) exact(g *Graph) *Matching {
	n := g.N
	clear(mt.adj[:n])
	for i, e := range g.Edges {
		if e.U == e.V || e.W <= 0 {
			continue
		}
		k := e.U*ExactLimit + e.V
		if mt.adj[e.U]&(1<<e.V) == 0 || e.W > mt.pairW[k] {
			mt.adj[e.U] |= 1 << e.V
			mt.adj[e.V] |= 1 << e.U
			k2 := e.V*ExactLimit + e.U
			mt.pairW[k], mt.pairIdx[k] = e.W, int32(i)
			mt.pairW[k2], mt.pairIdx[k2] = e.W, int32(i)
		}
	}
	if size := 1 << n; len(mt.stamp) < size {
		mt.dp = make([]int64, size)
		mt.choice = make([]int8, size)
		mt.stamp = make([]uint32, size)
	}
	if mt.gen++; mt.gen == 0 {
		clear(mt.stamp)
		mt.gen = 1
	}

	full := uint32(1)<<n - 1
	m := mt.reset(n)
	m.Weight = mt.best(full)
	for s := full; s != 0; {
		v := bits.TrailingZeros32(s)
		u := int(mt.choice[s])
		if u < 0 {
			s &^= 1 << v
			continue
		}
		matchPair(m, v, u)
		m.EdgeIdx = append(m.EdgeIdx, int(mt.pairIdx[v*ExactLimit+u]))
		s &^= 1<<v | 1<<u
	}
	return m
}

// best returns the heaviest matching weight within vertex subset s,
// memoizing it with the partner chosen for s's lowest vertex. Partners are
// tried in ascending order and replace the incumbent only when strictly
// heavier, so among equal-weight matchings the choice is deterministic.
func (mt *Matcher) best(s uint32) int64 {
	if s == 0 {
		return 0
	}
	if mt.stamp[s] == mt.gen {
		return mt.dp[s]
	}
	v := bits.TrailingZeros32(s)
	rest := s &^ (1 << v)
	bestW, bestU := mt.best(rest), int8(-1) // leave v unmatched
	for cand := mt.adj[v] & rest; cand != 0; cand &= cand - 1 {
		u := bits.TrailingZeros32(cand)
		if w := mt.best(rest&^(1<<u)) + mt.pairW[v*ExactLimit+u]; w > bestW {
			bestW, bestU = w, int8(u)
		}
	}
	mt.dp[s], mt.choice[s], mt.stamp[s] = bestW, bestU, mt.gen
	return bestW
}
