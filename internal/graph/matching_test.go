package graph

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// validMatching checks structural invariants: matched edges are vertex
// disjoint, Mate is symmetric and consistent with EdgeIdx, Weight is the
// sum of matched edge weights.
func validMatching(t *testing.T, g *Graph, m *Matching) {
	t.Helper()
	if len(m.Mate) != g.N {
		t.Fatalf("Mate length %d, want %d", len(m.Mate), g.N)
	}
	for v, u := range m.Mate {
		if u == -1 {
			continue
		}
		if u < 0 || u >= g.N {
			t.Fatalf("Mate[%d] = %d out of range", v, u)
		}
		if m.Mate[u] != v {
			t.Fatalf("Mate not symmetric: Mate[%d]=%d, Mate[%d]=%d", v, u, u, m.Mate[u])
		}
	}
	seen := make(map[int]bool)
	var w int64
	for _, ei := range m.EdgeIdx {
		e := g.Edges[ei]
		if seen[e.U] || seen[e.V] {
			t.Fatalf("edge %d (%d-%d) shares a vertex with another matched edge", ei, e.U, e.V)
		}
		seen[e.U], seen[e.V] = true, true
		if m.Mate[e.U] != e.V || m.Mate[e.V] != e.U {
			t.Fatalf("EdgeIdx and Mate disagree on edge %d", ei)
		}
		w += e.W
	}
	if w != m.Weight {
		t.Fatalf("Weight = %d, sum of matched edges = %d", m.Weight, w)
	}
}

func TestExactTriangle(t *testing.T) {
	// Triangle with weights 5, 4, 3: best matching is the single edge 5.
	g := &Graph{N: 3, Edges: []Edge{{0, 1, 5}, {1, 2, 4}, {0, 2, 3}}}
	m := new(Matcher).MaxWeight(g)
	validMatching(t, g, m)
	if m.Weight != 5 {
		t.Errorf("Weight = %d, want 5", m.Weight)
	}
}

func TestExactBeatsGreedy(t *testing.T) {
	// Path a-b-c-d with weights 3, 4, 3: greedy picks the middle edge
	// (weight 4); optimum picks the two outer edges (weight 6).
	g := &Graph{N: 4, Edges: []Edge{{0, 1, 3}, {1, 2, 4}, {2, 3, 3}}}
	greedy := new(Matcher).Greedy(g)
	if greedy.Weight != 4 {
		t.Fatalf("greedy Weight = %d, want 4", greedy.Weight)
	}
	m := new(Matcher).MaxWeight(g)
	validMatching(t, g, m)
	if m.Weight != 6 {
		t.Errorf("exact Weight = %d, want 6", m.Weight)
	}
}

func TestPerfectMatchingCycle(t *testing.T) {
	// Even cycle with uniform weights: perfect matching of n/2 edges.
	n := 8
	g := &Graph{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, Edge{i, (i + 1) % n, 10})
	}
	m := new(Matcher).MaxWeight(g)
	validMatching(t, g, m)
	if m.Weight != int64(n/2*10) {
		t.Errorf("Weight = %d, want %d", m.Weight, n/2*10)
	}
}

func TestParallelEdgesPickHeaviest(t *testing.T) {
	g := &Graph{N: 2, Edges: []Edge{{0, 1, 3}, {0, 1, 9}, {0, 1, 1}}}
	m := new(Matcher).MaxWeight(g)
	validMatching(t, g, m)
	if m.Weight != 9 {
		t.Errorf("Weight = %d, want 9 (heaviest parallel edge)", m.Weight)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := &Graph{N: 2, Edges: []Edge{{0, 0, 100}, {0, 1, 1}}}
	m := new(Matcher).MaxWeight(g)
	validMatching(t, g, m)
	if m.Weight != 1 {
		t.Errorf("Weight = %d, want 1 (self loop must be ignored)", m.Weight)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, n := range []int{0, 1} {
		g := &Graph{N: n}
		m := new(Matcher).MaxWeight(g)
		validMatching(t, g, m)
		if m.Weight != 0 || len(m.EdgeIdx) != 0 {
			t.Errorf("n=%d: Weight=%d edges=%d, want empty", n, m.Weight, len(m.EdgeIdx))
		}
	}
}

func randomGraph(r *rand.Rand, n, maxEdges int) *Graph {
	g := &Graph{N: n}
	e := r.Intn(maxEdges + 1)
	for i := 0; i < e; i++ {
		g.Edges = append(g.Edges, Edge{r.Intn(n), r.Intn(n), int64(r.Intn(50) + 1)})
	}
	return g
}

// TestGreedyHalfApproximation checks the classical guarantee
// greedy ≥ ½·optimal on random small graphs, comparing against the exact
// subset-DP matching.
func TestGreedyHalfApproximation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(10) + 2
		g := randomGraph(r, n, 25)
		exact := new(Matcher).exact(g)
		greedy := new(Matcher).Greedy(g)
		validMatching(t, g, exact)
		validMatching(t, g, greedy)
		if 2*greedy.Weight < exact.Weight {
			t.Fatalf("trial %d: greedy %d < ½·exact %d on %+v", trial, greedy.Weight, exact.Weight, g)
		}
		if greedy.Weight > exact.Weight {
			t.Fatalf("trial %d: greedy %d exceeds exact %d", trial, greedy.Weight, exact.Weight)
		}
	}
}

// TestImprovementNeverHurts checks that local improvement only increases
// weight and preserves matching validity.
func TestImprovementNeverHurts(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(30) + 2
		g := randomGraph(r, n, 80)
		mt := new(Matcher)
		greedy := mt.Greedy(g)
		gw := greedy.Weight
		mt.improve(g)
		validMatching(t, g, greedy)
		if greedy.Weight < gw {
			t.Fatalf("trial %d: improvement reduced weight %d → %d", trial, gw, greedy.Weight)
		}
	}
}

// TestExactMatchesBruteForce cross-checks the subset DP against a direct
// recursive enumeration on tiny graphs.
func TestExactMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var brute func(g *Graph, used int) int64
	brute = func(g *Graph, used int) int64 {
		var best int64
		for _, e := range g.Edges {
			if e.U == e.V || used&(1<<e.U) != 0 || used&(1<<e.V) != 0 {
				continue
			}
			if w := e.W + brute(g, used|1<<e.U|1<<e.V); w > best {
				best = w
			}
		}
		return best
	}
	for trial := 0; trial < 150; trial++ {
		n := r.Intn(7) + 1
		g := randomGraph(r, n, 14)
		exact := new(Matcher).exact(g)
		if want := brute(g, 0); exact.Weight != want {
			t.Fatalf("trial %d: exact %d, brute force %d", trial, exact.Weight, want)
		}
	}
}

// TestMatchingDisjointProperty is a quick-check property: no vertex appears
// in two matched edges for arbitrary random graphs (including above the
// exact threshold).
func TestMatchingDisjointProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, eRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		g := randomGraph(r, n, int(eRaw))
		m := new(Matcher).MaxWeight(g)
		used := make(map[int]bool)
		for _, ei := range m.EdgeIdx {
			e := g.Edges[ei]
			if used[e.U] || used[e.V] {
				return false
			}
			used[e.U], used[e.V] = true, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeGraphUsesGreedyPath(t *testing.T) {
	// A graph above ExactLimit must still produce a valid matching quickly.
	r := rand.New(rand.NewSource(4))
	g := randomGraph(r, 200, 1000)
	m := new(Matcher).MaxWeight(g)
	validMatching(t, g, m)
	if len(m.EdgeIdx) == 0 {
		t.Error("large random graph produced empty matching")
	}
}

func TestMaximality(t *testing.T) {
	// The returned matching must be maximal: no remaining edge has both
	// endpoints free (otherwise coarsening stalls).
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(50) + 2
		g := randomGraph(r, n, 150)
		m := new(Matcher).MaxWeight(g)
		for _, e := range g.Edges {
			if e.U != e.V && e.W > 0 && m.Mate[e.U] == -1 && m.Mate[e.V] == -1 {
				t.Fatalf("trial %d: matching not maximal, edge %d-%d free", trial, e.U, e.V)
			}
		}
	}
}

// denseExactMatching is the reference for Matcher.exact: the same subset
// recurrence evaluated bottom-up over the full 2^N table.
func denseExactMatching(g *Graph) *Matching {
	n := g.N
	// Heaviest parallel edge between each pair.
	type pe struct {
		w   int64
		idx int
	}
	pair := make([][]pe, n)
	for i := range pair {
		pair[i] = make([]pe, n)
		for j := range pair[i] {
			pair[i][j] = pe{0, -1}
		}
	}
	for i, e := range g.Edges {
		if e.U == e.V || e.W <= 0 {
			continue
		}
		if e.W > pair[e.U][e.V].w {
			pair[e.U][e.V] = pe{e.W, i}
			pair[e.V][e.U] = pe{e.W, i}
		}
	}
	size := 1 << n
	dp := make([]int64, size)
	choice := make([]int32, size) // matched partner of lowest bit, or -1
	for s := 1; s < size; s++ {
		v := bits.TrailingZeros(uint(s))
		rest := s &^ (1 << v)
		bestW := dp[rest] // leave v unmatched
		bestU := int32(-1)
		for u := v + 1; u < n; u++ {
			if rest&(1<<u) == 0 {
				continue
			}
			if p := pair[v][u]; p.idx >= 0 {
				if w := dp[rest&^(1<<u)] + p.w; w > bestW {
					bestW, bestU = w, int32(u)
				}
			}
		}
		dp[s] = bestW
		choice[s] = bestU
	}
	m := &Matching{Mate: make([]int, n), Weight: dp[size-1]}
	for i := range m.Mate {
		m.Mate[i] = -1
	}
	for s := size - 1; s > 0; {
		v := bits.TrailingZeros(uint(s))
		u := choice[s]
		if u < 0 {
			s &^= 1 << v
			continue
		}
		m.Mate[v], m.Mate[u] = int(u), v
		m.EdgeIdx = append(m.EdgeIdx, pair[v][u].idx)
		s &^= (1 << v) | (1 << int(u))
	}
	return m
}

// tieGraph returns a random n-vertex multigraph whose weights come from a
// narrow range around zero: ties, zero and negative weights, self loops and
// parallel edges are all common.
func tieGraph(r *rand.Rand, n int) *Graph {
	g := &Graph{N: n}
	e := r.Intn(n*n/2 + 2*n + 1)
	for i := 0; i < e; i++ {
		g.Edges = append(g.Edges, Edge{r.Intn(n), r.Intn(n), int64(r.Intn(9) - 2)})
	}
	return g
}

func completeGraph(n int, w func(u, v int) int64) *Graph {
	g := &Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.Edges = append(g.Edges, Edge{u, v, w(u, v)})
		}
	}
	return g
}

// TestExactMatchesDenseReference requires the reachable-state DP to return
// exactly what the dense table returns — Mate, EdgeIdx order and Weight —
// so coarsening, and with it every partition, is unchanged. One Matcher
// serves runs of consecutive graphs, so stale scratch from earlier graphs
// would show.
func TestExactMatchesDenseReference(t *testing.T) {
	graphs := []*Graph{
		{N: 0},
		completeGraph(ExactLimit, func(u, v int) int64 { return 1 }),
		completeGraph(ExactLimit, func(u, v int) int64 { return int64((u*7 + v*3) % 5) }),
	}
	r := rand.New(rand.NewSource(14))
	for len(graphs) < 20003 {
		n := 1 + len(graphs)%ExactLimit
		if len(graphs)%2 == 0 {
			graphs = append(graphs, tieGraph(r, n))
		} else {
			graphs = append(graphs, randomGraph(r, n, 3*n))
		}
	}
	mt := new(Matcher)
	for i, g := range graphs {
		if i%997 == 0 {
			// Wrap the memo generation right after an edgeless call at
			// generation 1. Unless the wrap clears the stamps and restarts
			// at 1, either that call's entries or the untouched slots look
			// valid to the next graph.
			mt = new(Matcher)
			mt.exact(&Graph{N: g.N})
			mt.gen = ^uint32(0)
		}
		got, want := mt.exact(g), denseExactMatching(g)
		if got.Weight != want.Weight || !slices.Equal(got.Mate, want.Mate) || !slices.Equal(got.EdgeIdx, want.EdgeIdx) {
			t.Fatalf("graph %d (n=%d, %d edges): got %+v, dense reference %+v", i, g.N, len(g.Edges), *got, *want)
		}
	}
}

// TestMatchingAllocFree pins the scratch contract: once a Matcher has
// matched a graph, matching it again allocates nothing, on the exact path
// and on the greedy-plus-2-exchange path.
func TestMatchingAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, g := range []*Graph{randomGraph(r, ExactLimit, 60), randomGraph(r, 200, 1000)} {
		mt := new(Matcher)
		mt.MaxWeight(g)
		if allocs := testing.AllocsPerRun(20, func() { mt.MaxWeight(g) }); allocs != 0 {
			t.Errorf("n=%d: %.1f allocs per warmed matching, want 0", g.N, allocs)
		}
	}
}
