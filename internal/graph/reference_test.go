package graph

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// refGreedyOrder is the greedy scan order greedyOrder replaced, as it was:
// the edge indices sorted by a closure that loads both edges per
// comparison (decreasing weight, ties by lower index).
func refGreedyOrder(order []int, edges []Edge) []int {
	for i := range edges {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(edges[b].W, edges[a].W); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// refImprove is the 2-exchange improve replaced, visiting every pair of
// matched edges. As it was:
//
// improve applies 2-exchange local search to the matching in mt.m: for
// every pair of matched edges (a,b),(c,d) it considers rematching as
// (a,c),(b,d) or (a,d),(b,c) when those edges exist and are heavier; and
// for every matched edge it considers replacing it with a heavier incident
// edge whose other endpoint is free. It repeats until a pass makes no
// improvement, for at most maxImprovePasses passes, then rebuilds EdgeIdx
// and Weight from Mate.
func refImprove(mt *Matcher, g *Graph) {
	mt.indexEdges(g)
	m := &mt.m
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
			for _, ej := range m.EdgeIdx[i+1:] {
				e1, e2 := g.Edges[ei], g.Edges[ej]
				a, b, c, d := e1.U, e1.V, e2.U, e2.V
				if m.Mate[a] != b || m.Mate[c] != d {
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
						continue
					}
				}
				if w1, ok1 := weightOf(a, d); ok1 {
					if w2, ok2 := weightOf(b, c); ok2 && w1+w2 > base {
						unmatchPair(m, a, b)
						unmatchPair(m, c, d)
						matchPair(m, a, d)
						matchPair(m, b, c)
						improved = true
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

// TestImproveMatchesReference requires the 2-exchange over adjacent matched
// edges to leave the matching the all-pairs reference leaves, from the
// greedy matching of random graphs, sparse and dense, with parallel edges
// and ties.
func TestImproveMatchesReference(t *testing.T) {
	mt, ref := new(Matcher), new(Matcher)
	rewired := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		g := &Graph{N: n}
		for range r.Intn(n * (1 + r.Intn(8))) {
			g.Edges = append(g.Edges, Edge{r.Intn(n), r.Intn(n), int64(r.Intn(12))})
		}
		greedy := cloneMatching(mt.Greedy(g))
		mt.improve(g)
		ref.Greedy(g)
		refImprove(ref, g)
		if got, want := cloneMatching(&mt.m), cloneMatching(&ref.m); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: improve %+v, reference %+v", seed, got, want)
			return false
		}
		if !reflect.DeepEqual(greedy.Mate, mt.m.Mate) {
			rewired++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if rewired == 0 {
		t.Fatal("no graph's matching improved: the local search was not exercised")
	}
}

// TestGreedyOrderMatchesSort requires greedyOrder to return the reference
// order, and Greedy and MaxWeight the same matchings with the reference
// installed, on random graphs whose weights have ties and zeros and, in
// some graphs, negative weights or weights of 2^39 and above, so that both
// the packed keys and the fallback sort run.
func TestGreedyOrderMatchesSort(t *testing.T) {
	packed, fallback := 0, 0
	mt := new(Matcher)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &Graph{N: 1 + r.Intn(40)}
		kind := r.Intn(4) // 0, 1: in the packed range; 2: negatives; 3: ≥ 2^39
		for range r.Intn(200) {
			w := int64(r.Intn(6)) // ties and zeros
			switch {
			case r.Intn(3) == 0:
				w = r.Int63n(1 << keyWBits)
			case kind == 2 && r.Intn(4) == 0:
				w = -1 - r.Int63n(1<<40)
			case kind == 3 && r.Intn(4) == 0:
				w = 1<<keyWBits + r.Int63n(1<<40)
			}
			g.Edges = append(g.Edges, Edge{r.Intn(g.N), r.Intn(g.N), w})
		}
		if slices.ContainsFunc(g.Edges, func(e Edge) bool { return e.W < 0 || e.W >= 1<<keyWBits }) {
			fallback++
		} else {
			packed++
		}
		got := slices.Clone(mt.greedyOrder(g.Edges))
		if want := refGreedyOrder(nil, g.Edges); !slices.Equal(got, want) {
			t.Logf("seed %d: order %v, reference %v", seed, got, want)
			return false
		}
		greedy, best := cloneMatching(mt.Greedy(g)), cloneMatching(mt.MaxWeight(g))
		greedyOrderReference = refGreedyOrder
		defer func() { greedyOrderReference = nil }()
		if !reflect.DeepEqual(greedy, cloneMatching(mt.Greedy(g))) || !reflect.DeepEqual(best, cloneMatching(mt.MaxWeight(g))) {
			t.Logf("seed %d: matchings differ from the reference order's", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if packed == 0 || fallback == 0 {
		t.Fatalf("%d graphs on packed keys, %d on the fallback sort: both must run", packed, fallback)
	}
}

func cloneMatching(m *Matching) Matching {
	return Matching{EdgeIdx: slices.Clone(m.EdgeIdx), Weight: m.Weight, Mate: slices.Clone(m.Mate)}
}
