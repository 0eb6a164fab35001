package ddg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
)

// The relaxation plans must reproduce the round-robin Bellman-Ford
// relaxation they replaced, which the functions below keep as the test
// reference: every verdict, every start time, every RecMII.

// refLongestPaths is the round-robin forward relaxation: earliest starts
// clamped at ≥ 0, ok = false on a positive cycle.
func refLongestPaths(g *Graph, ii int, extra []int) ([]int, bool) {
	n := len(g.Nodes)
	est := make([]int, n)
	if n == 0 {
		return est, true
	}
	for round := 0; ; round++ {
		changed := false
		for i, e := range g.Edges {
			if t := est[e.From] + e.Lat + extraAt(extra, i) - ii*e.Dist; t > est[e.To] {
				est[e.To] = t
				changed = true
			}
		}
		if !changed {
			return est, true
		}
		if round >= n {
			return est, false
		}
	}
}

// refLatest is the round-robin backward relaxation from the deadline sl.
func refLatest(g *Graph, m *machine.Config, ii, sl int, extra []int) ([]int, bool) {
	n := len(g.Nodes)
	lst := make([]int, n)
	for v := range lst {
		lst[v] = sl - m.OpLatency(g.Nodes[v].Op)
	}
	for round := 0; ; round++ {
		changed := false
		for i, e := range g.Edges {
			if t := lst[e.To] - e.Lat - extraAt(extra, i) + ii*e.Dist; t < lst[e.From] {
				lst[e.From] = t
				changed = true
			}
		}
		if !changed {
			return lst, true
		}
		if round >= n {
			return lst, false
		}
	}
}

// refRecMII is the binary search over the reference feasibility test.
func refRecMII(g *Graph, extra []int) int {
	hi := 1
	for i, e := range g.Edges {
		if lat := e.Lat + extraAt(extra, i); lat > 0 {
			hi += lat
		}
	}
	return minFeasibleII(hi, func(ii int) bool {
		_, ok := refLongestPaths(g, ii, extra)
		return ok
	})
}

// refRecurrences builds each recurrence's induced subgraph explicitly and
// takes its reference RecMII.
func refRecurrences(g *Graph) []Recurrence {
	var recs []Recurrence
	for _, comp := range g.SCCs() {
		in := make(map[int]int, len(comp))
		sub := New("sub", g.Niter)
		for _, v := range comp {
			in[v] = sub.AddNode(g.Nodes[v].Op, "")
		}
		for _, e := range g.Edges {
			f, okF := in[e.From]
			t, okT := in[e.To]
			if okF && okT {
				sub.AddEdge(Edge{From: f, To: t, Lat: e.Lat, Dist: e.Dist, Kind: e.Kind})
			}
		}
		if len(sub.Edges) > 0 {
			recs = append(recs, Recurrence{Nodes: comp, RecMII: refRecMII(sub, nil)})
		}
	}
	slices.SortStableFunc(recs, func(a, b Recurrence) int {
		switch {
		case less(a, b):
			return 1
		case less(b, a):
			return -1
		}
		return 0
	})
	return recs
}

// cyclicGraph builds a random loop body with forward dist-0 edges,
// loop-carried edges in either direction and loop-carried self-loops.
func cyclicGraph(r *rand.Rand) *Graph {
	n := 1 + r.Intn(14)
	g := New("plan", 1+r.Intn(100))
	ops := []isa.OpClass{isa.IntALU, isa.IntMul, isa.FPAdd, isa.FPMul, isa.FPDiv, isa.Load}
	for i := 0; i < n; i++ {
		g.AddNode(ops[r.Intn(len(ops))], "")
	}
	for k := r.Intn(2 * n); k > 0; k-- {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		g.AddEdge(Edge{From: u, To: v, Lat: r.Intn(7), Kind: Data})
	}
	for k := r.Intn(4); k > 0; k-- {
		g.AddEdge(Edge{From: r.Intn(n), To: r.Intn(n), Lat: r.Intn(7), Dist: 1 + r.Intn(3), Kind: Mem})
	}
	for k := r.Intn(2); k > 0; k-- {
		v := r.Intn(n)
		g.AddEdge(Edge{From: v, To: v, Lat: r.Intn(7), Dist: 1 + r.Intn(2), Kind: Data})
	}
	return g
}

// TestPlanMatchesRoundRobin compares the plans with the reference on 12,000
// random graphs, each with no extra latencies, a short extra slice and a
// full one, at IIs below, at and above RecMII: the same verdict, and on
// success the same Earliest, SL and Latest; the same RecMII; and the same
// recurrences.
func TestPlanMatchesRoundRobin(t *testing.T) {
	m := machine.NewUnified(64)
	r := rand.New(rand.NewSource(1))
	var times Times
	for trial := 0; trial < 12000; trial++ {
		g := cyclicGraph(r)
		if got, want := g.Recurrences(), refRecurrences(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Recurrences %v, want %v", trial, got, want)
		}
		full := make([]int, len(g.Edges))
		for i := range full {
			full[i] = r.Intn(4)
		}
		for _, extra := range [][]int{nil, full[:len(full)/2], full} {
			rec := refRecMII(g, extra)
			if got := g.RecMII(extra); got != rec {
				t.Fatalf("trial %d: RecMII %d, want %d", trial, got, rec)
			}
			for _, ii := range []int{rec - 2, rec - 1, rec, rec + 1, rec + 5} {
				if ii < 1 {
					continue
				}
				est, ok := refLongestPaths(g, ii, extra)
				if got := g.earliestInto(m, ii, extra, &times); got != ok {
					t.Fatalf("trial %d ii %d (RecMII %d): forward ok %v, want %v", trial, ii, rec, got, ok)
				}
				// The backward pass must match at any II, even one where
				// the forward pass fails; there it needs its own deadline.
				sl := 0
				for v, s := range est {
					sl = max(sl, s+m.OpLatency(g.Nodes[v].Op))
				}
				if ok {
					if !slices.Equal(times.Earliest, est) || times.SL != sl {
						t.Fatalf("trial %d ii %d: Earliest %v SL %d, want %v SL %d", trial, ii, times.Earliest, times.SL, est, sl)
					}
				}
				times.II, times.SL = ii, sl
				lst, lok := refLatest(g, m, ii, sl, extra)
				if got := g.LatestInto(m, extra, &times); got != lok {
					t.Fatalf("trial %d ii %d (RecMII %d): backward ok %v, want %v", trial, ii, rec, got, lok)
				}
				if lok && !slices.Equal(times.Latest, lst) {
					t.Fatalf("trial %d ii %d: Latest %v, want %v", trial, ii, times.Latest, lst)
				}
			}
		}
	}
}

// TestAddEdgeAfterFreezeRebuilds pins the cache invalidation: an edge added
// after Freeze reaches the relaxation plans and the recurrences.
func TestAddEdgeAfterFreezeRebuilds(t *testing.T) {
	m := machine.NewUnified(64)
	g := New("rebuild", 10)
	a := g.AddNode(isa.IntALU, "")
	b := g.AddNode(isa.IntALU, "")
	c := g.AddNode(isa.IntALU, "")
	g.AddEdge(Edge{From: a, To: b, Lat: 2})
	g.AddEdge(Edge{From: b, To: c, Lat: 2})
	g.Freeze()
	if recs := g.Recurrences(); len(recs) != 0 || g.RecMII(nil) != 1 {
		t.Fatalf("chain: recurrences %v, RecMII %d; want none and 1", recs, g.RecMII(nil))
	}

	// Closing the chain into a 6-cycle of distance 1 makes RecMII 6.
	g.AddEdge(Edge{From: c, To: a, Lat: 2, Dist: 1})
	recs := g.Recurrences()
	if len(recs) != 1 || len(recs[0].Nodes) != 3 || recs[0].RecMII != 6 {
		t.Fatalf("after AddEdge: recurrences %v, want one of 3 nodes with RecMII 6", recs)
	}
	if g.RecMII(nil) != 6 || g.FeasibleII(5, nil) {
		t.Errorf("after AddEdge: RecMII %d, feasible at 5 %v; want 6, false", g.RecMII(nil), g.FeasibleII(5, nil))
	}

	// A new node and a self-loop on it add a second recurrence.
	g.Freeze()
	d := g.AddNode(isa.IntALU, "")
	g.AddEdge(Edge{From: c, To: d, Lat: 2})
	g.AddEdge(Edge{From: d, To: d, Lat: 9, Dist: 1})
	if recs := g.Recurrences(); len(recs) != 2 || recs[0].RecMII != 9 || recs[0].Nodes[0] != d {
		t.Fatalf("after AddNode: recurrences %v, want the self-loop on %d (RecMII 9) first", recs, d)
	}
	times, ok := g.StartTimes(m, 9, nil)
	if !ok || times.Earliest[d] != 6 {
		t.Errorf("after AddNode: Earliest %v ok %v, want node %d at 6", times, ok, d)
	}
}

// BenchmarkEstimateTime times the forward pass the refinement estimate
// runs, on a generated 100-operation loop with recurrences.
func BenchmarkEstimateTime(b *testing.B) {
	g, m := benchLoop()
	var times Times
	ii := g.RecMII(nil)
	g.EstimateTimeInto(m, ii, nil, &times) // warm the buffers: 0 allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.EstimateTimeInto(m, ii, nil, &times)
	}
}

// BenchmarkLatest times the backward pass on the same loop.
func BenchmarkLatest(b *testing.B) {
	g, m := benchLoop()
	var times Times
	g.EstimateTimeInto(m, g.RecMII(nil), nil, &times)
	g.LatestInto(m, nil, &times) // warm the buffers: 0 allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LatestInto(m, nil, &times)
	}
}

// benchLoop is a frozen random loop of 100 operations: a dist-0 DAG with
// loop-carried back edges closing recurrences.
func benchLoop() (*Graph, *machine.Config) {
	r := rand.New(rand.NewSource(100))
	g := New("bench-100", 100)
	ops := []isa.OpClass{isa.IntALU, isa.FPAdd, isa.FPMul, isa.Load}
	const n = 100
	for i := 0; i < n; i++ {
		g.AddNode(ops[r.Intn(len(ops))], "")
	}
	for i := 1; i < n; i++ {
		for k := 1 + r.Intn(2); k > 0; k-- {
			from := max(0, i-1-r.Intn(8))
			g.AddDep(from, i, 0)
		}
	}
	for k := 0; k < 10; k++ {
		to := r.Intn(n - 10)
		g.AddDep(to+1+r.Intn(9), to, 1)
	}
	g.Freeze()
	return g, machine.NewUnified(64)
}
