package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Micro-benchmarks for the partitioner's phases.

func BenchmarkPartitionMedium(b *testing.B) {
	r := rand.New(rand.NewSource(61))
	g := randomDAG(r, 40)
	m := machine.MustClustered(2, 32, 1, 1)
	ii := g.MII(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(g, m, nil).Partition(ii)
	}
}

func BenchmarkPartitionLarge4Cluster(b *testing.B) {
	r := rand.New(rand.NewSource(62))
	g := randomDAG(r, 100)
	m := machine.MustClustered(4, 64, 1, 2)
	ii := g.MII(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(g, m, nil).Partition(ii)
	}
}

// BenchmarkPartitionCoarsen measures the coarsening phase alone on the
// paper machine's costliest coarsening: fpppp/loop0 at its MII, from its
// edge weights to the coarsest level, on a warmed arena.
func BenchmarkPartitionCoarsen(b *testing.B) {
	var g *ddg.Graph
	for _, bm := range workload.SPECfp95() {
		if bm.Name == "fpppp" {
			g = bm.Loops[0].G
		}
	}
	m := machine.MustClustered(4, 64, 1, 1)
	ii := g.MII(m)
	p := New(g, m, nil)
	p.computeWeights(ii)
	p.coarsen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.coarsen()
	}
}

func BenchmarkEdgeWeights(b *testing.B) {
	r := rand.New(rand.NewSource(63))
	g := randomDAG(r, 80)
	m := machine.MustClustered(2, 32, 1, 2)
	ii := g.MII(m)
	p := New(g, m, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.computeWeights(ii)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	r := rand.New(rand.NewSource(64))
	g := randomDAG(r, 60)
	m := machine.MustClustered(4, 64, 1, 1)
	ii := g.MII(m)
	p := New(g, m, nil)
	p.computeWeights(ii)
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v % 4
	}
	p.evaluate(assign, ii) // warm the scratch arena: steady state is 0 allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.evaluate(assign, ii)
	}
}

// BenchmarkEngineEvaluate measures the incremental path the refinement
// inner loop takes for a candidate the screen cannot reject: one group
// move, the full estimate, and the undo move. Steady state must be
// allocation-free.
func BenchmarkEngineEvaluate(b *testing.B) {
	en, lv, ii := benchEngine(65)
	p := en.p
	// One full warm-up round: steady state is 0 allocs/op.
	en.move(lv.groups[0], p.boundary(0), 1)
	en.estimate(ii)
	en.move(lv.groups[0], p.boundary(0), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.move(lv.groups[0], p.boundary(0), 1)
		en.estimate(ii)
		en.move(lv.groups[0], p.boundary(0), 0)
	}
}

// BenchmarkEngineScreen measures the read-only screening probe that
// rejects most refinement candidates without applying them, in full (no
// floor, so the interconnect II is always derived).
func BenchmarkEngineScreen(b *testing.B) {
	en, lv, ii := benchEngine(66)
	en.estimate(ii)
	en.setPath()
	en.pathBound(lv, ii, 0, 1, -1, math.MaxInt64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.pathBound(lv, ii, 0, 1, -1, math.MaxInt64)
	}
}

// benchEngine returns an engine over a random 60-node loop on four
// clusters, assigned round-robin, and the finest level (one node per
// group) indexed for refinement.
func benchEngine(seed int64) (*engine, *level, int) {
	r := rand.New(rand.NewSource(seed))
	g := randomDAG(r, 60)
	m := machine.MustClustered(4, 64, 1, 1)
	ii := g.MII(m)
	p := New(g, m, nil)
	p.computeWeights(ii)
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v % 4
	}
	en := newEngine(p, assign)
	lv := &level{groups: make([][]int, g.N())}
	for v := range lv.groups {
		lv.groups[v] = []int{v}
	}
	p.indexLevel(lv)
	return en, lv, ii
}
