package graph

import (
	"math/rand"
	"testing"
)

func BenchmarkExactMatching14(b *testing.B) {
	r := rand.New(rand.NewSource(71))
	benchmarkExact(b, randomGraph(r, 14, 60))
}

// BenchmarkExactMatchingK14 is the DP's worst case: on the complete graph
// every partner of every lowest vertex is a transition.
func BenchmarkExactMatchingK14(b *testing.B) {
	benchmarkExact(b, completeGraph(ExactLimit, func(u, v int) int64 { return int64(1 + (u*5+v*11)%9) }))
}

func benchmarkExact(b *testing.B, g *Graph) {
	mt := new(Matcher)
	mt.exact(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.exact(g)
	}
}

func BenchmarkGreedyMatching200(b *testing.B) {
	r := rand.New(rand.NewSource(72))
	g := randomGraph(r, 200, 1500)
	mt := new(Matcher)
	mt.Greedy(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Greedy(g)
	}
}

func BenchmarkMaxWeightMatching200(b *testing.B) {
	r := rand.New(rand.NewSource(73))
	g := randomGraph(r, 200, 1500)
	mt := new(Matcher)
	mt.MaxWeight(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.MaxWeight(g)
	}
}
