package partition

import (
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/workload"
)

// generatedLoop is a generated loop of about 100 operations (seed 7),
// larger than any SPECfp95 loop, so partitioning it coarsens through
// several levels.
func generatedLoop() *ddg.Graph {
	return workload.Generate(workload.Profile{
		Name: "generated-100", Seed: 7, NumLoops: 1,
		MinOps: 96, MaxOps: 104, MemFrac: 0.30, FPFrac: 0.40,
		RecDensity: 0.25, TripMin: 100, TripMax: 120,
	}).Loops[0].G
}

// TestPartitionWarmArenaAllocs pins the arena contract: once an arena is
// warm, a Partition run allocates only the Partitioner, the Result and its
// Assign slice. On the paper's machine the count is averaged over the
// SPECfp95 corpus; a medium loop on two clusters and the generated loop on
// four clusters with a 2-cycle bus are each pinned exactly.
func TestPartitionWarmArenaAllocs(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	ar := NewArena()
	var total float64
	loops := 0
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			ii := l.G.MII(m)
			total += testing.AllocsPerRun(2, func() { NewWithArena(l.G, m, nil, ar).Partition(ii) })
			loops++
		}
	}
	if avg := total / float64(loops); avg > 4 {
		t.Errorf("%.1f allocs per warmed-arena Partition over %d loops, want at most 4", avg, loops)
	}

	for _, tc := range []struct {
		g *ddg.Graph
		m *machine.Config
	}{
		{workload.SPECfp95()[0].Loops[0].G, machine.MustClustered(2, 32, 1, 1)},
		{generatedLoop(), machine.MustClustered(4, 64, 1, 2)},
	} {
		ar := NewArena()
		ii := tc.g.MII(tc.m)
		if got := testing.AllocsPerRun(5, func() { NewWithArena(tc.g, tc.m, nil, ar).Partition(ii) }); got != 3 {
			t.Errorf("%s on %s: %v allocs per warmed-arena Partition, want 3", tc.g.Name, tc.m.Name, got)
		}
	}
}

// TestEvaluateAllocFree pins the steady-state estimators on the generated
// loop: once their scratch is warm, a full evaluate, the refinement's
// move → estimate → undo step, its critical-path walk and its read-only
// screening probe, for a single move and for an interchange, allocate
// nothing.
func TestEvaluateAllocFree(t *testing.T) {
	g := generatedLoop()
	m := machine.MustClustered(4, 64, 1, 2)
	ii := g.MII(m)
	p := New(g, m, nil)
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v % m.Clusters
	}
	if got := testing.AllocsPerRun(10, func() { p.evaluate(assign, ii) }); got != 0 {
		t.Errorf("evaluate: %v allocs, want 0", got)
	}

	p.computeWeights(ii)
	assign = slices.Clone(assign)
	en := newEngine(p, assign)
	lv := &level{groups: make([][]int, g.N())}
	for v := range lv.groups {
		lv.groups[v] = []int{v}
	}
	p.indexLevel(lv)
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"move → estimate → undo", func() {
			en.move(lv.groups[0], p.boundary(0), 1)
			en.estimate(ii)
			en.move(lv.groups[0], p.boundary(0), 0)
		}},
		{"estimate → critical path", func() {
			en.estimate(ii)
			en.setPath()
		}},
		{"single-move probe", func() { en.pathBound(lv, ii, 0, 1, -1, math.MaxInt64) }},
		{"interchange probe", func() { en.pathBound(lv, ii, 0, 1, 1, math.MaxInt64) }},
	} {
		if got := testing.AllocsPerRun(10, step.run); got != 0 {
			t.Errorf("%s: %v allocs, want 0", step.name, got)
		}
	}
}

// TestReusedArenaMatchesFresh pins "retain capacity, never content": one
// arena partitions every SPECfp95 loop in turn, each run inheriting the
// previous loop's levels, engine state and matching tables, and every
// result equals the one a fresh arena computes.
func TestReusedArenaMatchesFresh(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	ar := NewArena()
	for _, b := range workload.SPECfp95() {
		for _, l := range b.Loops {
			ii := l.G.MII(m)
			got := NewWithArena(l.G, m, nil, ar).Partition(ii)
			want := New(l.G, m, nil).Partition(ii)
			if !slices.Equal(got.Assign, want.Assign) || got.EstTime != want.EstTime ||
				got.IIBus != want.IIBus || got.Levels != want.Levels || got.Moves != want.Moves {
				t.Fatalf("%s: reused arena %+v, fresh arena %+v", l.G.Name, *got, *want)
			}
		}
	}
}

// collapseEdgesRef is the map-based collapse collapseEdgesInto replaced,
// kept as its reference: the inter-group data edges of lv with summed
// weights, sorted by (U, V).
func collapseEdgesRef(p *Partitioner, lv *level) []graph.Edge {
	owner := make([]int, p.g.N())
	for gi, members := range lv.groups {
		for _, v := range members {
			owner[v] = gi
		}
	}
	sum := map[[2]int]int64{}
	for i, e := range p.g.Edges {
		a, b := owner[e.From], owner[e.To]
		if e.Kind != ddg.Data || a == b {
			continue
		}
		sum[[2]int{min(a, b), max(a, b)}] += p.weights[i]
	}
	keys := slices.Collect(maps.Keys(sum))
	slices.SortFunc(keys, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	var edges []graph.Edge
	for _, k := range keys {
		edges = append(edges, graph.Edge{U: k[0], V: k[1], W: sum[k]})
	}
	return edges
}

// TestCollapseEdgesMatchesReference pins the CSR collapse against the map
// reference on random groupings of random loops, under paper and uniform
// weights, with one arena reused throughout.
func TestCollapseEdgesMatchesReference(t *testing.T) {
	ar := NewArena()
	f := func(seed int64, uniform bool) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(60))
		m := machine.MustClustered(4, 64, 1, 2)
		opts := &Options{}
		if uniform {
			opts.Weights = UniformWeights
		}
		p := NewWithArena(g, m, opts, ar)
		p.computeWeights(g.MII(m))
		// Random groups of random sizes over a shuffled node order.
		order := r.Perm(g.N())
		lv := &level{}
		for len(order) > 0 {
			k := min(len(order), 1+r.Intn(6))
			lv.groups = append(lv.groups, order[:k])
			order = order[k:]
		}
		p.collapseEdgesInto(lv)
		if want := collapseEdgesRef(p, lv); !slices.Equal(lv.edges, want) {
			t.Logf("seed %d: collapse %v, reference %v", seed, lv.edges, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
