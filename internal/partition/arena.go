// Request-scoped scratch arena for the partitioner.
//
// PR 3 made the refinement inner loop allocation-free by giving the
// Partitioner a persistent evaluation scratch, but every Partition call
// still paid the cold-path allocations: the coarsening levels (group
// membership lists, collapsed edge sets), the engine's delta-maintained
// state, the edge weights and the CSR group adjacency were rebuilt with
// fresh heap memory per request. The Arena extends the scratch discipline
// to all of it: one Arena owns every buffer a full Partition run needs, and
// reusing the Arena across runs (core.ScheduleLoopContext acquires one per
// loop from a sync.Pool) turns the cold path into a handful of unavoidable
// allocations (the Partitioner, the Result and its Assign slice).
//
// Ownership contract (docs/ARCHITECTURE.md "Request arenas"):
//
//   - An Arena serves at most one Partitioner at a time. Two live
//     Partitioners sharing an Arena corrupt each other's state, so each
//     concurrent schedule acquires its own.
//   - The Arena may retain buffer capacity between runs, never content: a
//     Partition run fully reinitializes every buffer it reads, so results
//     are a pure function of (graph, machine, options) no matter what the
//     previous run left behind. TestReusedArenaMatchesFresh pins this on
//     the SPECfp95 corpus, and TestScheduleDigests through core's pooled
//     arenas.
//   - Release returns the Arena to the package pool. The caller must not
//     touch the Arena, or any Partitioner bound to it, afterwards. Results
//     (Result, Assign) are independently allocated and stay valid.
package partition

import (
	"sync"

	"repro/internal/ddg"
	"repro/internal/graph"
)

// Arena holds every reusable buffer of one partitioning run: the evaluation
// scratch, the incremental engine, the coarsening level hierarchy and the
// coarsening/refinement work lists. The zero value is ready to use.
type Arena struct {
	sc      scratch
	en      engine
	extra   []int   // per-edge latency additions (cut edges get LatBus)
	weights []int64 // per-edge coarsening weights

	levels []*level // level hierarchy, reused finest-first per run

	// Coarsening scratch: the matching at every level (its result lives
	// until the next level's matching), collapseEdges accumulator and key
	// order, fuse's remap table and matched-edge order.
	match graph.Matcher
	owner []int // node → group of the level being built or refined
	sum   map[[2]int]int64
	keys  [][2]int
	remap []int
	idx   []int

	// The refinement tables of the level being refined (indexLevel): each
	// group's boundary data edges and its neighbor groups, as CSR pairs.
	bndHead []int
	bndList []int
	nbrHead []int
	nbrList []int
	nbrFill []int
}

// NewArena returns an empty arena. Most callers should prefer
// AcquireArena/Release, which reuse arenas through a package pool.
func NewArena() *Arena { return &Arena{} }

var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// AcquireArena returns an arena from the package pool, ready for
// NewWithArena. Pair with Release.
func AcquireArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns the arena to the package pool. The caller must not use
// the arena, or any Partitioner bound to it, after Release.
func (a *Arena) Release() { arenaPool.Put(a) }

// freshLevel returns the arena-owned level object for hierarchy index i,
// reset for reuse (groups emptied, slab rewound, cached group counts
// invalidated). Buffer capacity is retained.
func (p *Partitioner) freshLevel(i int) *level {
	ar := p.ar
	for len(ar.levels) <= i {
		ar.levels = append(ar.levels, &level{})
	}
	lv := ar.levels[i]
	lv.groups = lv.groups[:0]
	lv.used = 0
	lv.gcsOK = false
	lv.slab = resizeInts(lv.slab, p.g.N())
	return lv
}

// addGroup appends one macro-node holding the concatenation of the given
// member lists, copied into the level's slab (every level's groups
// partition the original node set, so the slab never exceeds g.N()).
func (lv *level) addGroup(parts ...[]int) {
	start := lv.used
	for _, part := range parts {
		lv.used += copy(lv.slab[lv.used:], part)
	}
	lv.groups = append(lv.groups, lv.slab[start:lv.used:lv.used])
}

// collapseEdgesInto rebuilds lv.edges as the inter-group data edges with
// summed weights (parallel edges combine, intra-group edges disappear —
// §2.1.2), using only arena storage.
func (p *Partitioner) collapseEdgesInto(lv *level) {
	ar := p.ar
	owner := resizeInts(ar.owner, p.g.N())
	ar.owner = owner
	for gi, members := range lv.groups {
		for _, v := range members {
			owner[v] = gi
		}
	}
	if ar.sum == nil {
		ar.sum = make(map[[2]int]int64, len(p.g.Edges))
	} else {
		clear(ar.sum)
	}
	sum := ar.sum
	for i, e := range p.g.Edges {
		if e.Kind != ddg.Data {
			continue
		}
		a, b := owner[e.From], owner[e.To]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		sum[[2]int{a, b}] += p.weights[i]
	}
	// Deterministic order: scan pairs in sorted order.
	keys := ar.keys[:0]
	for k := range sum {
		keys = append(keys, k)
	}
	ar.keys = keys
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && lessPair(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	lv.edges = lv.edges[:0]
	for _, k := range keys {
		lv.edges = append(lv.edges, graph.Edge{U: k[0], V: k[1], W: sum[k]})
	}
}
