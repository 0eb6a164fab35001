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
//   - The Arena may retain buffer capacity between Partitioners, never
//     content: a Partition run fully reinitializes every buffer it reads,
//     so results are a pure function of (graph, machine, options, ii) no
//     matter what an earlier Partitioner left behind.
//     TestReusedArenaMatchesFresh pins this on the SPECfp95 corpus, and
//     TestScheduleDigests through core's pooled arenas.
//   - The one exception is the repartition memo (see Partition): the
//     levels and assignment of a Partitioner's last refinement, which its
//     own later runs may read. Their buffers live here, but their validity
//     lives in the Partitioner that wrote them, so a new Partitioner never
//     reads them and no memo crosses loops; the reuse is exact, so
//     results stay that pure function (TestRepartitionMatchesFresh).
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
	// until the next level's matching), the collapse's rows (per smaller
	// group: its start, partners, weights and fill count) and partner
	// slots, the remap table from a level's groups to the next level's,
	// and fuse's matched-edge order.
	match   graph.Matcher
	owner   []int // node → group of the level being built or refined
	colHead []int
	colPart []int
	colW    []int64
	colFill []int
	colSlot []int
	remap   []int
	idx     []int

	// The refinement tables of the level being refined (indexLevel): each
	// group's boundary data edges and its neighbor groups, as CSR pairs.
	// Per refinement iteration (clusterGroups): each cluster's groups.
	bndHead []int
	bndList []int
	nbrHead []int
	nbrList []int
	nbrFill []int
	clHead  []int
	clList  []int

	// The repartition memo's content (see Partition): the member lists of
	// the levels it refined, concatenated, with each group's end offset
	// and each level's group count, and the refined assignment. Only the
	// Partitioner that wrote them reads them.
	memoSlab   []int
	memoEnd    []int
	memoGroups []int
	memoAssign []int
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

// collapseEdgesInto rebuilds lv.edges from the original graph as the
// inter-group data edges with summed weights (parallel edges combine,
// intra-group edges disappear — §2.1.2), sorted by (U, V), using only arena
// storage. Coarsening builds level 0 with it; coarser levels collapse the
// level below (collapseLevel).
func (p *Partitioner) collapseEdgesInto(lv *level) {
	ar, g := p.ar, p.g
	nG := len(lv.groups)
	owner := resizeInts(ar.owner, g.N())
	ar.owner = owner
	for gi, members := range lv.groups {
		for _, v := range members {
			owner[v] = gi
		}
	}
	head := zeroInts(ar.colHead, nG+1)
	ar.colHead = head
	for _, e := range g.Edges {
		if a, b := owner[e.From], owner[e.To]; e.Kind == ddg.Data && a != b {
			head[min(a, b)+1]++
		}
	}
	part, weight, fill := p.collapseRows(nG)
	for ei, e := range g.Edges {
		if a, b := owner[e.From], owner[e.To]; e.Kind == ddg.Data && a != b {
			a, b = min(a, b), max(a, b)
			part[head[a]+fill[a]], weight[head[a]+fill[a]] = b, p.weights[ei]
			fill[a]++
		}
	}
	p.mergeRows(lv)
}

// collapseLevel builds next.edges from cur.edges, where remap maps each
// group of cur to the group of next that contains it: an edge inside one
// next group disappears and parallel edges combine. Every edge of cur is
// a sum of original data edges between its two groups, so the sums, and
// the (U, V) order, are exactly what collapsing the original graph gives.
func (p *Partitioner) collapseLevel(cur, next *level, remap []int) {
	if h := reference; h != nil && h.collapse != nil {
		h.collapse(p, next)
		return
	}
	ar := p.ar
	nG := len(next.groups)
	head := zeroInts(ar.colHead, nG+1)
	ar.colHead = head
	for _, e := range cur.edges {
		if a, b := remap[e.U], remap[e.V]; a != b {
			head[min(a, b)+1]++
		}
	}
	part, weight, fill := p.collapseRows(nG)
	for _, e := range cur.edges {
		if a, b := remap[e.U], remap[e.V]; a != b {
			a, b = min(a, b), max(a, b)
			part[head[a]+fill[a]], weight[head[a]+fill[a]] = b, e.W
			fill[a]++
		}
	}
	p.mergeRows(next)
}

// collapseRows turns the per-row edge counts in colHead[1:] into row
// starts and returns the arena's partner, weight and zeroed fill buffers
// for filling the nG rows.
func (p *Partitioner) collapseRows(nG int) (part []int, weight []int64, fill []int) {
	ar := p.ar
	head := ar.colHead
	for i := 0; i < nG; i++ {
		head[i+1] += head[i]
	}
	ar.colPart = resizeInts(ar.colPart, head[nG])
	ar.colW = resizeInt64s(ar.colW, head[nG])
	ar.colFill = zeroInts(ar.colFill, nG)
	return ar.colPart, ar.colW, ar.colFill
}

// mergeRows writes the filled collapse rows into lv.edges: each row's
// duplicates merge into one entry per partner (slot marks where partner
// b's entry sits in lv.edges; an entry from an earlier row lies before the
// row's start), and the merged row is then sorted by partner.
func (p *Partitioner) mergeRows(lv *level) {
	ar := p.ar
	nG := len(lv.groups)
	head, part, weight := ar.colHead, ar.colPart, ar.colW
	slot := resizeInts(ar.colSlot, nG)
	ar.colSlot = slot
	for i := range slot {
		slot[i] = -1
	}
	edges := lv.edges[:0]
	for a := 0; a < nG; a++ {
		start := len(edges)
		for i := head[a]; i < head[a+1]; i++ {
			if b := part[i]; slot[b] >= start {
				edges[slot[b]].W += weight[i]
			} else {
				slot[b] = len(edges)
				edges = append(edges, graph.Edge{U: a, V: b, W: weight[i]})
			}
		}
		row := edges[start:]
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j].V < row[j-1].V; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
	}
	lv.edges = edges
}
