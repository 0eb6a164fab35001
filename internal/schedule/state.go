// Package schedule implements the paper's single-phase modulo scheduler:
// instruction scheduling, register allocation and on-the-fly spill code in
// one pass, following the URACAM framework (§3.3) that the GP scheme builds
// on.
//
// Nodes are visited in a Swing-Modulo-Scheduling order (§3.3.3). Each node
// is placed into a (cluster, cycle) slot; inter-cluster register
// dependences are routed over the shared bus (one broadcast transfer per
// value) or — via the §3.3.2 transformations — through memory as a
// store/load pair. Placements are compared with the multi-dimensional
// figure of merit of §3.3.1: the fraction of the *remaining* bus, memory
// and register-lifetime capacity a placement consumes, so that scarce
// resources weigh more than abundant ones.
package schedule

import (
	"sync"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/regpress"
)

// noUse marks a cluster with no scheduled consumer of a value. It must be
// far below any legitimate use cycle: start cycles may be negative
// (bottom-up SMS placement), so -1 would collide.
const noUse = -1 << 40

// absent marks a cluster without a point-to-point transfer (comm.dests)
// or a load (memRoute.loads); like noUse it lies below any real cycle.
const absent = noUse

// comm is the interconnect routing of one value. On a shared bus a single
// broadcast transfer departs the home cluster at start and arrives in every
// other cluster at start+LatBus; dests is nil. On point-to-point links each
// destination cluster has its own transfer on the home→dest link: dests[c]
// is its departure cycle, or absent; start is unused.
type comm struct {
	start int
	dests []int
}

// startFor returns the departure cycle of the transfer serving cluster c,
// or ok=false when no transfer reaches c.
func (cm *comm) startFor(c int, p2p bool) (int, bool) {
	if !p2p {
		return cm.start, true
	}
	s := cm.dests[c]
	return s, s != absent
}

// memRoute is a value routed through memory: one store in the home cluster
// and one load per destination cluster (loads[c], or absent).
type memRoute struct {
	store int
	loads []int
}

// spill is spill code for a register-pressure-bound value in its home
// cluster: the value is stored right after definition and reloaded before
// its first use, freeing the register in between (§3.3.2).
type spill struct {
	store, load int
}

// value tracks the register residency of one produced value.
//
// A value owns the storage its routing points into (commBuf, memBuf,
// spillBuf and the per-cluster slices), so rerouting it allocates nothing;
// a value is bus-routed or memory-routed, never both.
type value struct {
	home int // producing cluster
	def  int // cycle the value is written (producer start + latency)

	// minUse/maxUse record, per cluster, the earliest and latest cycles at
	// which a scheduled consumer reads the value there (consumer start +
	// II·dist); noUse marks a cluster with no consumers. Indexed by cluster.
	minUse, maxUse []int

	comm  *comm     // bus transfer, if the value crosses clusters by bus
	mem   *memRoute // memory route, if transformed
	spill *spill    // spill code in the home cluster, if transformed

	commBuf  comm
	memBuf   memRoute
	spillBuf spill
	routes   []int // per-cluster backing of commBuf.dests, then memBuf.loads
}

// valueInts is the backing length value.reset needs per cluster: minUse,
// maxUse, transfer destinations and loads.
const valueInts = 4

// reset makes v a fresh value written in cluster home at cycle def, with
// no uses and no routing, backed by buf (valueInts ints per cluster).
func (v *value) reset(home, def, clusters int, buf []int) {
	*v = value{
		home:   home,
		def:    def,
		minUse: buf[:clusters:clusters],
		maxUse: buf[clusters : 2*clusters : 2*clusters],
		routes: buf[2*clusters : 4*clusters : 4*clusters],
	}
	for c := 0; c < clusters; c++ {
		v.minUse[c], v.maxUse[c] = noUse, noUse
	}
}

// newComm routes v over the interconnect in its own storage: a shared-bus
// broadcast departing at start, or (p2p) a point-to-point routing with no
// transfer yet. The caller installs the result as v.comm.
func (v *value) newComm(p2p bool, start int) *comm {
	v.commBuf = comm{start: start}
	if p2p {
		v.commBuf.dests = fillAbsent(v.routes[:len(v.minUse)])
	}
	return &v.commBuf
}

// newMem is newComm for a memory route storing at store, with no load yet.
func (v *value) newMem(store int) *memRoute {
	v.memBuf = memRoute{store: store, loads: fillAbsent(v.routes[len(v.minUse):])}
	return &v.memBuf
}

// newSpill records spill code in v's own storage.
func (v *value) newSpill(store, load int) *spill {
	v.spillBuf = spill{store: store, load: load}
	return &v.spillBuf
}

// fillAbsent marks every entry of a per-cluster routing slice absent.
func fillAbsent(s []int) []int {
	for i := range s {
		s[i] = absent
	}
	return s
}

// present counts the routed (non-absent) entries of a per-cluster slice.
func present(s []int) int {
	n := 0
	for _, x := range s {
		if x != absent {
			n++
		}
	}
	return n
}

// arrival returns the cycle the value becomes readable in cluster c, or
// (0, false) when it is not routed there. A spilled value's home figure is
// its definition; callers needing the dead window use appendSpans.
func (v *value) arrival(c int, m *machine.Config) (int, bool) {
	if c == v.home {
		return v.def, true
	}
	if v.mem != nil {
		if l := v.mem.loads[c]; l != absent {
			return l + m.OpLatency(isa.Load), true
		}
		return 0, false
	}
	if v.comm != nil {
		if s, ok := v.comm.startFor(c, m.Topology == machine.PointToPoint); ok {
			return s + m.LatBus, true
		}
	}
	return 0, false
}

// appendSpans appends to dst the register intervals the value occupies in
// cluster c under its current routing and uses.
func (v *value) appendSpans(dst []regpress.Span, c int, m *machine.Config) []regpress.Span {
	if c == v.home {
		end := v.def + 1 // the write itself occupies the register
		if u := v.maxUse[c]; u != noUse && u+1 > end {
			end = u + 1
		}
		// The register must survive until an outgoing transfer or store.
		if v.comm != nil {
			if v.comm.dests == nil {
				if v.comm.start+1 > end {
					end = v.comm.start + 1
				}
			} else {
				for _, s := range v.comm.dests {
					if s != absent && s+1 > end {
						end = s + 1
					}
				}
			}
		}
		if v.mem != nil && v.mem.store+1 > end {
			end = v.mem.store + 1
		}
		return appendHomeSpans(dst, v.def, end, v.spill, m)
	}
	// Remote cluster: live from arrival to last use there.
	arr, ok := v.arrival(c, m)
	if !ok {
		return dst
	}
	end := v.maxUse[c]
	if end == noUse {
		return dst
	}
	return append(dst, regpress.Span{Start: arr, End: end + 1})
}

// appendHomeSpans appends to dst the home-cluster spans of a value written
// at def whose register must hold it until end: [def, end), or, when the
// value is spilled, [def, store+1) and [load+lat, end).
func appendHomeSpans(dst []regpress.Span, def, end int, sp *spill, m *machine.Config) []regpress.Span {
	if sp == nil {
		return append(dst, regpress.Span{Start: def, End: end})
	}
	s1 := regpress.Span{Start: def, End: sp.store + 1}
	s2 := regpress.Span{Start: sp.load + m.OpLatency(isa.Load), End: end}
	if s2.End <= s2.Start {
		return append(dst, s1)
	}
	return append(dst, s1, s2)
}

// state is the mutable scheduling state for one II attempt.
//
// Ownership: a state and every buffer it holds come from statePool and go
// back to it when the attempt ends (release). reset re-arms all of them for
// the next attempt, keeping their capacity but never their content, so an
// II escalation reuses one buffer set and a placement probe allocates
// nothing. Nothing an attempt returns aliases these buffers.
type state struct {
	g  *ddg.Graph
	m  *machine.Config
	ii int

	time    []int  // node → start cycle (may be negative; see sched)
	cluster []int  // node → cluster
	sched   []bool // node → placed?
	rt      mrt.Table
	press   []regpress.Pressure // per cluster
	vals    []*value            // per node; nil until the producer schedules

	nMemOps [2]int // [stores, loads] added by transformations (statistics)

	valBuf  []value // storage behind vals
	valInts []int   // per-cluster backing of valBuf (valueInts·clusters each)

	probe  probe      // placement-probe scratch (plan.go)
	order  orderState // Order scratch (order.go)
	static ddg.Times  // ASAP/ALAP times at the attempt's II
	queue  []int      // TrySchedule work list
	cycle  cycleState // transform-loop cycle detection (cycle.go)

	// Short-lived lists, each owned by the one function named.
	spans    []regpress.Span // addValueSpans, removeValueSpans
	clusters []int           // placeNode: candidate clusters
	victims  []int           // ejectVictims
	consumed []int           // unschedule: producers v read
	deadline []int           // tryBusToMem: per-cluster first use
	targets  []target        // transform
	cands    []spillCand     // trySpill
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// newState returns an empty state for one attempt of g on m at ii, drawn
// from statePool. Callers hand it back with release.
func newState(g *ddg.Graph, m *machine.Config, ii int) *state {
	st := statePool.Get().(*state)
	st.reset(g, m, ii)
	return st
}

// release returns st to statePool; st must not be used afterwards. It
// drops the graph reference so a pooled state does not keep the caller's
// loop alive.
func (st *state) release() {
	st.g = nil
	statePool.Put(st)
}

// reset empties st for an attempt of g on m at ii, reusing its buffers.
func (st *state) reset(g *ddg.Graph, m *machine.Config, ii int) {
	n, nc := g.N(), m.Clusters
	st.g, st.m, st.ii = g, m, ii
	st.time = resize(st.time, n)
	st.cluster = resize(st.cluster, n)
	for i := range st.time {
		st.time[i], st.cluster[i] = -1, -1
	}
	st.sched = resize(st.sched, n)
	clear(st.sched)
	st.vals = resize(st.vals, n)
	clear(st.vals)
	st.valBuf = resize(st.valBuf, n)
	st.valInts = resize(st.valInts, n*valueInts*nc)
	st.rt.Reset(m, ii)
	st.press = resize(st.press, nc)
	for c := range st.press {
		st.press[c].Reset(ii)
	}
	st.nMemOps = [2]int{}
	st.probe.reset(st)
	st.clusters = resize(st.clusters, nc)
	st.deadline = resize(st.deadline, nc)
}

// resize returns s with length n, reusing its array when large enough.
// Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// initValue installs and returns node v's fresh value, produced in cluster
// home at cycle def.
func (st *state) initValue(v, home, def int) *value {
	k := valueInts * st.m.Clusters
	val := &st.valBuf[v]
	val.reset(home, def, st.m.Clusters, st.valInts[v*k:(v+1)*k])
	st.vals[v] = val
	return val
}

// addValueSpans registers the spans of value v in every cluster with the
// pressure trackers.
func (st *state) addValueSpans(v *value) {
	for c := 0; c < st.m.Clusters; c++ {
		st.spans = v.appendSpans(st.spans[:0], c, st.m)
		for _, sp := range st.spans {
			st.press[c].Add(sp.Start, sp.End)
		}
	}
}

// removeValueSpans removes the current spans of value v in every cluster.
// Mutating v's routing or uses between removeValueSpans and
// addValueSpans keeps the trackers consistent.
func (st *state) removeValueSpans(v *value) {
	for c := 0; c < st.m.Clusters; c++ {
		st.spans = v.appendSpans(st.spans[:0], c, st.m)
		for _, sp := range st.spans {
			st.press[c].Remove(sp.Start, sp.End)
		}
	}
}

// maxLive returns the current MaxLive of cluster c, as cached by its
// pressure tracker.
func (st *state) maxLive(c int) int { return st.press[c].MaxLive() }

// regsOK reports whether every cluster currently fits its register file.
func (st *state) regsOK() bool {
	for c := 0; c < st.m.Clusters; c++ {
		if st.maxLive(c) > st.m.RegsIn(c) {
			return false
		}
	}
	return true
}

// p2p reports whether the interconnect is point-to-point (per-destination
// transfers) rather than the shared broadcast bus.
func (st *state) p2p() bool { return st.m.Topology == machine.PointToPoint }

// freeXfer and friends report remaining capacity, used by the figure of
// merit (fraction of *free* resources a candidate consumes).
func (st *state) freeXfer() int {
	if h := probeReference; h != nil {
		return h.freeXfer(st)
	}
	return st.rt.FreeXferSlots()
}

func (st *state) freeMem(c int) int {
	if h := probeReference; h != nil {
		return h.freeMem(st, c)
	}
	return st.rt.FreeOpSlots(c, isa.MemUnit)
}

func (st *state) freeLifetime(c int) int64 {
	return st.press[c].Free(st.m.RegsIn(c))
}
