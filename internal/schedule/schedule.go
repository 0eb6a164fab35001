package schedule

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
)

// Mode selects how cluster assignment interacts with scheduling (Figure 1
// of the paper).
type Mode int8

const (
	// ModeGP follows the precomputed partition but may place a node in
	// another cluster when the assigned one fails (alternative (b), §3.1).
	ModeGP Mode = iota
	// ModeFixed follows the partition rigidly: a node that does not fit its
	// assigned cluster fails the whole II (alternative (a), "Fixed
	// Partition").
	ModeFixed
	// ModeURACAM has no precomputed partition: every node considers all
	// clusters and the figure of merit picks one (the URACAM baseline).
	// The paper reports URACAM 2–7× slower than GP (Table 2). Here the
	// two schemes' scheduling times stay within about 0.8–1.4× of each
	// other, GP's including its partitioning (README, Table 2).
	ModeURACAM
)

func (md Mode) String() string {
	switch md {
	case ModeGP:
		return "GP"
	case ModeFixed:
		return "FixedPartition"
	case ModeURACAM:
		return "URACAM"
	}
	return fmt.Sprintf("Mode(%d)", int8(md))
}

// Options configures one scheduling attempt.
type Options struct {
	// Mode selects the cluster-assignment policy.
	Mode Mode
	// Assign is the precomputed cluster assignment (required for ModeGP and
	// ModeFixed; ignored by ModeURACAM).
	Assign []int
}

// Failure reports why an II attempt failed.
type Failure struct {
	Node   int
	Reason FailReason
	// Work is the failed attempt's transform-loop work.
	Work TransformWork
}

// TransformWork counts one attempt's transform loops: the §3.3.2
// transformations and placement retries spent on nodes that no cluster
// admits (see TrySchedule).
type TransformWork struct {
	// Loops counts the transform loops entered: each one starts at a
	// failed placement while the attempt's transform budget lasts.
	Loops int
	// Cuts counts the loops a repeated routing state ended early.
	Cuts int
	// Retries counts the placements tried after a transformation.
	Retries int
}

// Add adds o's counts to w.
func (w *TransformWork) Add(o TransformWork) {
	w.Loops += o.Loops
	w.Cuts += o.Cuts
	w.Retries += o.Retries
}

func (f *Failure) Error() string {
	return fmt.Sprintf("schedule: node %d unplaceable (%s)", f.Node, f.Reason)
}

// Comm is a scheduled inter-cluster transfer in a final Schedule. The JSON
// tags are the gpserved wire format; they are stable API.
type Comm struct {
	Producer int `json:"producer"` // producing node
	Start    int `json:"start"`    // departure cycle
	// Dest is the destination cluster of a point-to-point transfer, or -1
	// for a shared-bus broadcast (which reaches every other cluster).
	Dest int `json:"dest"`
}

// MemOp is a transformation-inserted memory operation in a final Schedule.
// The JSON tags are the gpserved wire format; they are stable API.
type MemOp struct {
	Producer int  `json:"producer"`
	Cluster  int  `json:"cluster"`
	Cycle    int  `json:"cycle"`
	IsStore  bool `json:"is_store,omitempty"`
}

// Schedule is a completed modulo schedule.
type Schedule struct {
	II      int
	SL      int // schedule length: last completion cycle of any operation
	Time    []int
	Cluster []int
	// MaxLive is the per-cluster register pressure of the steady state.
	MaxLive []int
	// Comms are the bus transfers; NComm == len(Comms).
	Comms []Comm
	// MemOps are the loads/stores added by spills and memory-routed
	// communications.
	MemOps []MemOp
	// Spills counts spilled values; MemRoutes counts values rerouted
	// through memory instead of the bus.
	Spills, MemRoutes int
	// Transforms counts applied §3.3.2 transformations.
	Transforms int
	// List marks a non-pipelined fallback schedule (ListSchedule):
	// iterations run back to back, II equals SL, and inter-cluster
	// transfers are implicit in the cut-edge latencies rather than
	// reserved on the interconnect.
	List bool
	// Work is the successful attempt's transform-loop work. It is not
	// part of the schedule's wire bytes.
	Work TransformWork `json:"-"`
}

// Cycles returns the execution time of the loop for a trip count:
// (niter−1)·II + SL, including prolog and epilog.
func (s *Schedule) Cycles(niter int) int64 {
	return int64(niter-1)*int64(s.II) + int64(s.SL)
}

// Stages returns the number of pipeline stages, ceil(SL/II).
func (s *Schedule) Stages() int {
	if s.II == 0 {
		return 0
	}
	return (s.SL + s.II - 1) / s.II
}

// TrySchedule attempts a modulo schedule of g on m at initiation interval
// ii. It returns the schedule, or the failure that ended the attempt (the
// driver then raises the II and possibly recomputes the partition, §3.1).
func TrySchedule(g *ddg.Graph, m *machine.Config, ii int, opts *Options) (*Schedule, *Failure) {
	if opts == nil {
		opts = &Options{Mode: ModeURACAM}
	}
	if (opts.Mode == ModeGP || opts.Mode == ModeFixed) && len(opts.Assign) != g.N() {
		panic("schedule: partition-following mode without an assignment")
	}
	st := newState(g, m, ii)
	defer st.release()
	if !g.StartTimesInto(m, ii, nil, &st.static) {
		return nil, &Failure{Node: -1, Reason: FailWindow}
	}
	static := &st.static

	// Caps on the §3.3.2 transformations and on ejections per II attempt.
	maxTransforms := 2*g.N() + 8
	transforms := 0
	ejections := 0
	maxEjections := 2*g.N() + 8
	var work TransformWork

	st.queue = append(st.queue[:0], st.order.order(g, static)...)
	for qi := 0; qi < len(st.queue); qi++ {
		v := st.queue[qi]
		if st.sched[v] {
			continue // re-placed before its ejected entry came up again
		}
	retry:
		placed, lastFail := st.placeNode(v, opts, static)
		if !placed && transforms < maxTransforms {
			// The transform loop: transform and retry until v fits, no
			// transformation applies or the budget runs out. Once the
			// routing state repeats, v can never fit (see cycle.go), so
			// the loop jumps to the state the budget would end in.
			work.Loops++
			st.cycle.begin(st, lastFail)
		}
		for !placed && transforms < maxTransforms {
			if !st.transform(lastFail) {
				break
			}
			transforms++
			work.Retries++
			placed, lastFail = st.placeNode(v, opts, static)
			if !placed && transformCut {
				if lam := st.cycle.step(st, lastFail); lam > 0 {
					lastFail = st.skipRound(lam, maxTransforms-transforms)
					transforms = maxTransforms
					work.Cuts++
				}
			}
		}
		if !placed && lastFail == FailWindow && ejections < maxEjections {
			// Two-sided empty window: evict the binding successors and
			// retry (they re-enter the work list).
			if victims := st.ejectVictims(v); len(victims) > 0 {
				for _, w := range victims {
					st.unschedule(w)
					st.queue = append(st.queue, w)
				}
				ejections++
				goto retry
			}
		}
		if !placed {
			return nil, &Failure{Node: v, Reason: lastFail, Work: work}
		}
		if debugChecks {
			if err := st.checkInvariants(); err != nil {
				panic(fmt.Sprintf("schedule: invariant broken after placing node %d: %v", v, err))
			}
		}
	}
	for v := range st.sched {
		if !st.sched[v] {
			panic(fmt.Sprintf("schedule: node %d left unscheduled after work list drained", v))
		}
	}
	s := st.finish(transforms)
	s.Work = work
	return s, nil
}

// placeNode tries every allowed cluster for node v and applies the best
// placement by figure of merit. It reports the dominant failure reason when
// no cluster admits the node.
func (st *state) placeNode(v int, opts *Options, static *ddg.Times) (bool, FailReason) {
	clusters := st.clusters[:0]
	switch opts.Mode {
	case ModeFixed, ModeGP:
		// GP: assigned cluster first; the others only when it fails.
		clusters = append(clusters, opts.Assign[v])
	case ModeURACAM:
		for c := 0; c < st.m.Clusters; c++ {
			clusters = append(clusters, c)
		}
	}

	best, fail := st.bestCandidate(v, clusters, static)
	if best == nil && opts.Mode == ModeGP {
		others := clusters[:0]
		for c := 0; c < st.m.Clusters; c++ {
			if c != opts.Assign[v] {
				others = append(others, c)
			}
		}
		var fail2 FailReason
		best, fail2 = st.bestCandidate(v, others, static)
		if best == nil && fail2 > fail {
			fail = fail2
		}
	}
	if best == nil {
		return false, fail
	}
	st.apply(best)
	st.probe.freePlan(best)
	return true, FailNone
}

// bestCandidate scans each cluster's placement window for its first
// feasible slot and returns the merit-best plan among clusters, or the
// dominant failure reason.
func (st *state) bestCandidate(v int, clusters []int, static *ddg.Times) (*plan, FailReason) {
	var best *plan
	worstFail := FailNone
	for _, c := range clusters {
		p, reason := st.scanCluster(v, c, static)
		if p == nil {
			if reason > worstFail {
				worstFail = reason
			}
			continue
		}
		if best == nil || betterMerit(p.merit, best.merit) {
			st.probe.freePlan(best)
			best = p
		} else {
			st.probe.freePlan(p)
		}
	}
	if best == nil && worstFail == FailNone {
		worstFail = FailWindow
	}
	return best, worstFail
}

// scanCluster computes the SMS placement window of v in cluster c and
// returns the plan for the first feasible slot.
func (st *state) scanCluster(v, c int, static *ddg.Times) (*plan, FailReason) {
	g, m, ii := st.g, st.m, st.ii
	lb, hasPred := -1<<30, false
	ub, hasSucc := 1<<30, false
	for _, ei := range g.In(v) {
		e := g.Edges[ei]
		if !st.sched[e.From] || e.From == v {
			continue
		}
		hasPred = true
		b := st.time[e.From] + e.Lat - ii*e.Dist
		if e.Kind == ddg.Data && st.cluster[e.From] != c {
			b += m.LatBus
		}
		if b > lb {
			lb = b
		}
	}
	for _, ei := range g.Out(v) {
		e := g.Edges[ei]
		if !st.sched[e.To] || e.To == v {
			continue
		}
		hasSucc = true
		b := st.time[e.To] - e.Lat + ii*e.Dist
		if e.Kind == ddg.Data && st.cluster[e.To] != c {
			b -= m.LatBus
		}
		if b < ub {
			ub = b
		}
	}

	worst := FailNone
	try := func(t int) (*plan, bool) {
		p, reason := st.planPlace(v, c, t)
		if p != nil {
			return p, true
		}
		if reason > worst {
			worst = reason
		}
		return nil, false
	}

	// Start cycles may be negative (bottom-up placement below cycle 0):
	// modulo schedules are shift-invariant and finish() normalizes.
	switch {
	case hasPred && hasSucc:
		hi := ub
		if lb+ii-1 < hi {
			hi = lb + ii - 1
		}
		for t := lb; t <= hi; t++ {
			if p, ok := try(t); ok {
				return p, FailNone
			}
		}
	case hasPred:
		for t := lb; t < lb+ii; t++ {
			if p, ok := try(t); ok {
				return p, FailNone
			}
		}
	case hasSucc:
		lo := ub - ii + 1
		for t := ub; t >= lo; t-- {
			if p, ok := try(t); ok {
				return p, FailNone
			}
		}
	default:
		start := static.Earliest[v]
		for t := start; t < start+ii; t++ {
			if p, ok := try(t); ok {
				return p, FailNone
			}
		}
	}
	if worst == FailNone {
		worst = FailWindow
	}
	return nil, worst
}

// apply commits a plan to the state.
func (st *state) apply(p *plan) {
	if h := probeReference; h != nil {
		h.apply(st, p)
		return
	}
	g, m := st.g, st.m
	node := g.Nodes[p.v]
	def := p.t + m.OpLatency(node.Op)

	// 1. Register pressure: the change checkRegs checked.
	for _, rc := range p.regs {
		if rc.add {
			st.press[rc.c].Add(rc.sp.Start, rc.sp.End)
		} else {
			st.press[rc.c].Remove(rc.sp.Start, rc.sp.End)
		}
	}

	// 2. Producer bookkeeping for v.
	st.rt.PlaceOp(p.cluster, node.Op.Unit(), p.t)
	st.time[p.v] = p.t
	st.cluster[p.v] = p.cluster
	st.sched[p.v] = true
	if node.Op.ProducesValue() {
		st.initValue(p.v, p.cluster, def)
	}

	// 3. Routing and uses. Transfer channels are keyed by the value's home
	// cluster and the planned destination (ignored on the shared bus).
	for _, mv := range p.moves {
		val := st.vals[mv.val]
		st.rt.RemoveXfer(val.home, mv.dest, mv.old)
		st.rt.PlaceXfer(val.home, mv.dest, mv.new)
		if mv.dest < 0 {
			val.comm.start = mv.new
		} else {
			val.comm.dests[mv.dest] = mv.new
		}
	}
	for _, cp := range p.comms {
		val := st.vals[cp.val]
		st.rt.PlaceXfer(val.home, cp.dest, cp.start)
		if cp.dest < 0 {
			val.comm = val.newComm(false, cp.start)
		} else {
			if val.comm == nil {
				val.comm = val.newComm(true, 0)
			}
			val.comm.dests[cp.dest] = cp.start
		}
	}
	for _, lp := range p.loads {
		st.rt.PlaceOp(lp.cluster, isa.MemUnit, lp.cycle)
		st.vals[lp.val].mem.loads[lp.cluster] = lp.cycle
		st.nMemOps[1]++
	}
	for _, up := range p.uses {
		val := st.vals[up.val]
		if cur := val.minUse[up.cluster]; cur == noUse || up.use < cur {
			val.minUse[up.cluster] = up.use
		}
		if cur := val.maxUse[up.cluster]; cur == noUse || up.use > cur {
			val.maxUse[up.cluster] = up.use
		}
	}
}

// appendUnique appends id to ids unless it is already there or is skip.
func appendUnique(ids []int, id, skip int) []int {
	if id == skip {
		return ids
	}
	for _, x := range ids {
		if x == id {
			return ids
		}
	}
	return append(ids, id)
}

// finish assembles the Schedule from a fully placed state, normalizing
// start cycles so the earliest operation issues at cycle 0 (a uniform shift
// rotates every modulo slot identically, so resources and dependences are
// unaffected).
func (st *state) finish(transforms int) *Schedule {
	g, m := st.g, st.m
	s := &Schedule{
		II:         st.ii,
		Time:       append([]int(nil), st.time...),
		Cluster:    append([]int(nil), st.cluster...),
		MaxLive:    make([]int, m.Clusters),
		Transforms: transforms,
	}
	shift := 0
	for _, t := range s.Time {
		if t < shift {
			shift = t
		}
	}
	if shift < 0 {
		for v := range s.Time {
			s.Time[v] -= shift
		}
	}
	for c := 0; c < m.Clusters; c++ {
		s.MaxLive[c] = st.maxLive(c)
	}
	// SL must be computed from the normalized times: with a negative shift,
	// the unshifted st.time would understate it by |shift|.
	for v := range g.Nodes {
		if f := s.Time[v] + m.OpLatency(g.Nodes[v].Op); f > s.SL {
			s.SL = f
		}
	}
	for id, val := range st.vals {
		if val == nil {
			continue
		}
		if val.comm != nil {
			if val.comm.dests == nil {
				start := val.comm.start - shift
				s.Comms = append(s.Comms, Comm{Producer: id, Start: start, Dest: -1})
				if f := start + m.LatBus; f > s.SL {
					s.SL = f
				}
			} else {
				// Point-to-point: one transfer per destination link, in
				// deterministic cluster order.
				for c, start := range val.comm.dests {
					if start == absent {
						continue
					}
					start -= shift
					s.Comms = append(s.Comms, Comm{Producer: id, Start: start, Dest: c})
					if f := start + m.LatBus; f > s.SL {
						s.SL = f
					}
				}
			}
		}
		if val.mem != nil {
			s.MemRoutes++
			store := val.mem.store - shift
			s.MemOps = append(s.MemOps, MemOp{Producer: id, Cluster: val.home, Cycle: store, IsStore: true})
			if f := store + m.OpLatency(isa.Store); f > s.SL {
				s.SL = f
			}
			// Cluster order: MemOps is part of the served response bytes.
			for c, l := range val.mem.loads {
				if l == absent {
					continue
				}
				s.MemOps = append(s.MemOps, MemOp{Producer: id, Cluster: c, Cycle: l - shift})
				if f := l - shift + m.OpLatency(isa.Load); f > s.SL {
					s.SL = f
				}
			}
		}
		if val.spill != nil {
			s.Spills++
			s.MemOps = append(s.MemOps,
				MemOp{Producer: id, Cluster: val.home, Cycle: val.spill.store - shift, IsStore: true},
				MemOp{Producer: id, Cluster: val.home, Cycle: val.spill.load - shift})
			if f := val.spill.load - shift + m.OpLatency(isa.Load); f > s.SL {
				s.SL = f
			}
		}
	}
	return s
}

// Validate cross-checks a finished schedule against the dependence graph:
// every edge constraint must hold, including bus latency on cut data edges.
// Only tests call it; served schedules go through Verify, which also
// checks resources and routing.
func (s *Schedule) Validate(g *ddg.Graph, m *machine.Config) error {
	for i, e := range g.Edges {
		if e.From == e.To && e.Dist > 0 {
			if e.Lat > s.II*e.Dist {
				return fmt.Errorf("schedule: self recurrence %d violated: lat %d > II·dist %d", i, e.Lat, s.II*e.Dist)
			}
			continue
		}
		tf, tt := s.Time[e.From], s.Time[e.To]
		slack := tt + s.II*e.Dist - tf - e.Lat
		if e.Kind == ddg.Data && s.Cluster[e.From] != s.Cluster[e.To] {
			// The transfer path adds at least the bus latency (or the
			// store+load path, which is at least as long).
			slack -= m.LatBus
		}
		if slack < 0 {
			return fmt.Errorf("schedule: edge %d (%d→%d lat %d dist %d) violated: t=%d→%d II=%d",
				i, e.From, e.To, e.Lat, e.Dist, tf, tt, s.II)
		}
	}
	for c, ml := range s.MaxLive {
		if ml > m.RegsIn(c) {
			return fmt.Errorf("schedule: cluster %d MaxLive %d exceeds %d registers", c, ml, m.RegsIn(c))
		}
	}
	return nil
}
