package schedule

import (
	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/regpress"
)

// FailReason classifies why a placement (or a whole node) failed; it seeds
// the choice of transformation (§3.3.2: start with the most saturated
// resource).
type FailReason int8

const (
	FailNone   FailReason = iota
	FailFU                // no functional-unit slot in the window
	FailWindow            // dependence window empty
	FailBus               // no bus slot for a required communication
	FailRegs              // register file would overflow
	FailMem               // no memory port for a required load

	// NumFailReasons is the number of reasons, FailNone included.
	NumFailReasons
)

var failNames = [NumFailReasons]string{"none", "fu", "window", "bus", "regs", "mem"}

// String returns a short name for the failure reason.
func (f FailReason) String() string { return failNames[f] }

// commPlan is a new transfer for the value produced by val. dest is the
// destination cluster on point-to-point links and -1 for a shared-bus
// broadcast.
type commPlan struct {
	val   int
	dest  int
	start int
}

// movePlan reschedules an existing transfer of val from old to new (always
// earlier, to meet a tighter consumer deadline; existing consumers only see
// the value arrive sooner). dest is -1 for a shared-bus broadcast.
type movePlan struct {
	val      int
	dest     int
	old, new int
}

// loadPlan adds a load of a memory-routed value into a cluster.
type loadPlan struct {
	val     int
	cluster int
	cycle   int
}

// usePlan records a consumer read: value val is read in cluster at cycle
// use (consumer start + II·dist).
type usePlan struct {
	val     int
	cluster int
	use     int
}

// plan is a fully-checked tentative placement of node v at (cluster, t).
// Plans are recycled through the probe scratch (newPlan/freePlan).
type plan struct {
	v, cluster, t int

	comms []commPlan
	moves []movePlan
	loads []loadPlan
	uses  []usePlan
	regs  []regChange // the register change checkRegs checked

	merit merit
}

// merit is the §3.3.1 figure of merit: the fractions of remaining bus,
// per-cluster memory and per-cluster register-lifetime capacity this
// placement consumes (2·NClusters+1 components, with the per-cluster
// memory components of the §3.3.4 extension). planPlace stores the
// components in decreasing order, the order betterMerit compares and sums
// them in.
type merit []float64

// meritThreshold is the significance threshold of the figure-of-merit
// comparison (§3.3.1).
const meritThreshold = 0.05

// betterMerit reports whether a beats b, both sorted in decreasing order:
// components are compared pairwise until one pair differs by more than
// meritThreshold (the smaller component wins); otherwise the smaller sum
// wins.
func betterMerit(a, b merit) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if d := a[i] - b[i]; d > meritThreshold {
			return false
		} else if d < -meritThreshold {
			return true
		}
	}
	var sa, sb float64
	for _, x := range a {
		sa += x
	}
	for _, x := range b {
		sb += x
	}
	return sa < sb
}

// probe is the scratch of planPlace and checkRegs. The state owns it and
// reset re-arms it per attempt; begin re-arms it per probe without
// clearing the dense arrays, whose stale entries carry older generations.
type probe struct {
	gen  uint32    // current probe generation
	xfer slotDelta // tentative transfer occupancy, by channel·II + slot
	mem  slotDelta // tentative memory-port occupancy, by cluster·II + slot
	occ  int       // slots one transfer occupies

	moved     []movedXfer // transfers already planned, per (value, dest)
	crossNeed []int       // per cluster: v's earliest consumer deadline, or absent
	memUsed   []int64     // per cluster: tentative memory slots taken
	addUnits  []int64     // per cluster: net lifetime units added

	// Register-delta scratch (regs.go): the (value, cluster) pairs whose
	// spans a plan can change and their clusters, the values among them
	// (touchAll), one pair's spans before and after, and one cluster's
	// removed and added spans.
	touches  []touch
	visit    []bool
	ids      []int
	old, new []regpress.Span
	rem, add []regpress.Span
	lastFail int // cluster whose register check failed last (checkRegs)

	plans []*plan // free plans
}

// slotDelta is a dense delta array read through generation stamps: an
// entry stamped with an older generation reads as zero, so starting a new
// probe clears nothing. touched lists the entries written in the current
// generation.
type slotDelta struct {
	val     []int
	stamp   []uint32
	touched []int
}

func (d *slotDelta) size(n int) {
	if len(d.val) < n {
		d.val = make([]int, n)
		d.stamp = make([]uint32, n)
	}
}

func (d *slotDelta) at(gen uint32, i int) int {
	if d.stamp[i] != gen {
		return 0
	}
	return d.val[i]
}

func (d *slotDelta) add(gen uint32, i, x int) {
	if d.stamp[i] != gen {
		d.stamp[i], d.val[i] = gen, 0
		d.touched = append(d.touched, i)
	}
	d.val[i] += x
}

// movedXfer is a transfer placement already planned in the current probe
// for a (value, destination) pair (several in-edges may read the same
// producer). dest is -1 for shared-bus broadcasts.
type movedXfer struct {
	val, dest, start int
}

// reset sizes the probe scratch for st's attempt.
func (pr *probe) reset(st *state) {
	m, ii := st.m, st.ii
	pr.xfer.size(m.Channels() * ii)
	pr.mem.size(m.Clusters * ii)
	pr.occ = m.XferOccupancy()
	pr.crossNeed = resize(pr.crossNeed, m.Clusters)
	pr.memUsed = resize(pr.memUsed, m.Clusters)
	pr.addUnits = resize(pr.addUnits, m.Clusters)
	pr.visit = resize(pr.visit, m.Clusters)
	pr.lastFail = 0
}

// begin starts a new probe generation.
func (pr *probe) begin() {
	if pr.gen++; pr.gen == 0 {
		clear(pr.xfer.stamp)
		clear(pr.mem.stamp)
		pr.gen = 1
	}
	pr.xfer.touched = pr.xfer.touched[:0]
	pr.mem.touched = pr.mem.touched[:0]
	pr.moved = pr.moved[:0]
	fillAbsent(pr.crossNeed)
	clear(pr.memUsed)
	clear(pr.addUnits)
}

// newPlan returns an empty plan for v at (c, t), recycled when possible.
func (pr *probe) newPlan(v, c, t int) *plan {
	var p *plan
	if n := len(pr.plans); n > 0 {
		p, pr.plans = pr.plans[n-1], pr.plans[:n-1]
	} else {
		p = new(plan)
	}
	p.v, p.cluster, p.t = v, c, t
	p.comms, p.moves, p.loads, p.uses = p.comms[:0], p.moves[:0], p.loads[:0], p.uses[:0]
	p.regs, p.merit = p.regs[:0], p.merit[:0]
	return p
}

// freePlan recycles p (nil-safe); p must not be used afterwards.
func (pr *probe) freePlan(p *plan) {
	if p != nil {
		pr.plans = append(pr.plans, p)
	}
}

// fail recycles p and reports the failure reason.
func (pr *probe) fail(p *plan, reason FailReason) (*plan, FailReason) {
	pr.freePlan(p)
	return nil, reason
}

// slot returns the modulo slot of cycle cyc.
func (st *state) slot(cyc int) int {
	s := cyc % st.ii
	if s < 0 {
		s += st.ii
	}
	return s
}

// canXfer reports whether a src→dst transfer departing at start fits its
// channel together with the probe's tentative transfers.
func (st *state) canXfer(src, dst, start int) bool {
	m, pr := st.m, &st.probe
	if m.NBus == 0 || (!m.Pipelined && m.LatBus >= st.ii) {
		return false
	}
	ch := st.rt.Channel(src, dst)
	for d := 0; d < pr.occ; d++ {
		s := st.slot(start + d)
		if st.rt.ChannelAt(ch, s)+pr.xfer.at(pr.gen, ch*st.ii+s) >= m.NBus {
			return false
		}
	}
	return true
}

// shiftXfer adds delta to the probe's tentative occupancy of the src→dst
// transfer departing at start (+1 takes it, -1 drops it).
func (st *state) shiftXfer(src, dst, start, delta int) {
	pr := &st.probe
	ch := st.rt.Channel(src, dst)
	for d := 0; d < pr.occ; d++ {
		pr.xfer.add(pr.gen, ch*st.ii+st.slot(start+d), delta)
	}
}

// canMem reports whether cluster cl has a memory port free at cycle cyc,
// counting the probe's tentative loads.
func (st *state) canMem(cl, cyc int) bool {
	s := st.slot(cyc)
	return st.rt.MemAt(cl, s)+st.probe.mem.at(st.probe.gen, cl*st.ii+s) < st.m.UnitsIn(cl, isa.MemUnit)
}

// takeMem records a tentative memory-port use in cluster cl at cycle cyc.
func (st *state) takeMem(cl, cyc int) {
	st.probe.mem.add(st.probe.gen, cl*st.ii+st.slot(cyc), 1)
}

// movedTo returns the transfer start already planned for (id, dest) in the
// current probe.
func (pr *probe) movedTo(id, dest int) (int, bool) {
	for _, mx := range pr.moved {
		if mx.val == id && mx.dest == dest {
			return mx.start, true
		}
	}
	return 0, false
}

// setMoved records the planned transfer start for (id, dest).
func (pr *probe) setMoved(id, dest, start int) {
	for i := range pr.moved {
		if pr.moved[i].val == id && pr.moved[i].dest == dest {
			pr.moved[i].start = start
			return
		}
	}
	pr.moved = append(pr.moved, movedXfer{val: id, dest: dest, start: start})
}

// planPlace attempts to construct a placement of node v at (c, t): it
// checks the functional unit, routes every dependence with already
// scheduled endpoints (reusing, moving or creating bus transfers; reusing
// or extending memory routes), verifies register capacity in every touched
// cluster, and computes the figure of merit. It never mutates the schedule
// and allocates nothing once the probe scratch is warm; the returned plan
// is recycled with freePlan.
func (st *state) planPlace(v, c, t int) (*plan, FailReason) {
	g, m, ii := st.g, st.m, st.ii
	node := g.Nodes[v]

	if !st.rt.CanPlaceOp(c, node.Op.Unit(), t) {
		return nil, FailFU
	}

	pr := &st.probe
	pr.begin()
	p := pr.newPlan(v, c, t)
	p2p := st.p2p()
	// The memory delta starts with v's own reservation when v is a memory
	// operation, so a planned load cannot claim the same last free port.
	if node.Op.Unit() == isa.MemUnit {
		st.takeMem(c, t)
	}

	def := t + m.OpLatency(node.Op) // when v's value is written

	// Incoming data dependences from scheduled producers.
	for _, ei := range g.In(v) {
		e := g.Edges[ei]
		u := e.From
		if !st.sched[u] {
			continue
		}
		need := t + ii*e.Dist
		if e.Kind != ddg.Data {
			if st.time[u]+e.Lat > need {
				return pr.fail(p, FailWindow)
			}
			continue
		}
		val := st.vals[u]
		uc := st.cluster[u]
		if st.time[u]+e.Lat > need || val.def > need {
			return pr.fail(p, FailWindow)
		}
		if uc == c {
			// A spilled value is register-dead between its store and the
			// reload completion: new home uses must wait for the reload.
			if val.spill != nil && need > val.spill.store && need < val.spill.load+m.OpLatency(isa.Load) {
				return pr.fail(p, FailWindow)
			}
			p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
			continue
		}
		// Cross-cluster read.
		if val.mem != nil {
			if l := val.mem.loads[c]; l != absent {
				if l+m.OpLatency(isa.Load) > need {
					return pr.fail(p, FailWindow)
				}
				p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
				continue
			}
			// Add a load in c: latest feasible slot keeps the lifetime short.
			lo := val.mem.store + m.OpLatency(isa.Store)
			hi := need - m.OpLatency(isa.Load)
			found := false
			for l := hi; l >= lo && l > hi-ii; l-- {
				if st.canMem(c, l) {
					p.loads = append(p.loads, loadPlan{val: u, cluster: c, cycle: l})
					st.takeMem(c, l)
					p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
					found = true
					break
				}
			}
			if !found {
				return pr.fail(p, FailMem)
			}
			continue
		}
		dest := -1 // shared bus: one broadcast serves every cluster
		if p2p {
			dest = c // point-to-point: a dedicated transfer must reach c
		}
		start, ok := pr.movedTo(u, dest)
		if !ok && val.comm != nil {
			start, ok = val.comm.startFor(dest, p2p)
		}
		if ok {
			if start+m.LatBus <= need {
				p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
				continue
			}
			// Try moving the transfer earlier (never violates the comm's
			// existing consumers: they only see the value arrive sooner).
			moved := false
			for s := need - m.LatBus; s >= val.def && s > need-m.LatBus-ii; s-- {
				if !xferDepartOK(val, s, m) {
					continue
				}
				st.shiftXfer(uc, c, start, -1)
				if st.canXfer(uc, c, s) {
					st.shiftXfer(uc, c, s, +1)
					if _, already := pr.movedTo(u, dest); already {
						// The transfer was created or moved earlier in this
						// plan: update that entry (a plan-created transfer
						// lives in p.comms, a moved existing one in p.moves).
						updated := false
						for i := range p.moves {
							if p.moves[i].val == u && p.moves[i].dest == dest {
								p.moves[i].new = s
								updated = true
							}
						}
						if !updated {
							for i := range p.comms {
								if p.comms[i].val == u && p.comms[i].dest == dest {
									p.comms[i].start = s
								}
							}
						}
					} else {
						old, _ := val.comm.startFor(dest, p2p)
						p.moves = append(p.moves, movePlan{val: u, dest: dest, old: old, new: s})
					}
					pr.setMoved(u, dest, s)
					p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
					moved = true
					break
				}
				st.shiftXfer(uc, c, start, +1)
			}
			if !moved {
				return pr.fail(p, FailBus)
			}
			continue
		}
		// New transfer: earliest feasible start preserves later flexibility.
		placed := false
		for s := val.def; s+m.LatBus <= need && s < val.def+ii; s++ {
			if !xferDepartOK(val, s, m) {
				continue
			}
			if st.canXfer(uc, c, s) {
				st.shiftXfer(uc, c, s, +1)
				p.comms = append(p.comms, commPlan{val: u, dest: dest, start: s})
				pr.setMoved(u, dest, s)
				p.uses = append(p.uses, usePlan{val: u, cluster: c, use: need})
				placed = true
				break
			}
		}
		if !placed {
			return pr.fail(p, FailBus)
		}
	}

	// Outgoing dependences toward scheduled consumers: v must deliver.
	// crossNeed holds each destination cluster's earliest deadline.
	cross := false
	for _, ei := range g.Out(v) {
		e := g.Edges[ei]
		w := e.To
		if !st.sched[w] || w == v {
			continue
		}
		need := st.time[w] + ii*e.Dist
		if t+e.Lat > need {
			return pr.fail(p, FailWindow)
		}
		if e.Kind != ddg.Data {
			continue
		}
		wc := st.cluster[w]
		if wc == c {
			if def > need {
				return pr.fail(p, FailWindow)
			}
			p.uses = append(p.uses, usePlan{val: v, cluster: c, use: need})
			continue
		}
		if cur := pr.crossNeed[wc]; cur == absent || need < cur {
			pr.crossNeed[wc] = need
		}
		cross = true
		p.uses = append(p.uses, usePlan{val: v, cluster: wc, use: need})
	}
	if cross {
		if p2p {
			// One transfer per destination link, each meeting that
			// destination's own deadline (deterministic cluster order).
			for wc, need := range pr.crossNeed {
				if need == absent {
					continue
				}
				placed := false
				for s := def; s+m.LatBus <= need && s < def+ii; s++ {
					if st.canXfer(c, wc, s) {
						st.shiftXfer(c, wc, s, +1)
						p.comms = append(p.comms, commPlan{val: v, dest: wc, start: s})
						placed = true
						break
					}
				}
				if !placed {
					return pr.fail(p, FailBus)
				}
			}
		} else {
			// One broadcast transfer must meet the tightest deadline.
			minNeed := 1 << 30
			for _, n := range pr.crossNeed {
				if n != absent && n < minNeed {
					minNeed = n
				}
			}
			placed := false
			for s := def; s+m.LatBus <= minNeed && s < def+ii; s++ {
				if st.canXfer(c, -1, s) {
					st.shiftXfer(c, -1, s, +1)
					p.comms = append(p.comms, commPlan{val: v, dest: -1, start: s})
					placed = true
					break
				}
			}
			if !placed {
				return pr.fail(p, FailBus)
			}
		}
	}

	// Register capacity: the spans the plan changes, cluster by cluster.
	if !st.checkRegs(p, def) {
		return pr.fail(p, FailRegs)
	}

	// Figure of merit: fractions of remaining capacity consumed.
	xferUsed := 0
	for _, i := range pr.xfer.touched {
		if d := pr.xfer.val[i]; d > 0 {
			xferUsed += d
		}
	}
	for _, i := range pr.mem.touched {
		if d := pr.mem.val[i]; d > 0 {
			pr.memUsed[i/ii] += int64(d)
		}
	}
	fm := append(p.merit, fraction(int64(xferUsed), int64(st.freeXfer())))
	for cl := 0; cl < m.Clusters; cl++ {
		fm = append(fm, fraction(pr.memUsed[cl], int64(st.freeMem(cl))))
	}
	for cl := 0; cl < m.Clusters; cl++ {
		fm = append(fm, fraction(pr.addUnits[cl], st.freeLifetime(cl)))
	}
	sortDecreasing(fm)
	p.merit = fm
	return p, FailNone
}

// sortDecreasing sorts the merit components in decreasing order by
// insertion: there are 2·NClusters+1 of them, all finite, so the order is
// the one any sort gives.
func sortDecreasing(fm merit) {
	for i := 1; i < len(fm); i++ {
		x, j := fm[i], i
		for ; j > 0 && fm[j-1] < x; j-- {
			fm[j] = fm[j-1]
		}
		fm[j] = x
	}
}

// fraction returns used/free, saturating at 1 when free is exhausted.
func fraction(used, free int64) float64 {
	if used <= 0 {
		return 0
	}
	if free <= 0 {
		return 1
	}
	f := float64(used) / float64(free)
	if f > 1 {
		return 1
	}
	return f
}

// xferDepartOK reports whether a transfer of val may depart at cycle s: the
// value must already be written and register-resident — for spilled values,
// outside the dead window between the spill store and the reload
// completion.
func xferDepartOK(val *value, s int, m *machine.Config) bool {
	if s < val.def {
		return false
	}
	if val.spill != nil {
		if reload := val.spill.load + m.OpLatency(isa.Load); s > val.spill.store && s < reload {
			return false
		}
	}
	return true
}
