package schedule

import (
	"cmp"
	"slices"

	"repro/internal/isa"
)

// targetKind names the transformation a transform target applies.
type targetKind int8

const (
	targetSpill     targetKind = iota // trySpill(c)
	targetBusToMem                    // tryBusToMem
	targetMemRelief                   // tryMemToBus(c), else tryUnspill(c)
)

// target is one candidate transformation and the saturation of the
// resource it relieves.
type target struct {
	kind targetKind
	c    int
	sat  float64
}

// run applies the target's transformation and reports whether it did.
func (tg target) run(st *state) bool {
	switch tg.kind {
	case targetSpill:
		return st.trySpill(tg.c)
	case targetBusToMem:
		return st.tryBusToMem()
	}
	return st.tryMemToBus(tg.c) || st.tryUnspill(tg.c)
}

// transform applies one §3.3.2 transformation aimed at relieving the most
// saturated resource (the failure reason of the blocked node breaks ties in
// its favor). It reports whether any transformation was applied:
//
//   - register pressure → insert spill code (store after def, reload before
//     first use) in the most pressured cluster;
//   - bus pressure → reroute a communicated value through memory
//     (store in the source cluster, loads in the destinations);
//   - memory pressure → reroute a memory-routed value back over the bus, or
//     remove spill code.
func (st *state) transform(reason FailReason) bool {
	targets := st.targets[:0]
	// Register saturation per cluster.
	for c := 0; c < st.m.Clusters; c++ {
		sat := float64(st.maxLive(c)) / float64(st.m.RegsIn(c))
		if reason == FailRegs {
			sat += 1 // prioritize the failing resource class
		}
		targets = append(targets, target{kind: targetSpill, c: c, sat: sat})
	}
	// Interconnect saturation.
	{
		sat := st.rt.XferUtilization()
		if reason == FailBus {
			sat += 1
		}
		targets = append(targets, target{kind: targetBusToMem, sat: sat})
	}
	// Memory saturation per cluster.
	for c := 0; c < st.m.Clusters; c++ {
		sat := st.rt.MemUtilization(c)
		if reason == FailMem {
			sat += 1
		}
		targets = append(targets, target{kind: targetMemRelief, c: c, sat: sat})
	}
	st.targets = targets

	// Most saturated first; ties keep the order above.
	slices.SortStableFunc(targets, func(a, b target) int { return cmp.Compare(b.sat, a.sat) })
	for _, tg := range targets {
		if tg.run(st) {
			return true
		}
	}
	return false
}

// spillCand is a trySpill candidate: value id and its def-to-first-use gap.
type spillCand struct {
	id  int
	gap int
}

// trySpill inserts spill code for the value in cluster c whose
// definition-to-first-use gap is largest: the register is freed between the
// store and the reload (§3.3.2: "register pressure can be reduced by
// inserting spill code", at the cost of memory ports).
func (st *state) trySpill(c int) bool {
	m := st.m
	latS, latL := m.OpLatency(isa.Store), m.OpLatency(isa.Load)
	// Candidates: unspilled values home in c with a local use and a gap
	// wide enough that freeing [store+1, load+latLoad) pays for the two
	// memory operations.
	cands := st.cands[:0]
	for id, val := range st.vals {
		if val == nil || val.home != c || val.spill != nil || val.mem != nil {
			continue
		}
		first := val.minUse[c]
		if first == noUse {
			continue
		}
		gap := first - val.def
		if gap >= latS+latL+2 {
			cands = append(cands, spillCand{id, gap})
		}
	}
	st.cands = cands
	slices.SortFunc(cands, func(a, b spillCand) int {
		if a.gap != b.gap {
			return cmp.Compare(b.gap, a.gap)
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, cd := range cands {
		val := st.vals[cd.id]
		first := val.minUse[c]
		// Earliest free store slot after def; latest free load slot that
		// still feeds the first use.
		store, ok := st.findMemSlot(c, val.def, first-latL-latS, +1)
		if !ok {
			continue
		}
		// Existing transfers must depart while the value is still
		// register-resident, i.e. before the spill store frees the register.
		if val.comm != nil {
			late := false
			if val.comm.dests == nil {
				late = val.comm.start > store
			} else {
				for _, s := range val.comm.dests {
					if s != absent && s > store {
						late = true
					}
				}
			}
			if late {
				continue
			}
		}
		// Reserve the store before searching the load so both cannot claim
		// the last unit of a shared modulo slot.
		st.rt.PlaceOp(c, isa.MemUnit, store)
		load, ok := st.findMemSlot(c, first-latL, store+latS, -1)
		if !ok || load < store+latS || load+latL-store <= latS+latL {
			st.rt.RemoveOp(c, isa.MemUnit, store)
			continue
		}
		st.rt.PlaceOp(c, isa.MemUnit, load)
		st.removeValueSpans(val)
		val.spill = val.newSpill(store, load)
		st.addValueSpans(val)
		st.nMemOps[0]++
		st.nMemOps[1]++
		return true
	}
	return false
}

// tryUnspill removes spill code in cluster c (freeing its memory ports)
// when the register file can absorb the restored lifetime.
func (st *state) tryUnspill(c int) bool {
	for _, val := range st.vals {
		if val == nil || val.home != c || val.spill == nil {
			continue
		}
		sp := val.spill
		st.removeValueSpans(val)
		val.spill = nil
		st.addValueSpans(val)
		if st.maxLive(c) > st.m.RegsIn(c) {
			st.removeValueSpans(val)
			val.spill = sp
			st.addValueSpans(val)
			continue
		}
		st.rt.RemoveOp(c, isa.MemUnit, sp.store)
		st.rt.RemoveOp(c, isa.MemUnit, sp.load)
		st.nMemOps[0]--
		st.nMemOps[1]--
		return true
	}
	return false
}

// tryBusToMem reroutes one bus-communicated value through memory, freeing
// LatBus bus slots at the cost of a store and one load per destination
// cluster.
func (st *state) tryBusToMem() bool {
	m := st.m
	latS, latL := m.OpLatency(isa.Store), m.OpLatency(isa.Load)
	for _, val := range st.vals {
		if val == nil || val.comm == nil || val.spill != nil {
			continue
		}
		// Destination clusters and their earliest deadlines.
		dests := fillAbsent(st.deadline)
		n, feasible := 0, true
		for c, first := range val.minUse {
			if c == val.home || first == noUse {
				continue
			}
			dests[c] = first
			n++
			if first-latL < val.def+latS {
				feasible = false
			}
		}
		if n == 0 || !feasible {
			continue
		}
		// Store as early as possible, loads as late as their deadline allows.
		minFirst := 1 << 30
		for _, f := range dests {
			if f != absent && f < minFirst {
				minFirst = f
			}
		}
		store, ok := st.findMemSlot(val.home, val.def, minFirst-latL-latS, +1)
		if !ok {
			continue
		}
		// The memory route is built in val's own storage; it takes effect
		// only once val.mem points at it.
		mem := val.newMem(store)
		for c, first := range dests {
			if first == absent {
				continue
			}
			l, found := st.findMemSlot(c, first-latL, store+latS, -1)
			if !found || l < store+latS {
				ok = false
				break
			}
			mem.loads[c] = l
		}
		if !ok {
			continue
		}
		// Apply, then verify register pressure (arrival times change);
		// revert on overflow.
		oldComm := val.comm
		st.rt.PlaceOp(val.home, isa.MemUnit, store)
		for c, l := range mem.loads {
			if l != absent {
				st.rt.PlaceOp(c, isa.MemUnit, l)
			}
		}
		st.removeValueSpans(val)
		val.comm, val.mem = nil, mem
		st.addValueSpans(val)
		if !st.regsOK() {
			st.removeValueSpans(val)
			val.comm, val.mem = oldComm, nil
			st.addValueSpans(val)
			st.rt.RemoveOp(val.home, isa.MemUnit, store)
			for c, l := range mem.loads {
				if l != absent {
					st.rt.RemoveOp(c, isa.MemUnit, l)
				}
			}
			continue
		}
		st.removeXfersOf(val.home, oldComm)
		st.nMemOps[0]++
		st.nMemOps[1] += n
		return true
	}
	return false
}

// tryMemToBus reroutes a memory-routed value that touches cluster c back
// over the bus, freeing memory ports (§3.3.2: "memory pressure can be
// reduced … by inserting copy operations that use the interconnection
// network").
func (st *state) tryMemToBus(c int) bool {
	for _, val := range st.vals {
		if val == nil || val.mem == nil {
			continue
		}
		if val.mem.loads[c] == absent && val.home != c {
			continue
		}
		// The single transfer must meet every destination's deadline.
		minFirst := 1 << 30
		for cc, f := range val.minUse {
			if cc == val.home || f == noUse {
				continue
			}
			if f < minFirst {
				minFirst = f
			}
		}
		if minFirst == 1<<30 {
			continue
		}
		newComm, ok := st.placeXfersFor(val, minFirst)
		if !ok {
			continue
		}
		oldMem := val.mem
		st.removeValueSpans(val)
		val.mem, val.comm = nil, newComm
		st.addValueSpans(val)
		if !st.regsOK() {
			st.removeValueSpans(val)
			val.comm, val.mem = nil, oldMem
			st.addValueSpans(val)
			st.removeXfersOf(val.home, newComm)
			continue
		}
		st.rt.RemoveOp(val.home, isa.MemUnit, oldMem.store)
		for cc, l := range oldMem.loads {
			if l != absent {
				st.rt.RemoveOp(cc, isa.MemUnit, l)
			}
		}
		st.nMemOps[0]--
		st.nMemOps[1] -= present(oldMem.loads)
		return true
	}
	return false
}

// findMemSlot scans for a free memory-port cycle in cluster c from `from`
// toward `to` in the given direction (+1/-1), inclusive, bounded to one II
// window of distinct slots.
func (st *state) findMemSlot(c, from, to, dir int) (int, bool) {
	n := 0
	for t := from; n < st.ii; t += dir {
		if dir > 0 && t > to || dir < 0 && t < to {
			break
		}
		if st.rt.CanPlaceOp(c, isa.MemUnit, t) {
			return t, true
		}
		n++
	}
	return 0, false
}

// placeXfersFor reserves the interconnect transfers that route val to every
// cluster where it has scheduled uses: one shared-bus broadcast meeting the
// tightest deadline (minFirst), or one point-to-point transfer per
// destination meeting that destination's own deadline. The routing is
// built in val's own storage, so val must not be bus-routed. On failure
// nothing stays reserved.
func (st *state) placeXfersFor(val *value, minFirst int) (*comm, bool) {
	m := st.m
	if st.p2p() {
		cm := val.newComm(true, 0)
		for c, first := range val.minUse {
			if c == val.home || first == noUse {
				continue
			}
			start := -1
			for s := val.def; s+m.LatBus <= first && s < val.def+st.ii; s++ {
				if st.rt.CanPlaceXfer(val.home, c, s) {
					start = s
					break
				}
			}
			if start < 0 {
				st.removeXfersOf(val.home, cm)
				return nil, false
			}
			st.rt.PlaceXfer(val.home, c, start)
			cm.dests[c] = start
		}
		if present(cm.dests) == 0 {
			return nil, false
		}
		return cm, true
	}
	for s := val.def; s+m.LatBus <= minFirst && s < val.def+st.ii; s++ {
		if st.rt.CanPlaceXfer(val.home, -1, s) {
			st.rt.PlaceXfer(val.home, -1, s)
			return val.newComm(false, s), true
		}
	}
	return nil, false
}

// removeXfersOf releases every interconnect reservation of cm (nil-safe).
func (st *state) removeXfersOf(home int, cm *comm) {
	if cm == nil {
		return
	}
	if cm.dests == nil {
		st.rt.RemoveXfer(home, -1, cm.start)
		return
	}
	for c, s := range cm.dests {
		if s != absent {
			st.rt.RemoveXfer(home, c, s)
		}
	}
}
