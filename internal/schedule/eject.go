package schedule

import (
	"slices"

	"repro/internal/ddg"
	"repro/internal/isa"
)

// Ejection: a node whose scheduled predecessors and successors pin an empty
// placement window would fail at every II (zero-distance windows do not
// grow with II). Like Rau's iterative modulo scheduling, the scheduler then
// unschedules the binding neighbors and retries; ejected nodes re-enter the
// work list. A budget bounds total ejections per II attempt.

// ejectVictims returns the scheduled neighbors to evict so that node v
// regains a one-sided window: its scheduled successors when both sides are
// pinned (the predecessors placed first usually carry more context), or
// nil when ejection cannot help. The slice is scratch, valid until the
// next call.
func (st *state) ejectVictims(v int) []int {
	succs := st.victims[:0]
	hasPred := false
	for _, ei := range st.g.In(v) {
		if e := st.g.Edges[ei]; e.From != v && st.sched[e.From] {
			hasPred = true
			break
		}
	}
	for _, ei := range st.g.Out(v) {
		if e := st.g.Edges[ei]; e.To != v && st.sched[e.To] && !slices.Contains(succs, e.To) {
			succs = append(succs, e.To)
		}
	}
	st.victims = succs
	if hasPred && len(succs) > 0 {
		return succs
	}
	return nil
}

// unschedule removes node v from the schedule, releasing its functional
// unit, its value's registers and routing resources, and shrinking the
// lifetimes of the values it consumed.
func (st *state) unschedule(v int) {
	node := st.g.Nodes[v]
	st.rt.RemoveOp(st.cluster[v], node.Op.Unit(), st.time[v])
	if val := st.vals[v]; val != nil {
		st.removeValueSpans(val)
		if val.comm != nil {
			st.removeXfersOf(val.home, val.comm)
		}
		if val.mem != nil {
			st.rt.RemoveOp(val.home, isa.MemUnit, val.mem.store)
			st.nMemOps[0]--
			for c, l := range val.mem.loads {
				if l != absent {
					st.rt.RemoveOp(c, isa.MemUnit, l)
					st.nMemOps[1]--
				}
			}
		}
		if val.spill != nil {
			st.rt.RemoveOp(val.home, isa.MemUnit, val.spill.store)
			st.rt.RemoveOp(val.home, isa.MemUnit, val.spill.load)
			st.nMemOps[0]--
			st.nMemOps[1]--
		}
		st.vals[v] = nil
	}
	st.time[v], st.cluster[v] = -1, -1
	st.sched[v] = false

	// The values v consumed may shrink (and shed now-unused routing).
	consumed := st.consumed[:0]
	for _, ei := range st.g.In(v) {
		e := st.g.Edges[ei]
		if e.Kind != ddg.Data || e.From == v || !st.sched[e.From] || slices.Contains(consumed, e.From) {
			continue
		}
		consumed = append(consumed, e.From)
		st.rebuildUses(e.From)
	}
	st.consumed = consumed
}

// rebuildUses recomputes the use records of the value produced by u from
// the currently scheduled consumers and prunes routing (bus transfer,
// memory loads) that no longer serves anyone.
func (st *state) rebuildUses(u int) {
	val := st.vals[u]
	if val == nil {
		return
	}
	st.removeValueSpans(val)
	for c := range val.minUse {
		val.minUse[c], val.maxUse[c] = noUse, noUse
	}
	for _, ei := range st.g.Out(u) {
		e := st.g.Edges[ei]
		if e.Kind != ddg.Data || !st.sched[e.To] {
			continue
		}
		c := st.cluster[e.To]
		use := st.time[e.To] + st.ii*e.Dist
		if cur := val.minUse[c]; cur == noUse || use < cur {
			val.minUse[c] = use
		}
		if cur := val.maxUse[c]; cur == noUse || use > cur {
			val.maxUse[c] = use
		}
	}
	if val.mem != nil {
		for c, l := range val.mem.loads {
			if l != absent && val.minUse[c] == noUse {
				st.rt.RemoveOp(c, isa.MemUnit, l)
				st.nMemOps[1]--
				val.mem.loads[c] = absent
			}
		}
		if present(val.mem.loads) == 0 {
			st.rt.RemoveOp(val.home, isa.MemUnit, val.mem.store)
			st.nMemOps[0]--
			val.mem = nil
		}
	}
	if val.comm != nil {
		if val.comm.dests != nil {
			// Point-to-point: drop the transfers of destinations that
			// lost their last consumer.
			for c, s := range val.comm.dests {
				if s != absent && val.minUse[c] == noUse {
					st.rt.RemoveXfer(val.home, c, s)
					val.comm.dests[c] = absent
				}
			}
			if present(val.comm.dests) == 0 {
				val.comm = nil
			}
		} else {
			cross := false
			for c, first := range val.minUse {
				if c != val.home && first != noUse {
					cross = true
					break
				}
			}
			if !cross {
				st.rt.RemoveXfer(val.home, -1, val.comm.start)
				val.comm = nil
			}
		}
	}
	st.addValueSpans(val)
}
