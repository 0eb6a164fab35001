package schedule

import "slices"

// The transform loop's cycle cut. While TrySchedule's transform loop runs
// for a node v, the loop is a deterministic walk over routing states:
//
//   - a failed placement probe mutates nothing, and checkRegs' visit order
//     changes neither its verdict nor its added lifetime units;
//   - transform(reason) reads only the routing and the reason;
//   - the MRT and the register-pressure trackers hold slot counts, so they
//     are functions of the routing, since the placed nodes and their uses
//     do not change inside the loop.
//
// So the failure reason of a state is a function of its routing, and once a
// routing state repeats, the walk repeats it with some period λ forever and
// never places v. Brent's cycle algorithm (R. P. Brent, BIT 20, 1980) finds
// such a repeat from exact snapshots of the routing; the loop then replays
// (budget − transforms) mod λ steps of the recorded cycle and charges the
// whole budget. The final routing, the failure reason, any ejection retry
// and the budget left to later nodes all equal the uncut loop's.

// transformCut enables the cycle cut. Tests turn it off to run the uncut
// loop as the reference the cut must match.
var transformCut = true

// cycleState is the cycle detector of one transform loop. It lives in the
// pooled attempt state, so detection allocates nothing once warm.
type cycleState struct {
	// snap is the routing snapshot of the saved state, lam transforms
	// back; cur is the scratch the current state is written into.
	snap, cur []int
	// reasons[i] is the failure reason of the loop's i-th state, the
	// first being the state the loop began in.
	reasons    []FailReason
	power, lam int
}

// begin starts a transform loop in the current state, whose placement
// failed with reason fail.
func (cy *cycleState) begin(st *state, fail FailReason) {
	cy.reasons = append(cy.reasons[:0], fail)
	cy.snap = st.appendRouting(cy.snap[:0])
	cy.power, cy.lam = 1, 0
}

// step records the state one transform further on, whose placement failed
// with reason fail. It returns the walk's period when this state repeats
// the saved one, and 0 otherwise.
func (cy *cycleState) step(st *state, fail FailReason) int {
	cy.reasons = append(cy.reasons, fail)
	cy.lam++
	cy.cur = st.appendRouting(cy.cur[:0])
	if slices.Equal(cy.cur, cy.snap) {
		return cy.lam
	}
	if cy.lam == cy.power {
		// Brent: save the state at each power of two and restart the
		// count, so the repeat is found within O(μ + λ) steps, μ being
		// the steps before the cycle.
		cy.snap, cy.cur = cy.cur, cy.snap
		cy.power *= 2
		cy.lam = 0
	}
	return 0
}

// skipRound advances the walk, whose current state repeats the one lam
// transforms back, by n transforms: the first n mod lam steps of the cycle,
// replayed from the recorded reasons. It returns the failure reason of the
// state the walk ends in.
func (st *state) skipRound(lam, n int) FailReason {
	cy := &st.cycle
	at := len(cy.reasons) - 1 - lam // the earlier visit of the current state
	for range n % lam {
		if !st.transform(cy.reasons[at]) {
			panic("schedule: a transformation of a repeating transform loop did not apply")
		}
		at++
	}
	return cy.reasons[at]
}

// Tags of a value's record in a routing snapshot, one bit per routing part
// the value has; the record lists each present part's cycles in this order.
const (
	snapBus   = 1 << iota // shared-bus broadcast: its start
	snapLinks             // point-to-point transfers: the dests
	snapMem               // memory route: the store, then the loads
	snapSpill             // spill code: the store and the load
)

// appendRouting appends the routing state of every committed value to dst:
// per value in node order, a tag and then the cycles of its transfers,
// memory route and spill code. Two states of one transform loop, which
// share their committed values, have equal snapshots exactly when their
// routing is equal.
func (st *state) appendRouting(dst []int) []int {
	for _, val := range st.vals {
		if val == nil {
			continue
		}
		at, tag := len(dst), 0
		dst = append(dst, 0) // the tag, once known
		if cm := val.comm; cm != nil && cm.dests != nil {
			tag |= snapLinks
			dst = append(dst, cm.dests...)
		} else if cm != nil {
			tag |= snapBus
			dst = append(dst, cm.start)
		}
		if val.mem != nil {
			tag |= snapMem
			dst = append(append(dst, val.mem.store), val.mem.loads...)
		}
		if val.spill != nil {
			tag |= snapSpill
			dst = append(dst, val.spill.store, val.spill.load)
		}
		dst[at] = tag
	}
	return dst
}
