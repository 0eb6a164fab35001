// Package mrt implements the modulo reservation table used by the modulo
// scheduler: per-cluster functional-unit slots (heterogeneous unit mixes
// supported), per-cluster memory-port slots (the memory units) and the
// inter-cluster transfer channels.
//
// A resource used at absolute cycle t occupies slot t mod II in every
// iteration of the steady state. The interconnect is either the paper's
// shared broadcast bus (§3.1) or per-cluster-pair point-to-point links;
// a non-pipelined transfer occupies its channel for LatBus consecutive
// modulo slots, a pipelined one for a single slot.
package mrt

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
)

// Table is a modulo reservation table for one machine at one II.
type Table struct {
	II int

	m *machine.Config
	// fu[c][k*II + s] counts operations of unit kind k issued by cluster c
	// at modulo slot s.
	fu [][]int
	// xfer[ch][s] counts transfer occupancy of channel ch at modulo slot s.
	// SharedBus machines have one channel; PointToPoint machines have one
	// per ordered cluster pair.
	xfer [][]int
	// occ is the number of consecutive slots one transfer occupies.
	occ int
	// fuUsed[c·NumUnitKinds + k] and xferUsed are the running sums of
	// fu[c]'s kind-k slots and of every channel's slots, so the free-slot
	// counts read a total instead of scanning the window.
	fuUsed   []int
	xferUsed int
}

// New returns an empty reservation table for machine m at initiation
// interval ii ≥ 1.
func New(m *machine.Config, ii int) *Table {
	t := &Table{}
	t.Reset(m, ii)
	return t
}

// Reset empties the table and re-arms it for machine m at initiation
// interval ii ≥ 1, reusing its buffers where their capacity suffices.
func (t *Table) Reset(m *machine.Config, ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("mrt: II %d < 1", ii))
	}
	t.II, t.m, t.occ = ii, m, m.XferOccupancy()
	t.fu = resetRows(t.fu, m.Clusters, isa.NumUnitKinds*ii)
	t.xfer = resetRows(t.xfer, m.Channels(), ii)
	if n := m.Clusters * isa.NumUnitKinds; cap(t.fuUsed) < n {
		t.fuUsed = make([]int, n)
	} else {
		t.fuUsed = t.fuUsed[:n]
		clear(t.fuUsed)
	}
	t.xferUsed = 0
}

// resetRows returns rows zeroed and shaped n × width, reusing storage.
func resetRows(rows [][]int, n, width int) [][]int {
	if cap(rows) < n {
		rows = append(rows[:cap(rows)], make([][]int, n-cap(rows))...)
	}
	rows = rows[:n]
	for i, r := range rows {
		if cap(r) < width {
			r = make([]int, width)
		}
		rows[i] = r[:width]
		clear(rows[i])
	}
	return rows
}

func (t *Table) slot(cycle int) int {
	s := cycle % t.II
	if s < 0 {
		s += t.II
	}
	return s
}

// CanPlaceOp reports whether a unit of kind k is free in cluster c at the
// given absolute cycle.
func (t *Table) CanPlaceOp(c int, k isa.UnitKind, cycle int) bool {
	return t.fu[c][int(k)*t.II+t.slot(cycle)] < t.m.UnitsIn(c, k)
}

// PlaceOp reserves a unit of kind k in cluster c at the given cycle. It
// panics when the slot is full: callers must check CanPlaceOp first.
func (t *Table) PlaceOp(c int, k isa.UnitKind, cycle int) {
	i := int(k)*t.II + t.slot(cycle)
	if t.fu[c][i] >= t.m.UnitsIn(c, k) {
		panic(fmt.Sprintf("mrt: overfull %v slot, cluster %d cycle %d", k, c, cycle))
	}
	t.fu[c][i]++
	t.fuUsed[c*isa.NumUnitKinds+int(k)]++
}

// RemoveOp releases a previously placed reservation.
func (t *Table) RemoveOp(c int, k isa.UnitKind, cycle int) {
	i := int(k)*t.II + t.slot(cycle)
	if t.fu[c][i] <= 0 {
		panic(fmt.Sprintf("mrt: removing free %v slot, cluster %d cycle %d", k, c, cycle))
	}
	t.fu[c][i]--
	t.fuUsed[c*isa.NumUnitKinds+int(k)]--
}

// Channel returns the transfer-channel index for a src→dst transfer: 0 for
// the shared-bus pool, the ordered-pair index for point-to-point links.
// It returns -1 when the machine has no interconnect.
func (t *Table) Channel(src, dst int) int {
	if len(t.xfer) == 0 {
		return -1
	}
	if t.m.Topology == machine.PointToPoint {
		ch := src*(t.m.Clusters-1) + dst
		if dst > src {
			ch--
		}
		return ch
	}
	return 0
}

// ChannelAt returns the occupancy of channel ch at modulo slot s. It is
// used by the scheduler's tentative-placement deltas.
func (t *Table) ChannelAt(ch, s int) int { return t.xfer[ch][t.slot(s)] }

// CanPlaceXfer reports whether one src→dst transfer channel is free for the
// transfer's occupancy window starting at the given cycle.
func (t *Table) CanPlaceXfer(src, dst, start int) bool {
	ch := t.Channel(src, dst)
	if ch < 0 || t.m.NBus == 0 {
		return false
	}
	if t.occ >= t.II && !t.m.Pipelined {
		// A non-pipelined transfer longer than the II would collide with
		// itself in the next iteration.
		return false
	}
	for d := 0; d < t.occ; d++ {
		if t.xfer[ch][t.slot(start+d)] >= t.m.NBus {
			return false
		}
	}
	return true
}

// PlaceXfer reserves a src→dst transfer starting at start. Callers must
// check CanPlaceXfer first.
func (t *Table) PlaceXfer(src, dst, start int) {
	if !t.CanPlaceXfer(src, dst, start) {
		panic(fmt.Sprintf("mrt: overfull transfer channel %d→%d at cycle %d", src, dst, start))
	}
	ch := t.Channel(src, dst)
	for d := 0; d < t.occ; d++ {
		t.xfer[ch][t.slot(start+d)]++
	}
	t.xferUsed += t.occ
}

// RemoveXfer releases a transfer reservation made at start.
func (t *Table) RemoveXfer(src, dst, start int) {
	ch := t.Channel(src, dst)
	for d := 0; d < t.occ; d++ {
		s := t.slot(start + d)
		if t.xfer[ch][s] <= 0 {
			panic(fmt.Sprintf("mrt: removing free transfer slot %d, channel %d→%d", s, src, dst))
		}
		t.xfer[ch][s]--
	}
	t.xferUsed -= t.occ
}

// MemAt returns the memory-port occupancy of cluster c at modulo slot s.
func (t *Table) MemAt(c, s int) int {
	return t.fu[c][int(isa.MemUnit)*t.II+t.slot(s)]
}

// FreeOpSlots returns the number of free slots of kind k in cluster c
// across one II window.
func (t *Table) FreeOpSlots(c int, k isa.UnitKind) int {
	return t.m.UnitsIn(c, k)*t.II - t.fuUsed[c*isa.NumUnitKinds+int(k)]
}

// FreeXferSlots returns the number of free transfer slot-cycles across one
// II window, summed over every channel.
func (t *Table) FreeXferSlots() int {
	return t.m.NBus*t.II*len(t.xfer) - t.xferUsed
}

// CheckTotals recounts the running totals behind FreeOpSlots and
// FreeXferSlots from the slot counts and reports the first mismatch. It is
// a consistency check for tests and debug builds, not for the hot path.
func (t *Table) CheckTotals() error {
	for c, row := range t.fu {
		for k := 0; k < isa.NumUnitKinds; k++ {
			n := 0
			for _, x := range row[k*t.II : (k+1)*t.II] {
				n += x
			}
			if got := t.fuUsed[c*isa.NumUnitKinds+k]; got != n {
				return fmt.Errorf("mrt: cluster %d %v total %d, slots sum to %d", c, isa.UnitKind(k), got, n)
			}
		}
	}
	n := 0
	for _, row := range t.xfer {
		for _, x := range row {
			n += x
		}
	}
	if t.xferUsed != n {
		return fmt.Errorf("mrt: transfer total %d, slots sum to %d", t.xferUsed, n)
	}
	return nil
}

// XferUtilization returns used/total transfer slot-cycles, or 0 when the
// machine has no interconnect.
func (t *Table) XferUtilization() float64 {
	total := t.m.NBus * t.II * len(t.xfer)
	if total == 0 {
		return 0
	}
	return float64(total-t.FreeXferSlots()) / float64(total)
}

// MemUtilization returns used/total memory slots in cluster c.
func (t *Table) MemUtilization(c int) float64 {
	total := t.m.UnitsIn(c, isa.MemUnit) * t.II
	if total == 0 {
		return 0
	}
	return float64(total-t.FreeOpSlots(c, isa.MemUnit)) / float64(total)
}
