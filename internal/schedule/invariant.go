package schedule

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/regpress"
)

// debugChecks enables per-placement invariant checking inside TrySchedule.
// Tests flip it on; it is far too expensive for production use.
var debugChecks = false

// checkInvariants validates the partial schedule: every dependence between
// two scheduled nodes must hold under the value's actual routing, every
// value's recorded use bounds must match the scheduled consumers, and the
// incrementally kept pressure windows, MaxLive caches and free-slot totals
// must match a recount.
func (st *state) checkInvariants() error {
	g, m, ii := st.g, st.m, st.ii
	for i, e := range g.Edges {
		if !st.sched[e.From] || !st.sched[e.To] || e.From == e.To {
			continue
		}
		tf, tt := st.time[e.From], st.time[e.To]
		need := tt + ii*e.Dist
		if tf+e.Lat > need {
			return fmt.Errorf("edge %d (%d→%d lat %d dist %d): %d+%d > %d", i, e.From, e.To, e.Lat, e.Dist, tf, e.Lat, need)
		}
		if e.Kind != ddg.Data {
			continue
		}
		val := st.vals[e.From]
		if val == nil {
			return fmt.Errorf("edge %d: producer %d scheduled but has no value", i, e.From)
		}
		c := st.cluster[e.To]
		arr, ok := val.arrival(c, m)
		if !ok {
			return fmt.Errorf("edge %d: value of %d not routed to cluster %d", i, e.From, c)
		}
		if arr > need {
			return fmt.Errorf("edge %d: value of %d arrives in cluster %d at %d after use %d", i, e.From, c, arr, need)
		}
		if mu := val.maxUse[c]; mu < need {
			return fmt.Errorf("edge %d: use %d in cluster %d not recorded (maxUse=%v)", i, e.From, c, val.maxUse)
		}
	}
	// The incremental state: each cluster's pressure window against a
	// recount from every value's spans, its cached MaxLive against its
	// window, and the reservation table's running totals against its slots.
	var spans []regpress.Span
	for c := 0; c < m.Clusters; c++ {
		if err := st.press[c].Check(); err != nil {
			return fmt.Errorf("cluster %d: %v", c, err)
		}
		ref := regpress.New(ii)
		for _, val := range st.vals {
			if val != nil {
				spans = val.appendSpans(spans[:0], c, m)
				for _, sp := range spans {
					ref.Add(sp.Start, sp.End)
				}
			}
		}
		for s := 0; s < ii; s++ {
			if got, want := st.press[c].Slot(s), ref.Slot(s); got != want {
				return fmt.Errorf("cluster %d slot %d: %d live, the values' spans give %d", c, s, got, want)
			}
		}
		if st.maxLive(c) > m.RegsIn(c) {
			return fmt.Errorf("cluster %d MaxLive %d > %d", c, st.maxLive(c), m.RegsIn(c))
		}
	}
	if err := st.rt.CheckTotals(); err != nil {
		return err
	}
	// Spill/memory ops must sit on valid cycles.
	for id, val := range st.vals {
		if val == nil {
			continue
		}
		if val.spill != nil {
			if val.spill.store < val.def || val.spill.load < val.spill.store+m.OpLatency(isa.Store) {
				return fmt.Errorf("value %d: inconsistent spill %+v (def %d)", id, *val.spill, val.def)
			}
		}
		if val.mem != nil && val.mem.store < val.def {
			return fmt.Errorf("value %d: memory store at %d before def %d", id, val.mem.store, val.def)
		}
	}
	return nil
}
