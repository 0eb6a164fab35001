package schedule

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/regpress"
)

// Verify validates a complete schedule against the dependence graph and the
// machine, independently of the scheduler that produced it:
//
//   - every dependence holds under the value's actual routing (same-cluster
//     read, bus broadcast or point-to-point transfer arrival, memory-route
//     load arrival, spill reload);
//   - per-cluster functional-unit and memory-port occupancy fits the
//     (possibly heterogeneous) unit mix, including transformation-inserted
//     loads and stores;
//   - interconnect occupancy fits the buses or links, honoring the
//     pipelined/non-pipelined transfer occupancy;
//   - reconstructed per-cluster register pressure fits each register file
//     and matches the schedule's recorded MaxLive.
//
// It accepts both modulo schedules and the list-scheduling fallback
// (s.List), whose weaker contract — back-to-back iterations, implicit
// transfers — is checked instead. Tests use Verify as a differential oracle
// over every scheme × machine × loop.
func Verify(g *ddg.Graph, m *machine.Config, s *Schedule) error {
	if s == nil {
		return fmt.Errorf("schedule: Verify: nil schedule")
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("schedule: Verify: %w", err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("schedule: Verify: %w", err)
	}
	n := g.N()
	if len(s.Time) != n || len(s.Cluster) != n {
		return fmt.Errorf("schedule: Verify: %d nodes but %d times / %d clusters", n, len(s.Time), len(s.Cluster))
	}
	if s.II < 1 {
		return fmt.Errorf("schedule: Verify: II %d < 1", s.II)
	}
	if len(s.MaxLive) != m.Clusters {
		return fmt.Errorf("schedule: Verify: %d MaxLive entries for %d clusters", len(s.MaxLive), m.Clusters)
	}
	for v := 0; v < n; v++ {
		c := s.Cluster[v]
		if c < 0 || c >= m.Clusters {
			return fmt.Errorf("schedule: Verify: node %d in cluster %d of %d", v, c, m.Clusters)
		}
		op := g.Nodes[v].Op
		if m.UnitsIn(c, op.Unit()) == 0 {
			return fmt.Errorf("schedule: Verify: node %d (%s) in cluster %d with no %s units", v, op, c, op.Unit())
		}
		if end := s.Time[v] + m.OpLatency(op); end > s.SL {
			return fmt.Errorf("schedule: Verify: node %d completes at %d past SL %d", v, end, s.SL)
		}
	}
	if s.List {
		// The list fallback performs no register allocation (the paper's
		// escape hatch for loops where modulo scheduling is inappropriate,
		// §4.1), so its MaxLive is a report, not a guarantee: it is checked
		// for honesty in verifyList but not against the register file.
		return verifyList(g, m, s)
	}
	for c := 0; c < m.Clusters; c++ {
		if s.MaxLive[c] > m.RegsIn(c) {
			return fmt.Errorf("schedule: Verify: cluster %d MaxLive %d exceeds %d registers", c, s.MaxLive[c], m.RegsIn(c))
		}
	}

	vals, err := reconstructValues(g, m, s)
	if err != nil {
		return err
	}

	// Resource occupancy, replayed through a fresh reservation table so the
	// capacity rules (per-cluster unit mixes, channel occupancy windows,
	// self-collision) are exactly the scheduler's.
	rt := mrt.New(m, s.II)
	for v := 0; v < n; v++ {
		k := g.Nodes[v].Op.Unit()
		if !rt.CanPlaceOp(s.Cluster[v], k, s.Time[v]) {
			return fmt.Errorf("schedule: Verify: %s units of cluster %d overfull at slot %d", k, s.Cluster[v], s.Time[v]%s.II)
		}
		rt.PlaceOp(s.Cluster[v], k, s.Time[v])
	}
	for _, mo := range s.MemOps {
		if mo.Cluster < 0 || mo.Cluster >= m.Clusters {
			return fmt.Errorf("schedule: Verify: mem op of node %d in cluster %d", mo.Producer, mo.Cluster)
		}
		if !rt.CanPlaceOp(mo.Cluster, isa.MemUnit, mo.Cycle) {
			return fmt.Errorf("schedule: Verify: memory ports of cluster %d overfull at slot %d", mo.Cluster, mo.Cycle%s.II)
		}
		rt.PlaceOp(mo.Cluster, isa.MemUnit, mo.Cycle)
	}
	for _, cm := range s.Comms {
		src := s.Cluster[cm.Producer]
		if !rt.CanPlaceXfer(src, cm.Dest, cm.Start) {
			return fmt.Errorf("schedule: Verify: interconnect overfull for transfer of node %d at cycle %d", cm.Producer, cm.Start)
		}
		rt.PlaceXfer(src, cm.Dest, cm.Start)
	}

	// Dependences under actual routing.
	for i, e := range g.Edges {
		if e.From == e.To {
			if e.Dist > 0 && e.Lat > s.II*e.Dist {
				return fmt.Errorf("schedule: Verify: self recurrence %d violated: lat %d > II·dist %d", i, e.Lat, s.II*e.Dist)
			}
			continue
		}
		need := s.Time[e.To] + s.II*e.Dist
		if s.Time[e.From]+e.Lat > need {
			return fmt.Errorf("schedule: Verify: edge %d (%d→%d lat %d dist %d) violated: t=%d→%d II=%d",
				i, e.From, e.To, e.Lat, e.Dist, s.Time[e.From], s.Time[e.To], s.II)
		}
		if e.Kind != ddg.Data {
			continue
		}
		val := vals[e.From]
		if val == nil {
			return fmt.Errorf("schedule: Verify: edge %d reads node %d, which produces no value", i, e.From)
		}
		c := s.Cluster[e.To]
		arr, ok := val.arrival(c, m)
		if !ok {
			return fmt.Errorf("schedule: Verify: value of node %d not routed to cluster %d (edge %d)", e.From, c, i)
		}
		if arr > need {
			return fmt.Errorf("schedule: Verify: value of node %d arrives in cluster %d at %d after its use at %d (edge %d)",
				e.From, c, arr, need, i)
		}
		if c == val.home && val.spill != nil {
			if reload := val.spill.load + m.OpLatency(isa.Load); need > val.spill.store && need < reload {
				return fmt.Errorf("schedule: Verify: edge %d reads node %d at %d inside its spill dead window (%d, %d)",
					i, e.From, need, val.spill.store, reload)
			}
		}
	}

	// Transfers of spilled values must depart while the value is
	// register-resident: before the spill store or after the reload.
	for id, val := range vals {
		if val == nil || val.spill == nil || val.comm == nil {
			continue
		}
		reload := val.spill.load + m.OpLatency(isa.Load)
		starts := []int{val.comm.start}
		if val.comm.dests != nil {
			starts = starts[:0]
			for _, st := range val.comm.dests {
				if st != absent {
					starts = append(starts, st)
				}
			}
		}
		for _, st := range starts {
			if st > val.spill.store && st < reload {
				return fmt.Errorf("schedule: Verify: transfer of node %d departs at %d inside its spill dead window (%d, %d)",
					id, st, val.spill.store, reload)
			}
		}
	}

	// Register pressure, reconstructed from scratch.
	var spans []regpress.Span
	for c := 0; c < m.Clusters; c++ {
		p := regpress.New(s.II)
		for _, val := range vals {
			if val == nil {
				continue
			}
			spans = val.appendSpans(spans[:0], c, m)
			for _, sp := range spans {
				p.Add(sp.Start, sp.End)
			}
		}
		if ml := p.MaxLive(); ml > m.RegsIn(c) {
			return fmt.Errorf("schedule: Verify: cluster %d reconstructed MaxLive %d exceeds %d registers", c, ml, m.RegsIn(c))
		} else if ml != s.MaxLive[c] {
			return fmt.Errorf("schedule: Verify: cluster %d reconstructed MaxLive %d differs from recorded %d", c, ml, s.MaxLive[c])
		}
	}
	return nil
}

// reconstructValues rebuilds the per-value routing state (home cluster,
// definition cycle, per-cluster use bounds, transfers, memory routes, spill
// code) of a finished modulo schedule from the schedule alone.
func reconstructValues(g *ddg.Graph, m *machine.Config, s *Schedule) ([]*value, error) {
	n := g.N()
	p2p := m.Topology == machine.PointToPoint
	vals := make([]*value, n)
	for v := 0; v < n; v++ {
		if op := g.Nodes[v].Op; op.ProducesValue() {
			vals[v] = new(value)
			vals[v].reset(s.Cluster[v], s.Time[v]+m.OpLatency(op), m.Clusters, make([]int, valueInts*m.Clusters))
		}
	}
	for _, e := range g.Edges {
		if e.Kind != ddg.Data || e.From == e.To {
			continue
		}
		val := vals[e.From]
		if val == nil {
			continue // reported as a dependence error by the caller
		}
		c := s.Cluster[e.To]
		use := s.Time[e.To] + s.II*e.Dist
		if cur := val.minUse[c]; cur == noUse || use < cur {
			val.minUse[c] = use
		}
		if cur := val.maxUse[c]; cur == noUse || use > cur {
			val.maxUse[c] = use
		}
	}
	for _, cm := range s.Comms {
		if cm.Producer < 0 || cm.Producer >= n || vals[cm.Producer] == nil {
			return nil, fmt.Errorf("schedule: Verify: transfer of invalid producer %d", cm.Producer)
		}
		val := vals[cm.Producer]
		if cm.Start < val.def {
			return nil, fmt.Errorf("schedule: Verify: transfer of node %d departs at %d before its value exists at %d",
				cm.Producer, cm.Start, val.def)
		}
		if cm.Dest < 0 {
			if p2p {
				return nil, fmt.Errorf("schedule: Verify: broadcast transfer of node %d on a point-to-point machine", cm.Producer)
			}
			if val.comm != nil {
				return nil, fmt.Errorf("schedule: Verify: duplicate broadcast transfer of node %d", cm.Producer)
			}
			val.comm = val.newComm(false, cm.Start)
			continue
		}
		if !p2p {
			return nil, fmt.Errorf("schedule: Verify: destination-addressed transfer of node %d on a shared-bus machine", cm.Producer)
		}
		if cm.Dest >= m.Clusters || cm.Dest == val.home {
			return nil, fmt.Errorf("schedule: Verify: transfer of node %d to invalid cluster %d", cm.Producer, cm.Dest)
		}
		if val.comm == nil {
			val.comm = val.newComm(true, 0)
		}
		if val.comm.dests[cm.Dest] != absent {
			return nil, fmt.Errorf("schedule: Verify: duplicate transfer of node %d to cluster %d", cm.Producer, cm.Dest)
		}
		val.comm.dests[cm.Dest] = cm.Start
	}
	// Memory operations: one store plus home-cluster load is spill code; one
	// store plus remote loads is a memory route.
	type memGroup struct {
		stores []MemOp
		loads  map[int]int
	}
	groups := map[int]*memGroup{}
	for _, mo := range s.MemOps {
		if mo.Producer < 0 || mo.Producer >= n || vals[mo.Producer] == nil {
			return nil, fmt.Errorf("schedule: Verify: mem op of invalid producer %d", mo.Producer)
		}
		if mo.Cluster < 0 || mo.Cluster >= m.Clusters {
			return nil, fmt.Errorf("schedule: Verify: mem op of node %d in cluster %d", mo.Producer, mo.Cluster)
		}
		grp := groups[mo.Producer]
		if grp == nil {
			grp = &memGroup{loads: map[int]int{}}
			groups[mo.Producer] = grp
		}
		if mo.IsStore {
			grp.stores = append(grp.stores, mo)
		} else {
			if _, dup := grp.loads[mo.Cluster]; dup {
				return nil, fmt.Errorf("schedule: Verify: duplicate reload of node %d in cluster %d", mo.Producer, mo.Cluster)
			}
			grp.loads[mo.Cluster] = mo.Cycle
		}
	}
	latS := m.OpLatency(isa.Store)
	for id, grp := range groups {
		val := vals[id]
		if len(grp.stores) != 1 {
			return nil, fmt.Errorf("schedule: Verify: node %d has %d spill/route stores, want 1", id, len(grp.stores))
		}
		store := grp.stores[0]
		if store.Cluster != val.home {
			return nil, fmt.Errorf("schedule: Verify: store of node %d in cluster %d, home is %d", id, store.Cluster, val.home)
		}
		if store.Cycle < val.def {
			return nil, fmt.Errorf("schedule: Verify: store of node %d at %d before def %d", id, store.Cycle, val.def)
		}
		if len(grp.loads) == 0 {
			return nil, fmt.Errorf("schedule: Verify: store of node %d has no reloads", id)
		}
		_, homeLoad := grp.loads[val.home]
		if homeLoad {
			if len(grp.loads) != 1 {
				return nil, fmt.Errorf("schedule: Verify: node %d mixes spill code and memory routing", id)
			}
			load := grp.loads[val.home]
			if load < store.Cycle+latS {
				return nil, fmt.Errorf("schedule: Verify: spill reload of node %d at %d before store completes at %d",
					id, load, store.Cycle+latS)
			}
			val.spill = val.newSpill(store.Cycle, load)
			continue
		}
		if val.comm != nil {
			return nil, fmt.Errorf("schedule: Verify: node %d has both a transfer and a memory route", id)
		}
		route := val.newMem(store.Cycle)
		for c, l := range grp.loads {
			if c == val.home {
				return nil, fmt.Errorf("schedule: Verify: memory route of node %d reloads in its home cluster", id)
			}
			if l < store.Cycle+latS {
				return nil, fmt.Errorf("schedule: Verify: reload of node %d in cluster %d at %d before store completes at %d",
					id, c, l, store.Cycle+latS)
			}
			route.loads[c] = l
		}
		val.mem = route
	}
	return vals, nil
}

// verifyList checks the weaker contract of the list-scheduling fallback:
// iterations execute back to back (II = SL), no interconnect or memory
// bookkeeping exists, cut data edges pay the transfer latency in their
// ready times, and per-cluster unit usage fits every absolute cycle.
func verifyList(g *ddg.Graph, m *machine.Config, s *Schedule) error {
	if s.II != s.SL {
		return fmt.Errorf("schedule: Verify: list schedule with II %d ≠ SL %d", s.II, s.SL)
	}
	if len(s.Comms) != 0 || len(s.MemOps) != 0 {
		return fmt.Errorf("schedule: Verify: list schedule with explicit transfers or mem ops")
	}
	for i, e := range g.Edges {
		lat := e.Lat
		if e.Kind == ddg.Data && s.Cluster[e.From] != s.Cluster[e.To] {
			lat += m.LatBus
		}
		if e.From == e.To {
			if e.Dist > 0 && lat > s.II*e.Dist {
				return fmt.Errorf("schedule: Verify: list self recurrence %d violated", i)
			}
			continue
		}
		if s.Time[e.From]+lat > s.Time[e.To]+s.II*e.Dist {
			return fmt.Errorf("schedule: Verify: list edge %d (%d→%d lat %d dist %d) violated: t=%d→%d period=%d",
				i, e.From, e.To, e.Lat, e.Dist, s.Time[e.From], s.Time[e.To], s.II)
		}
	}
	type key struct{ c, k, t int }
	usage := map[key]int{}
	for v := range g.Nodes {
		k := key{s.Cluster[v], int(g.Nodes[v].Op.Unit()), s.Time[v]}
		usage[k]++
		if usage[k] > m.UnitsIn(k.c, g.Nodes[v].Op.Unit()) {
			return fmt.Errorf("schedule: Verify: list schedule overfills %s units of cluster %d at cycle %d",
				g.Nodes[v].Op.Unit(), k.c, k.t)
		}
	}
	// Recorded MaxLive must match the pressure the placement actually
	// creates (one iteration, values live def → last same-iteration use).
	// The reconstruction goes through the regpress tracker rather than
	// ListSchedule's own depth-array code; a window of SL+1 slots means no
	// modulo wrap-around, so it counts plain single-iteration lifetimes.
	for c := 0; c < m.Clusters; c++ {
		press := regpress.New(s.SL + 1)
		for u := range g.Nodes {
			last := -1
			for _, ei := range g.Out(u) {
				e := g.Edges[ei]
				if e.Kind != ddg.Data || e.Dist > 0 || e.From == e.To || s.Cluster[e.To] != c {
					continue
				}
				if t := s.Time[e.To]; t > last {
					last = t
				}
			}
			if last < 0 {
				continue
			}
			press.Add(s.Time[u]+m.OpLatency(g.Nodes[u].Op), last+1)
		}
		if ml := press.MaxLive(); ml != s.MaxLive[c] {
			return fmt.Errorf("schedule: Verify: list schedule cluster %d reconstructed MaxLive %d differs from recorded %d",
				c, ml, s.MaxLive[c])
		}
	}
	return nil
}
