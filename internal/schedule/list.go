package schedule

import (
	"slices"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/machine"
)

// ListSchedule produces a non-pipelined schedule of one loop iteration:
// the fallback the paper applies to the few loops whose initiation interval
// escalates past the point where modulo scheduling is worthwhile (§4.1).
// Iterations execute back to back, so the effective II equals the schedule
// length and no value lives across iterations. That length is also where
// core stops the II escalation, so every loop whose first modulo attempt
// fails runs ListSchedule once to find it.
//
// Nodes are placed greedily in ALAP-criticality order at the earliest cycle
// where their dependences (with bus latency on cut data edges) and a
// functional unit are available. Cluster choice follows assign when
// non-nil; otherwise each node goes to the least-loaded feasible cluster.
func ListSchedule(g *ddg.Graph, m *machine.Config, assign []int) *Schedule {
	n := g.N()
	s := &Schedule{
		Time:    make([]int, n),
		Cluster: make([]int, n),
		MaxLive: make([]int, m.Clusters),
		List:    true,
	}
	if n == 0 {
		s.II, s.SL = 1, 1
		return s
	}

	// Criticality order: ALAP under a dependence-only schedule at a large
	// II (loop-carried edges are inactive since iterations do not overlap).
	big := 1
	for _, e := range g.Edges {
		big += e.Lat
	}
	times, ok := g.StartTimes(m, big, nil)
	if !ok {
		big = g.RecMII(nil)
		times, _ = g.StartTimes(m, big, nil)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if times.Latest[a] != times.Latest[b] {
			return times.Latest[a] - times.Latest[b]
		}
		return a - b
	})

	// Resource tables indexed by absolute cycle. Each cluster's table
	// starts as long as the dependence-only schedule, carved out of one
	// allocation, and grows on demand past that.
	type row [isa.NumUnitKinds]int32
	span := max(times.SL, 1)
	rows := make([]row, m.Clusters*span)
	usage := make([][]row, m.Clusters) // [cluster][cycle]
	for c := range usage {
		usage[c] = rows[c*span : (c+1)*span : (c+1)*span]
	}
	free := func(c, k, cyc int) bool {
		if cyc >= len(usage[c]) {
			return true
		}
		return int(usage[c][cyc][k]) < m.UnitsIn(c, isa.UnitKind(k))
	}
	take := func(c, k, cyc int) {
		for cyc >= len(usage[c]) {
			usage[c] = append(usage[c], row{})
		}
		usage[c][cyc][k]++
	}
	load := make([]int, m.Clusters)

	for i := range s.Time {
		s.Time[i], s.Cluster[i] = -1, -1
	}
	candidates := make([]int, 0, m.Clusters)
	for _, v := range order {
		op := g.Nodes[v].Op
		kind := int(op.Unit())
		bestC, bestT := -1, 0
		candidates = candidates[:0]
		if assign != nil && m.UnitsIn(assign[v], op.Unit()) > 0 {
			candidates = append(candidates, assign[v])
		} else {
			// No assignment — or the assigned cluster cannot execute this
			// operation kind (possible on heterogeneous machines): consider
			// every cluster that can.
			for c := 0; c < m.Clusters; c++ {
				if m.UnitsIn(c, op.Unit()) > 0 {
					candidates = append(candidates, c)
				}
			}
			if len(candidates) == 0 {
				panic("schedule: no cluster can execute " + op.String())
			}
		}
		for _, c := range candidates {
			// Dependence-ready cycle in this cluster.
			ready := 0
			for _, ei := range g.In(v) {
				e := g.Edges[ei]
				if e.Dist > 0 || s.Time[e.From] < 0 {
					continue // loop-carried: satisfied across iterations
				}
				t := s.Time[e.From] + e.Lat
				if e.Kind == ddg.Data && s.Cluster[e.From] != c {
					t += m.LatBus
				}
				if t > ready {
					ready = t
				}
			}
			t := ready
			for !free(c, kind, t) {
				t++
			}
			if bestC == -1 || t < bestT || (t == bestT && load[c] < load[bestC]) {
				bestC, bestT = c, t
			}
		}
		take(bestC, kind, bestT)
		load[bestC]++
		s.Time[v] = bestT
		s.Cluster[v] = bestC
		if f := bestT + m.OpLatency(op); f > s.SL {
			s.SL = f
		}
	}
	if s.SL < 1 {
		s.SL = 1
	}
	// Loop-carried dependences are normally satisfied by the non-overlapping
	// iterations, but an edge latency beyond the producer's completion — or
	// the transfer latency of a cut data edge — can still outrun the
	// iteration period. Growing SL only loosens these constraints, so bump
	// it until every one holds.
	for changed := true; changed; {
		changed = false
		for _, e := range g.Edges {
			if e.Dist == 0 {
				continue
			}
			lat := e.Lat
			if e.Kind == ddg.Data && s.Cluster[e.From] != s.Cluster[e.To] {
				lat += m.LatBus
			}
			if deficit := s.Time[e.From] + lat - s.Time[e.To] - s.SL*e.Dist; deficit > 0 {
				s.SL += (deficit + e.Dist - 1) / e.Dist
				changed = true
			}
		}
	}
	s.II = s.SL // iterations do not overlap

	// Register pressure: within one iteration, values live def→last use.
	// lastUse[u] is the latest in-cluster use of u's value; 0 counts no
	// lifetime, as every latency is at least 1.
	lastUse := make([]int, n)
	depth := make([]int, s.SL+1)
	for c := 0; c < m.Clusters; c++ {
		clear(lastUse)
		clear(depth)
		for _, e := range g.Edges {
			if e.Kind != ddg.Data || e.Dist > 0 || s.Cluster[e.To] != c {
				continue
			}
			if t := s.Time[e.To]; t > lastUse[e.From] {
				lastUse[e.From] = t
			}
		}
		for u, end := range lastUse {
			def := s.Time[u] + m.OpLatency(g.Nodes[u].Op)
			for t := def; t <= end && t < len(depth); t++ {
				depth[t]++
			}
		}
		for _, d := range depth {
			if d > s.MaxLive[c] {
				s.MaxLive[c] = d
			}
		}
	}
	return s
}
