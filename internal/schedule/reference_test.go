package schedule

import (
	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/regpress"
)

// The reference probe: the code the incremental register check and
// commit, the free-slot totals and the cached SMS groups replaced, kept
// as it was (the pressure window read through Slot, the reservation table
// through ChannelAt and MemAt) so that tests can run TrySchedule both ways
// through probeReference and require identical results. Its scratch is
// package state: tests that install it must not run in parallel.

// withReference runs f with the reference probe installed.
func withReference(f func()) {
	probeReference = &referenceProbe{
		checkRegs: refCheckRegs,
		apply:     refApply,
		freeXfer:  refFreeXfer,
		freeMem:   refFreeMem,
		groups: func(g *ddg.Graph) ([]int, []int) {
			var o refGroups
			o.buildGroups(g)
			return o.groupNodes, o.groupEnd
		},
	}
	defer func() { probeReference = nil }()
	f()
}

// refScratch is the reference probe's scratch: the value views of the plan
// being checked, the FitsWith window and apply's touched producers.
var refScratch struct {
	views   []*view
	nviews  int
	sim     []int
	touched []int
}

// view is a hypothetical copy of a value under the plan being checked.
type view struct {
	id  int
	val *value // the committed value; nil for the placed node's own value
	tmp value
	buf []int // tmp's backing
}

// refNewView claims a view slot for value id (committed value val, or nil
// for the placed node's own), reset to a fresh value in cluster home at
// def.
func refNewView(id int, val *value, home, def, clusters int) *view {
	rs := &refScratch
	if rs.nviews == len(rs.views) {
		rs.views = append(rs.views, new(view))
	}
	vw := rs.views[rs.nviews]
	rs.nviews++
	vw.id, vw.val = id, val
	vw.buf = resize(vw.buf, valueInts*clusters)
	vw.tmp.reset(home, def, clusters, vw.buf)
	return vw
}

// refView returns the hypothetical copy of value id under the plan being
// checked, copying the committed value on first use.
func refView(st *state, id int) *value {
	rs := &refScratch
	for _, vw := range rs.views[:rs.nviews] {
		if vw.id == id {
			return &vw.tmp
		}
	}
	val := st.vals[id]
	vw := refNewView(id, val, val.home, val.def, st.m.Clusters)
	vw.tmp.copyFrom(val)
	return &vw.tmp
}

// copyFrom makes v, already reset for the same cluster count, a deep copy
// of src sharing no storage with it.
func (v *value) copyFrom(src *value) {
	v.home, v.def = src.home, src.def
	copy(v.minUse, src.minUse)
	copy(v.maxUse, src.maxUse)
	v.comm, v.mem, v.spill = nil, nil, nil
	if src.comm != nil {
		v.comm = v.newComm(src.comm.dests != nil, src.comm.start)
		copy(v.comm.dests, src.comm.dests)
	}
	if src.mem != nil {
		v.mem = v.newMem(src.mem.store)
		copy(v.mem.loads, src.mem.loads)
	}
	if src.spill != nil {
		v.spill = v.newSpill(src.spill.store, src.spill.load)
	}
}

// setXfer records a planned transfer start on a hypothetical value: the
// broadcast start for the shared bus, one dests entry per link on
// point-to-point machines.
func setXfer(tmp *value, dest, start int) {
	if dest < 0 {
		if tmp.comm == nil {
			tmp.comm = tmp.newComm(false, 0)
		}
		tmp.comm.start = start
		return
	}
	if tmp.comm == nil {
		tmp.comm = tmp.newComm(true, 0)
	} else if tmp.comm.dests == nil {
		tmp.comm.dests = fillAbsent(tmp.routes[:len(tmp.minUse)])
	}
	tmp.comm.dests[dest] = start
}

// refCheckRegs verifies that applying p keeps every cluster's MaxLive
// within the register file, and accumulates the net added lifetime units
// per cluster into the probe's addUnits. It never mutates the schedule.
func refCheckRegs(st *state, p *plan, def int) bool {
	m, pr, rs := st.m, &st.probe, &refScratch
	rs.nviews = 0
	rs.sim = resize(rs.sim, st.ii)
	if st.g.Nodes[p.v].Op.ProducesValue() {
		refNewView(p.v, nil, p.cluster, def, m.Clusters)
	}
	for _, mv := range p.moves {
		setXfer(refView(st, mv.val), mv.dest, mv.new)
	}
	for _, cp := range p.comms {
		setXfer(refView(st, cp.val), cp.dest, cp.start)
	}
	for _, lp := range p.loads {
		refView(st, lp.val).mem.loads[lp.cluster] = lp.cycle
	}
	for _, up := range p.uses {
		tmp := refView(st, up.val)
		if cur := tmp.minUse[up.cluster]; cur == noUse || up.use < cur {
			tmp.minUse[up.cluster] = up.use
		}
		if cur := tmp.maxUse[up.cluster]; cur == noUse || up.use > cur {
			tmp.maxUse[up.cluster] = up.use
		}
	}

	// Per-cluster simulation: the committed spans of every touched value
	// are swapped for its hypothetical ones. Most plans fail this check,
	// mostly in the cluster that failed the previous one, so that cluster
	// is checked first, then the others in index order. Neither the
	// verdict nor the addUnits of a passing plan depend on the order.
	first := pr.lastFail
	for i := 0; i < m.Clusters; i++ {
		c := first
		if i > 0 {
			if c = i - 1; c >= first {
				c++
			}
		}
		var before, after int64
		rem, add := pr.rem[:0], pr.add[:0]
		for _, vw := range rs.views[:rs.nviews] {
			if vw.val != nil {
				n := len(rem)
				rem = vw.val.appendSpans(rem, c, m)
				for _, sp := range rem[n:] {
					before += int64(sp.Len())
				}
			}
			n := len(add)
			add = vw.tmp.appendSpans(add, c, m)
			for _, sp := range add[n:] {
				after += int64(sp.Len())
			}
		}
		pr.rem, pr.add = rem, add
		if len(rem) == 0 && len(add) == 0 {
			continue
		}
		if !fitsWith(&st.press[c], rem, add, m.RegsIn(c), rs.sim) {
			pr.lastFail = c
			return false
		}
		if d := after - before; d > 0 {
			pr.addUnits[c] += d
		}
	}
	return true
}

// fitsWith reports whether, after removing the rem spans and adding the
// add spans, MaxLive stays within regs. scratch must have length II; it is
// overwritten (callers reuse one buffer to avoid allocation). The tracker
// itself is not modified.
func fitsWith(p *regpress.Pressure, rem, add []regpress.Span, regs int, scratch []int) bool {
	for s := range scratch {
		scratch[s] = p.Slot(s)
	}
	for _, sp := range rem {
		spanApply(scratch, p.II, sp.Start, sp.End, -1)
	}
	for _, sp := range add {
		spanApply(scratch, p.II, sp.Start, sp.End, 1)
	}
	for _, v := range scratch {
		if v > regs {
			return false
		}
	}
	return true
}

// spanApply adds delta to every slot covered by [start, end), walking at
// most min(end−start, ii) cycles: a span of length L ≥ ii saturates every
// modulo slot ⌊L/ii⌋ times (whole-window fast path, one pass over buf),
// and only the L mod ii remainder cycles starting at start need the
// per-cycle walk. Returns the span length (0 for empty/inverted spans).
func spanApply(buf []int, ii, start, end, delta int) int {
	length := end - start
	if length <= 0 {
		return 0
	}
	if q := length / ii; q > 0 {
		w := q * delta
		for s := range buf {
			buf[s] += w
		}
	}
	r := length % ii
	s := start % ii
	if s < 0 {
		s += ii
	}
	for i := 0; i < r; i++ {
		buf[s] += delta
		if s++; s == ii {
			s = 0
		}
	}
	return length
}

// refApply commits a plan to the state.
func refApply(st *state, p *plan) {
	g, m := st.g, st.m
	node := g.Nodes[p.v]

	// 1. Producer bookkeeping for v.
	st.rt.PlaceOp(p.cluster, node.Op.Unit(), p.t)
	st.time[p.v] = p.t
	st.cluster[p.v] = p.cluster
	st.sched[p.v] = true
	if node.Op.ProducesValue() {
		st.initValue(p.v, p.cluster, p.t+m.OpLatency(node.Op))
	}

	// 2. Batch span-safe mutations per touched producer other than v (v's
	// new value has no spans registered yet).
	touched := refScratch.touched[:0]
	for _, mv := range p.moves {
		touched = appendUnique(touched, mv.val, p.v)
	}
	for _, cp := range p.comms {
		touched = appendUnique(touched, cp.val, p.v)
	}
	for _, lp := range p.loads {
		touched = appendUnique(touched, lp.val, p.v)
	}
	for _, up := range p.uses {
		touched = appendUnique(touched, up.val, p.v)
	}
	refScratch.touched = touched
	for _, id := range touched {
		st.removeValueSpans(st.vals[id])
	}
	// Mutate. Transfer channels are keyed by the value's home cluster and
	// the planned destination (ignored on the shared bus).
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
	// Re-add spans.
	for _, id := range touched {
		st.addValueSpans(st.vals[id])
	}
	if val := st.vals[p.v]; val != nil {
		st.addValueSpans(val)
	}
}

// refFreeXfer returns the number of free transfer slot-cycles across one
// II window, summed over every channel.
func refFreeXfer(st *state) int {
	t, m := &st.rt, st.m
	total := m.NBus * t.II * m.Channels()
	used := 0
	for ch := 0; ch < m.Channels(); ch++ {
		for s := 0; s < t.II; s++ {
			used += t.ChannelAt(ch, s)
		}
	}
	return total - used
}

// refFreeMem returns the number of free memory-port slots in cluster c
// across one II window.
func refFreeMem(st *state, c int) int {
	t := &st.rt
	total := st.m.UnitsIn(c, isa.MemUnit) * t.II
	used := 0
	for s := 0; s < t.II; s++ {
		used += t.MemAt(c, s)
	}
	return total - used
}

// refGroups is the per-attempt SMS grouping: its buildGroups ran on every
// attempt before ddg.Graph.SMSGroups cached the groups per loop.
type refGroups struct {
	groupNodes []int // the groups' nodes, concatenated
	groupEnd   []int // end offset of each group in groupNodes
	reach      []bool
	grouped    []bool
	member     []bool
	undirected adjacency
	stack      []int
}

// adjacency is a compressed neighbor list: node v's neighbors are
// nbr[start[v]:start[v+1]], in dependence-edge order.
type adjacency struct {
	start, nbr []int
}

func (a *adjacency) of(v int) []int { return a.nbr[a.start[v]:a.start[v+1]] }

// build collects, for every edge between distinct nodes, To as a neighbor
// of From (fwd) and From as a neighbor of To (back).
func (a *adjacency) build(g *ddg.Graph, fwd, back bool) {
	n := g.N()
	a.start = resize(a.start, n+1)
	clear(a.start)
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		if fwd {
			a.start[e.From+1]++
		}
		if back {
			a.start[e.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		a.start[v+1] += a.start[v]
	}
	a.nbr = resize(a.nbr, a.start[n])
	// Fill in edge order, advancing start[v] as a cursor to v's end (the
	// next node's beginning), then shift the offsets back into place.
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		if fwd {
			a.nbr[a.start[e.From]] = e.To
			a.start[e.From]++
		}
		if back {
			a.nbr[a.start[e.To]] = e.From
			a.start[e.To]++
		}
	}
	for v := n; v > 0; v-- {
		a.start[v] = a.start[v-1]
	}
	a.start[0] = 0
}

// buildGroups computes the SMS set list into groupNodes/groupEnd: one group
// per recurrence in decreasing RecMII order, each union the nodes on paths
// between it and the previously grouped nodes; remaining nodes form one
// final group per weakly-connected component.
func (o *refGroups) buildGroups(g *ddg.Graph) {
	n := g.N()
	recs := g.Recurrences()
	o.grouped = resize(o.grouped, n)
	clear(o.grouped)
	o.member = resize(o.member, n)
	o.groupNodes, o.groupEnd = o.groupNodes[:0], o.groupEnd[:0]
	grouped, member := o.grouped, o.member

	o.reachability(g)
	reach := func(from, to int) bool { return o.reach[from*n+to] }

	for _, rec := range recs {
		clear(member)
		fresh := false
		for _, v := range rec.Nodes {
			if !grouped[v] {
				member[v] = true
				fresh = true
			}
		}
		if !fresh {
			continue
		}
		// Nodes on paths between earlier groups and this recurrence:
		// v with (grouped ⇝ v and v ⇝ rec) or (rec ⇝ v and v ⇝ grouped).
		for v := 0; v < n; v++ {
			if grouped[v] || member[v] {
				continue
			}
			fromPrev, toPrev := false, false
			for w := 0; w < n; w++ {
				if grouped[w] {
					if reach(w, v) {
						fromPrev = true
					}
					if reach(v, w) {
						toPrev = true
					}
				}
			}
			toRec, fromRec := false, false
			for _, w := range rec.Nodes {
				if reach(v, w) {
					toRec = true
				}
				if reach(w, v) {
					fromRec = true
				}
			}
			if (fromPrev && toRec) || (fromRec && toPrev) {
				member[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if member[v] {
				o.groupNodes = append(o.groupNodes, v)
				grouped[v] = true
			}
		}
		o.groupEnd = append(o.groupEnd, len(o.groupNodes))
	}

	// Remaining nodes: weakly-connected components, in node-ID order.
	o.undirected.build(g, true, true)
	for v := 0; v < n; v++ {
		if grouped[v] {
			continue
		}
		stack := append(o.stack[:0], v)
		grouped[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			o.groupNodes = append(o.groupNodes, x)
			for _, w := range o.undirected.of(x) {
				if !grouped[w] {
					grouped[w] = true
					stack = append(stack, w)
				}
			}
		}
		o.stack = stack
		o.groupEnd = append(o.groupEnd, len(o.groupNodes))
	}
}

// reachability fills o.reach with the transitive closure over all edges:
// reach[v·n+w] reports a path v ⇝ w of at least one edge, w ≠ v (one DFS
// per node; loop bodies are small).
func (o *refGroups) reachability(g *ddg.Graph) {
	n := g.N()
	o.reach = resize(o.reach, n*n)
	clear(o.reach)
	for v := 0; v < n; v++ {
		row := o.reach[v*n : (v+1)*n]
		row[v] = true // seen; cleared below
		stack := append(o.stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range g.Out(x) {
				if w := g.Edges[ei].To; !row[w] {
					row[w] = true
					stack = append(stack, w)
				}
			}
		}
		o.stack = stack
		row[v] = false
	}
}
