package schedule

import (
	"slices"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/regpress"
)

// Register deltas. A plan changes the register intervals (spans) of only
// the values it touches — the placed node's own value and the producers it
// reads — and only in some clusters. checkRegs checks, and apply commits,
// exactly that change: per cluster, the spans of each touched value before
// and after the plan, with the spans the plan leaves alone dropped and a
// span that only grows or shrinks reduced to the cycles it gains or loses.

// probeReference, when a test sets it, swaps the incremental register check
// and commit, the free-slot totals and the cached SMS groups for the code
// they replaced (reference_test.go), so that TrySchedule can run both ways.
var probeReference *referenceProbe

// referenceProbe is the set of replaced implementations probeReference
// installs.
type referenceProbe struct {
	checkRegs func(st *state, p *plan, def int) bool
	apply     func(st *state, p *plan)
	freeXfer  func(st *state) int
	freeMem   func(st *state, c int) int
	groups    func(g *ddg.Graph) (nodes, ends []int)
}

// touch is a (value, cluster) pair whose spans a plan can change.
type touch struct{ id, c int }

// regChange is one span a plan removes from (add false) or adds to cluster
// c's pressure window.
type regChange struct {
	c   int
	sp  regpress.Span
	add bool
}

// markTouched lists in the probe's touches the (value, cluster) pairs whose
// spans p can change and marks their clusters visited. The placed
// node's own value occupies its home and the clusters of its uses. A
// producer's spans change where p adds a use or a load; at its home and at
// the destination when p creates or moves a point-to-point transfer; and at
// its home and in every cluster it is read in when p creates or moves its
// shared-bus broadcast, whose arrival reaches them all.
func (st *state) markTouched(p *plan) {
	pr := &st.probe
	pr.touches = pr.touches[:0]
	clear(pr.visit)
	if st.g.Nodes[p.v].Op.ProducesValue() {
		pr.touch(p.v, p.cluster)
	}
	for _, mv := range p.moves {
		st.touchXfer(p, mv.val, mv.dest)
	}
	for _, cp := range p.comms {
		st.touchXfer(p, cp.val, cp.dest)
	}
	for _, lp := range p.loads {
		pr.touch(lp.val, lp.cluster)
	}
	for _, up := range p.uses {
		pr.touch(up.val, up.cluster)
	}
}

// touchXfer marks the pairs a created or moved transfer of value id to dest
// (-1: the shared-bus broadcast) changes, besides those of p's uses.
func (st *state) touchXfer(p *plan, id, dest int) {
	pr := &st.probe
	if id == p.v {
		pr.touch(id, p.cluster)
		return
	}
	val := st.vals[id]
	pr.touch(id, val.home)
	if dest >= 0 {
		pr.touch(id, dest)
		return
	}
	for c, u := range val.maxUse {
		if u != noUse {
			pr.touch(id, c)
		}
	}
}

// touch records the pair (id, c) once and marks c visited.
func (pr *probe) touch(id, c int) {
	if !slices.Contains(pr.touches, touch{id, c}) {
		pr.touches = append(pr.touches, touch{id, c})
	}
	pr.visit[c] = true
}

// touchAll replaces the touched pairs with every touched value in every
// cluster.
func (pr *probe) touchAll() {
	ids := pr.ids[:0]
	for _, t := range pr.touches {
		if !slices.Contains(ids, t.id) {
			ids = append(ids, t.id)
		}
	}
	pr.ids = ids
	pr.touches = pr.touches[:0]
	for c := range pr.visit {
		for _, id := range ids {
			pr.touches = append(pr.touches, touch{id, c})
		}
		pr.visit[c] = true
	}
}

// checkRegs reports whether applying p keeps every cluster's MaxLive within
// its register file, accumulates the net lifetime units p adds per cluster
// into the probe's addUnits, and records in p the change apply commits. It
// never mutates the schedule.
//
// Spans p leaves alone cancel out, and a cluster p leaves alone keeps a
// window that fits, as long as no cluster overflows: placement,
// transformation and ejection all keep it so. Should a cluster overflow
// anyway, every cluster is checked with every touched value's whole spans,
// the check this one replaced, so no verdict depends on that invariant.
func (st *state) checkRegs(p *plan, def int) bool {
	if h := probeReference; h != nil {
		return h.checkRegs(st, p, def)
	}
	m, pr := st.m, &st.probe
	st.markTouched(p)
	whole := false
	for c := 0; c < m.Clusters && !whole; c++ {
		whole = st.maxLive(c) > m.RegsIn(c)
	}
	if whole {
		pr.touchAll()
	}
	// A plan that fails this check mostly fails it in the cluster that
	// failed the previous one, so that cluster is checked first, then the
	// others in index order. Neither the verdict nor the addUnits and
	// changes of a passing plan depend on the order.
	first := pr.lastFail
	for i := 0; i < m.Clusters; i++ {
		c := first
		if i > 0 {
			if c = i - 1; c >= first {
				c++
			}
		}
		if !pr.visit[c] {
			continue
		}
		rem, add, units := st.regDelta(p, def, c, whole)
		if len(rem) == 0 && len(add) == 0 {
			continue
		}
		if !st.press[c].Fits(rem, add, m.RegsIn(c)) {
			pr.lastFail = c
			return false
		}
		if units > 0 {
			pr.addUnits[c] += units
		}
		for _, sp := range rem {
			p.regs = append(p.regs, regChange{c: c, sp: sp})
		}
		for _, sp := range add {
			p.regs = append(p.regs, regChange{c: c, sp: sp, add: true})
		}
	}
	return true
}

// regDelta returns the spans p removes from and adds to cluster c over the
// pairs markTouched found there, and the net lifetime units it adds. Unless
// whole, the spans of a value p leaves alone are dropped and a span p moves
// either end of becomes the cycles it loses and gains; whole takes them
// all. The slices are probe scratch, valid until the next call.
func (st *state) regDelta(p *plan, def, c int, whole bool) (rem, add []regpress.Span, units int64) {
	pr := &st.probe
	rem, add = pr.rem[:0], pr.add[:0]
	for _, t := range pr.touches {
		if t.c != c {
			continue
		}
		old, now := st.pairSpans(p, def, t.id, c)
		units += spansLen(now) - spansLen(old)
		switch {
		case !whole && slices.Equal(old, now):
		case !whole && len(old) == 1 && len(now) == 1:
			rem, add = diffSpan(rem, add, old[0], now[0])
		default:
			rem, add = append(rem, old...), append(add, now...)
		}
	}
	pr.rem, pr.add = rem, add
	return rem, add, units
}

// spansLen returns the total length of spans.
func spansLen(spans []regpress.Span) int64 {
	var n int64
	for _, sp := range spans {
		n += int64(sp.Len())
	}
	return n
}

// diffSpan appends to rem the cycles a covers and b does not, and to add
// those b covers and a does not: every slot changes as it would by
// removing a and adding b.
func diffSpan(rem, add []regpress.Span, a, b regpress.Span) ([]regpress.Span, []regpress.Span) {
	if a.Len() == 0 || b.Len() == 0 {
		return append(rem, a), append(add, b)
	}
	rem = appendSpan(rem, a.Start, min(a.End, b.Start))
	rem = appendSpan(rem, max(a.Start, b.End), a.End)
	add = appendSpan(add, b.Start, min(b.End, a.Start))
	add = appendSpan(add, max(b.Start, a.End), b.End)
	return rem, add
}

// appendSpan appends [start, end) to spans unless it is empty.
func appendSpan(spans []regpress.Span, start, end int) []regpress.Span {
	if start >= end {
		return spans
	}
	return append(spans, regpress.Span{Start: start, End: end})
}

// pairSpans returns the spans value id occupies in cluster c before and
// after p, in the probe's old and new scratch: the committed value's, and
// the same with p's transfers, loads and uses folded in. The placed node's
// own value (id = p.v), written at def in p.cluster, has none before.
func (st *state) pairSpans(p *plan, def, id, c int) (old, now []regpress.Span) {
	m, pr := st.m, &st.probe
	old, now = pr.old[:0], pr.new[:0]
	var val *value
	home, last := p.cluster, noUse // last: the latest read in c after p
	if id != p.v {
		val = st.vals[id]
		old = val.appendSpans(old, c, m)
		home, def, last = val.home, val.def, val.maxUse[c]
	}
	for _, up := range p.uses {
		if up.val == id && up.cluster == c && up.use > last { // noUse lies below every use
			last = up.use
		}
	}
	if c == home {
		// The register holds the value until its last read and its last
		// departure, by bus or through memory.
		end := max(def+1, last+1)
		if s, ok := st.departure(p, val, id); ok {
			end = max(end, s+1)
		}
		var sp *spill
		if val != nil {
			if val.mem != nil {
				end = max(end, val.mem.store+1)
			}
			sp = val.spill
		}
		now = appendHomeSpans(now, def, end, sp, m)
	} else if last != noUse {
		if arr, ok := st.planArrival(p, val, id, c); ok {
			now = append(now, regpress.Span{Start: arr, End: last + 1})
		}
	}
	pr.old, pr.new = old, now
	return old, now
}

// plannedXfer returns the departure p gives value id's transfer to dest
// (-1: the shared-bus broadcast) when p creates or moves it.
func plannedXfer(p *plan, id, dest int) (int, bool) {
	for _, mv := range p.moves {
		if mv.val == id && mv.dest == dest {
			return mv.new, true
		}
	}
	for _, cp := range p.comms {
		if cp.val == id && cp.dest == dest {
			return cp.start, true
		}
	}
	return 0, false
}

// departure returns the latest departure of value id's transfers once p is
// applied: those of the committed value val (nil for the placed node's,
// which has none) with p's created and moved ones folded in.
func (st *state) departure(p *plan, val *value, id int) (int, bool) {
	if !st.p2p() {
		if s, ok := plannedXfer(p, id, -1); ok {
			return s, true
		}
		if val != nil && val.comm != nil {
			return val.comm.start, true
		}
		return 0, false
	}
	last, found := 0, false
	for d := 0; d < st.m.Clusters; d++ {
		s, ok := plannedXfer(p, id, d)
		if !ok && val != nil && val.comm != nil {
			s, ok = val.comm.dests[d], val.comm.dests[d] != absent
		}
		if ok && (!found || s > last) {
			last, found = s, true
		}
	}
	return last, found
}

// planArrival is value.arrival for a cluster c other than the home, once p
// is applied (val is the committed value, nil for the placed node's).
func (st *state) planArrival(p *plan, val *value, id, c int) (int, bool) {
	m := st.m
	if val != nil && val.mem != nil {
		l := val.mem.loads[c]
		for _, lp := range p.loads {
			if lp.val == id && lp.cluster == c {
				l = lp.cycle
			}
		}
		if l == absent {
			return 0, false
		}
		return l + m.OpLatency(isa.Load), true
	}
	dest := -1
	if st.p2p() {
		dest = c
	}
	s, ok := plannedXfer(p, id, dest)
	if !ok && val != nil && val.comm != nil {
		s, ok = val.comm.startFor(c, st.p2p())
	}
	if !ok {
		return 0, false
	}
	return s + m.LatBus, true
}
