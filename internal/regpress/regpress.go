// Package regpress tracks register pressure of a modulo schedule.
//
// A value live over the absolute cycle interval [start, end) occupies one
// register in every cycle of the interval; in the steady state of a
// software-pipelined loop, cycle t maps to modulo slot t mod II, so an
// interval longer than II contributes several simultaneously-live copies
// to the same slot (the overlapped lifetimes of consecutive iterations).
// MaxLive — the maximum over slots of the live count — must not exceed the
// cluster's register-file size; the URACAM figure of merit additionally
// uses the consumed fraction of the total lifetime capacity regs·II
// (paper §3.3.1).
package regpress

import "fmt"

// Pressure tracks live-value counts per modulo slot for one cluster.
type Pressure struct {
	II   int
	live []int
	used int64 // total live slot-units across the window

	// max is MaxLive and nmax the number of slots at it, both valid while
	// maxOK. Adding keeps them exact; removing from the last slot at max
	// clears maxOK, and the next MaxLive rescans.
	max, nmax int
	maxOK     bool

	delta []int // Fits' net-delta window, all zero between calls
}

// New returns an empty pressure tracker at initiation interval ii ≥ 1.
func New(ii int) *Pressure {
	p := &Pressure{}
	p.Reset(ii)
	return p
}

// Reset empties the tracker and re-arms it at initiation interval ii ≥ 1,
// reusing its buffers where their capacity suffices.
func (p *Pressure) Reset(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("regpress: II %d < 1", ii))
	}
	p.II, p.used = ii, 0
	p.max, p.nmax, p.maxOK = 0, ii, true
	p.live = zeroed(p.live, ii)
	p.delta = zeroed(p.delta, ii)
}

// zeroed returns s with length n and every entry zero, reusing its array
// when large enough.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
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

// Add marks a value live over [start, end). Empty or inverted intervals are
// no-ops.
func (p *Pressure) Add(start, end int) {
	length := end - start
	if length <= 0 {
		return
	}
	if q := length / p.II; q > 0 {
		for s := range p.live {
			p.live[s] += q
		}
		p.max += q // every slot rose by q, so the slots at max are the same
	}
	r := length % p.II
	s := start % p.II
	if s < 0 {
		s += p.II
	}
	for i := 0; i < r; i++ {
		p.live[s]++
		if v := p.live[s]; v > p.max {
			p.max, p.nmax = v, 1
		} else if v == p.max {
			p.nmax++
		}
		if s++; s == p.II {
			s = 0
		}
	}
	p.used += int64(length)
}

// Remove undoes a prior Add of exactly [start, end).
func (p *Pressure) Remove(start, end int) {
	length := end - start
	if length <= 0 {
		return
	}
	if q := length / p.II; q > 0 {
		for s := range p.live {
			if p.live[s] -= q; p.live[s] < 0 {
				panic(fmt.Sprintf("regpress: removing from empty slot %d", s))
			}
		}
		p.max -= q
	}
	r := length % p.II
	s := start % p.II
	if s < 0 {
		s += p.II
	}
	for i := 0; i < r; i++ {
		if p.live[s] == p.max {
			if p.nmax--; p.nmax == 0 {
				p.maxOK = false
			}
		}
		if p.live[s]--; p.live[s] < 0 {
			panic(fmt.Sprintf("regpress: removing from empty slot %d", s))
		}
		if s++; s == p.II {
			s = 0
		}
	}
	p.used -= int64(length)
}

// MaxLive returns the maximum simultaneous live count across slots. It is
// cached: only a removal from the last slot at the maximum makes the next
// call rescan the window.
func (p *Pressure) MaxLive() int {
	if !p.maxOK {
		p.rescan()
	}
	return p.max
}

// rescan recomputes max and nmax from the window.
func (p *Pressure) rescan() {
	p.max, p.nmax = 0, 0
	for _, v := range p.live {
		if v > p.max {
			p.max, p.nmax = v, 1
		} else if v == p.max {
			p.nmax++
		}
	}
	p.maxOK = true
}

// Used returns the total live slot-units.
func (p *Pressure) Used() int64 { return p.used }

// Free returns the remaining lifetime capacity against a register file of
// the given size: regs·II − used (never negative).
func (p *Pressure) Free(regs int) int64 {
	f := int64(regs)*int64(p.II) - p.used
	if f < 0 {
		return 0
	}
	return f
}

// Span is a half-open absolute-cycle interval.
type Span struct{ Start, End int }

// Len returns the span's length (0 when inverted).
func (s Span) Len() int {
	if s.End <= s.Start {
		return 0
	}
	return s.End - s.Start
}

// Fits reports whether, after removing the rem spans and adding the add
// spans, every slot holds at most regs live values. The tracker is not
// modified.
//
// Only the net delta decides, and a window that already fits can overflow
// only where that delta is positive, which only add spans cover. A span of
// length L raises a slot by at most ⌈L/II⌉, so MaxLive plus that sum over
// the add spans settles most calls without touching a slot; the rest check
// exactly the slots the add spans cover. A window that already overflows
// is checked whole.
func (p *Pressure) Fits(rem, add []Span, regs int) bool {
	m := p.MaxLive()
	if m <= regs {
		bound := m
		for _, sp := range add {
			bound += (sp.Len() + p.II - 1) / p.II
		}
		if bound <= regs {
			return true
		}
	}
	d := p.delta
	for _, sp := range rem {
		spanApply(d, p.II, sp.Start, sp.End, -1)
	}
	for _, sp := range add {
		spanApply(d, p.II, sp.Start, sp.End, 1)
	}
	ok := true
	if m > regs {
		for s, v := range p.live {
			if v+d[s] > regs {
				ok = false
				break
			}
		}
	} else {
		for _, sp := range add {
			if !p.within(sp, regs) {
				ok = false
				break
			}
		}
	}
	p.clearDelta(rem)
	p.clearDelta(add)
	return ok
}

// within reports whether every slot sp covers holds at most regs live
// values with the delta window applied.
func (p *Pressure) within(sp Span, regs int) bool {
	n := min(sp.Len(), p.II)
	s := sp.Start % p.II
	if s < 0 {
		s += p.II
	}
	for i := 0; i < n; i++ {
		if p.live[s]+p.delta[s] > regs {
			return false
		}
		if s++; s == p.II {
			s = 0
		}
	}
	return true
}

// clearDelta zeroes the delta window's slots the spans cover.
func (p *Pressure) clearDelta(spans []Span) {
	for _, sp := range spans {
		n := sp.Len()
		if n >= p.II {
			clear(p.delta)
			return
		}
		s := sp.Start % p.II
		if s < 0 {
			s += p.II
		}
		for i := 0; i < n; i++ {
			p.delta[s] = 0
			if s++; s == p.II {
				s = 0
			}
		}
	}
}

// Slot returns the live count of modulo slot s, 0 ≤ s < II.
func (p *Pressure) Slot(s int) int { return p.live[s] }

// Check reports an error when the cached MaxLive or the used units
// disagree with the slot counts. It is a consistency check for tests and
// debug builds, not for the hot path.
func (p *Pressure) Check() error {
	var m int
	var sum int64
	for _, v := range p.live {
		m = max(m, v)
		sum += int64(v)
	}
	if sum != p.used {
		return fmt.Errorf("regpress: used %d, slots sum to %d", p.used, sum)
	}
	if got := p.MaxLive(); got != m {
		return fmt.Errorf("regpress: cached MaxLive %d, slots peak at %d", got, m)
	}
	at := 0
	for _, v := range p.live {
		if v == m {
			at++
		}
	}
	if p.nmax != at {
		return fmt.Errorf("regpress: %d slots cached at MaxLive %d, %d counted", p.nmax, m, at)
	}
	return nil
}
