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
	II      int
	live    []int
	used    int64 // total live slot-units across the window
	scratch []int // CanAdd probe window, lazily allocated and retained
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
	if cap(p.live) < ii {
		p.live = make([]int, ii)
	}
	p.live = p.live[:ii]
	clear(p.live)
	if cap(p.scratch) < ii {
		p.scratch = nil
	} else {
		p.scratch = p.scratch[:ii]
	}
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
	p.used += int64(spanApply(p.live, p.II, start, end, 1))
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
	}
	r := length % p.II
	s := start % p.II
	if s < 0 {
		s += p.II
	}
	for i := 0; i < r; i++ {
		if p.live[s]--; p.live[s] < 0 {
			panic(fmt.Sprintf("regpress: removing from empty slot %d", s))
		}
		if s++; s == p.II {
			s = 0
		}
	}
	p.used -= int64(length)
}

// MaxLive returns the maximum simultaneous live count across slots.
func (p *Pressure) MaxLive() int {
	m := 0
	for _, v := range p.live {
		if v > m {
			m = v
		}
	}
	return m
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

// CanAdd reports whether adding all spans keeps MaxLive ≤ regs. It does not
// modify the tracker. The scratch window is retained on the tracker, so
// repeated probes allocate nothing after the first.
func (p *Pressure) CanAdd(spans []Span, regs int) bool {
	if len(spans) == 0 {
		return p.MaxLive() <= regs
	}
	if p.scratch == nil {
		p.scratch = make([]int, p.II)
	}
	tmp := p.scratch
	copy(tmp, p.live)
	for _, sp := range spans {
		spanApply(tmp, p.II, sp.Start, sp.End, 1)
	}
	// The naive walk rejects only when a slot it increments exceeds regs —
	// pre-existing overflow in slots the spans never touch does not fail
	// the probe — and counts only grow while adding, so checking each
	// span's covered slots after applying everything is equivalent.
	for _, sp := range spans {
		length := sp.End - sp.Start
		if length <= 0 {
			continue
		}
		if length >= p.II {
			// Whole window covered: one scan settles every span.
			for _, v := range tmp {
				if v > regs {
					return false
				}
			}
			return true
		}
		s := sp.Start % p.II
		if s < 0 {
			s += p.II
		}
		for i := 0; i < length; i++ {
			if tmp[s] > regs {
				return false
			}
			if s++; s == p.II {
				s = 0
			}
		}
	}
	return true
}

// FitsWith reports whether, after removing the rem spans and adding the
// add spans, MaxLive stays within regs. scratch must have length II; it is
// overwritten (callers reuse one buffer to avoid allocation). The tracker
// itself is not modified.
func (p *Pressure) FitsWith(rem, add []Span, regs int, scratch []int) bool {
	copy(scratch, p.live)
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

// Clone returns an independent copy.
func (p *Pressure) Clone() *Pressure {
	c := &Pressure{II: p.II, used: p.used, live: make([]int, p.II)}
	copy(c.live, p.live)
	return c
}
