package regpress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is the per-cycle reference implementation the optimized tracker
// must match: every cycle of every span walked individually, exactly as the
// pre-optimization code did.
type naive struct {
	ii   int
	live []int
	used int64
}

func newNaive(ii int) *naive { return &naive{ii: ii, live: make([]int, ii)} }

func (n *naive) slot(t int) int {
	s := t % n.ii
	if s < 0 {
		s += n.ii
	}
	return s
}

func (n *naive) add(start, end int) {
	for t := start; t < end; t++ {
		n.live[n.slot(t)]++
		n.used++
	}
}

func (n *naive) remove(start, end int) {
	for t := start; t < end; t++ {
		n.live[n.slot(t)]--
		n.used--
	}
}

func (n *naive) fitsWith(rem, add []Span, regs int) bool {
	tmp := make([]int, n.ii)
	copy(tmp, n.live)
	for _, sp := range rem {
		for t := sp.Start; t < sp.End; t++ {
			tmp[n.slot(t)]--
		}
	}
	for _, sp := range add {
		for t := sp.Start; t < sp.End; t++ {
			tmp[n.slot(t)]++
		}
	}
	for _, v := range tmp {
		if v > regs {
			return false
		}
	}
	return true
}

// randSpan draws a span with negative starts and lengths well beyond II, so
// the clamped whole-window fast path is exercised.
func randSpan(r *rand.Rand, ii int) Span {
	start := r.Intn(6*ii) - 3*ii
	length := r.Intn(3*ii + 2)
	return Span{Start: start, End: start + length}
}

// TestPropClampedMatchesNaive drives random add/remove sequences through
// the optimized tracker and the per-cycle reference in lockstep: the live
// windows, the cached MaxLive and Used must agree after every operation,
// and Fits probes must return the reference's verdict, with and without
// removed spans, in windows that fit and in windows that already overflow.
// Each probe must leave Fits' delta window zero.
func TestPropClampedMatchesNaive(t *testing.T) {
	f := func(seed int64, iiRaw uint8, regsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ii := 1 + int(iiRaw)%13
		regs := 1 + int(regsRaw)%8
		p := New(ii)
		n := newNaive(ii)
		var added []Span
		for step := 0; step < 60; step++ {
			switch op := r.Intn(4); {
			case op == 0 && len(added) > 0: // remove a previously added span
				i := r.Intn(len(added))
				sp := added[i]
				added = append(added[:i], added[i+1:]...)
				p.Remove(sp.Start, sp.End)
				n.remove(sp.Start, sp.End)
			case op == 1: // probe Fits with added spans only
				spans := []Span{randSpan(r, ii), randSpan(r, ii)}
				if p.Fits(nil, spans, regs) != n.fitsWith(nil, spans, regs) {
					return false
				}
			case op == 2: // probe Fits over a subset of live spans
				var rem []Span
				if len(added) > 0 {
					rem = []Span{added[r.Intn(len(added))]}
				}
				add := []Span{randSpan(r, ii)}
				if p.Fits(rem, add, regs) != n.fitsWith(rem, add, regs) {
					return false
				}
			default:
				sp := randSpan(r, ii)
				added = append(added, sp)
				p.Add(sp.Start, sp.End)
				n.add(sp.Start, sp.End)
			}
			if p.MaxLive() != maxOf(n.live) || p.Used() != n.used || p.Check() != nil {
				return false
			}
			for s := 0; s < ii; s++ {
				if p.live[s] != n.live[s] || p.delta[s] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func maxOf(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// TestRemoveUnderflowPanics pins the misuse guard: removing a span that was
// never added must panic once a slot would go negative.
func TestRemoveUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of a never-added span did not panic")
		}
	}()
	p := New(4)
	p.Add(0, 2)
	p.Remove(0, 8) // length ≥ II: exercises the whole-window fast path too
}

func BenchmarkAddLongSpan(b *testing.B) {
	p := New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(0, 4096)
		p.Remove(0, 4096)
	}
}
