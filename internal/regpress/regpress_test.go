package regpress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddRemoveRoundTrip(t *testing.T) {
	p := New(4)
	p.Add(2, 9) // 7 units
	if p.Used() != 7 {
		t.Errorf("Used = %d, want 7", p.Used())
	}
	p.Remove(2, 9)
	if p.Used() != 0 || p.MaxLive() != 0 {
		t.Errorf("after remove: used=%d maxlive=%d", p.Used(), p.MaxLive())
	}
}

func TestMaxLiveWraparound(t *testing.T) {
	// II=3, interval [0,7): slots get ceil coverage 3,2,2 → MaxLive 3.
	p := New(3)
	p.Add(0, 7)
	if got := p.MaxLive(); got != 3 {
		t.Errorf("MaxLive = %d, want 3 (lifetime spans 2⅓ iterations)", got)
	}
}

func TestOverlappingValues(t *testing.T) {
	p := New(4)
	p.Add(0, 2)
	p.Add(1, 3)
	p.Add(2, 4)
	// Slot live counts: s0:1, s1:2, s2:2, s3:1.
	if got := p.MaxLive(); got != 2 {
		t.Errorf("MaxLive = %d, want 2", got)
	}
}

func TestEmptyAndInvertedIntervals(t *testing.T) {
	p := New(5)
	p.Add(3, 3)
	p.Add(7, 2)
	if p.Used() != 0 {
		t.Errorf("empty/inverted intervals consumed %d units", p.Used())
	}
}

func TestNegativeCycles(t *testing.T) {
	p := New(4)
	p.Add(-2, 1) // cycles -2,-1,0 → slots 2,3,0
	if p.Used() != 3 || p.MaxLive() != 1 {
		t.Errorf("used=%d maxlive=%d, want 3,1", p.Used(), p.MaxLive())
	}
	p.Remove(-2, 1)
	if p.Used() != 0 {
		t.Error("negative interval not removed cleanly")
	}
}

func TestFreeCapacity(t *testing.T) {
	p := New(4)
	if got := p.Free(8); got != 32 {
		t.Errorf("Free = %d, want 32", got)
	}
	p.Add(0, 10)
	if got := p.Free(8); got != 22 {
		t.Errorf("Free = %d, want 22", got)
	}
	if got := p.Free(2); got != 0 {
		t.Errorf("Free with tiny file = %d, want 0 (clamped)", got)
	}
}

func TestFits(t *testing.T) {
	p := New(2)
	p.Add(0, 2) // one value live the whole window
	if !p.Fits(nil, []Span{{0, 2}}, 2) {
		t.Error("Fits refused second value with 2 registers")
	}
	if p.Fits(nil, []Span{{0, 2}}, 1) {
		t.Error("Fits allowed overflow with 1 register")
	}
	if !p.Fits([]Span{{0, 2}}, []Span{{1, 3}}, 1) {
		t.Error("Fits refused to replace the only value with 1 register")
	}
	// Fits must not mutate.
	if p.Used() != 2 || p.MaxLive() != 1 {
		t.Errorf("Fits mutated tracker: used=%d maxlive=%d", p.Used(), p.MaxLive())
	}
}

func TestFitsNoSpans(t *testing.T) {
	p := New(2)
	p.Add(0, 4) // MaxLive 2
	if !p.Fits(nil, nil, 2) {
		t.Error("Fits(nil, nil) should report current feasibility")
	}
	if p.Fits(nil, nil, 1) {
		t.Error("Fits(nil, nil) should reject when already over")
	}
}

// TestMaxLiveCache follows the cached MaxLive through removals of the
// last slot at the maximum, removals that leave another slot there, and
// whole-window spans (II 4; the comments give the slot counts).
func TestMaxLiveCache(t *testing.T) {
	p := New(4)
	p.Add(0, 2) // 1 1 0 0
	p.Add(1, 3) // 1 2 1 0
	p.Add(5, 6) // 1 3 1 0
	steps := []struct {
		add        bool
		start, end int
		want       int
	}{
		{false, 5, 6, 2}, // 1 2 1 0: the last slot at 3 drops
		{true, 0, 9, 4},  // 4 4 3 2: twice the whole window, then slot 0
		{false, 1, 3, 4}, // 4 3 2 2: slot 0 still at 4
		{false, 0, 2, 3}, // 3 2 2 2
		{false, 0, 9, 0}, // 0 0 0 0
	}
	for i, st := range steps {
		if st.add {
			p.Add(st.start, st.end)
		} else {
			p.Remove(st.start, st.end)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := p.MaxLive(); got != st.want {
			t.Errorf("step %d: MaxLive %d, want %d", i, got, st.want)
		}
	}
}

func TestRemovePanicsOnUnderflow(t *testing.T) {
	p := New(3)
	defer func() {
		if recover() == nil {
			t.Error("Remove on empty tracker did not panic")
		}
	}()
	p.Remove(0, 1)
}

func TestSpanLen(t *testing.T) {
	if (Span{3, 7}).Len() != 4 {
		t.Error("Span{3,7}.Len() != 4")
	}
	if (Span{7, 3}).Len() != 0 {
		t.Error("inverted span must have length 0")
	}
}

// Property: Used equals the sum of interval lengths, and MaxLive ≥
// Used/II ≥ MaxLive/II bounds hold.
func TestUsedMatchesIntervalSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ii := r.Intn(16) + 1
		p := New(ii)
		var total int64
		for i := 0; i < r.Intn(20); i++ {
			s := r.Intn(40) - 10
			l := r.Intn(30)
			p.Add(s, s+l)
			total += int64(l)
		}
		if p.Used() != total {
			return false
		}
		// MaxLive·II ≥ Used.
		return int64(p.MaxLive())*int64(ii) >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
