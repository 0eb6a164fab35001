package bench

import "testing"

// The fleet-zipf workload replays the same skewed request stream for a
// given seed, so the sampler must be bit-for-bit deterministic per seed —
// and actually skewed.
func TestZipfSamplerDeterministicAndSkewed(t *testing.T) {
	const n = 2000
	a := NewZipfSampler(1, 1.5, 80)
	b := NewZipfSampler(1, 1.5, 80)
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("draw %d: seed-1 samplers diverged (%d vs %d)", i, va, vb)
		}
		if va > 80 {
			t.Fatalf("draw %d: index %d out of [0,80]", i, va)
		}
		counts[va]++
	}

	// Index 0 is the hot key: at s=1.5 over 81 keys it should dominate.
	hottest, share := uint64(0), 0
	for idx, c := range counts {
		if c > share {
			hottest, share = idx, c
		}
	}
	if hottest != 0 {
		t.Fatalf("hottest index is %d, want 0 (counts %v)", hottest, counts)
	}
	if frac := float64(share) / n; frac < 0.35 {
		t.Fatalf("hot-key share %.2f, want >= 0.35 at s=1.5", frac)
	}

	// A different seed draws a different sequence.
	c := NewZipfSampler(2, 1.5, 80)
	same := true
	d := NewZipfSampler(1, 1.5, 80)
	for i := 0; i < 64; i++ {
		if c.Next() != d.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 2 reproduced seed 1's sequence")
	}
}
