package bench

import "math/rand"

// ZipfSampler draws key indices from a Zipf(s) distribution — the standard
// model of hot-key skew, where rank-k popularity falls off as 1/(k+1)^s.
// It is fully deterministic: the same seed yields the same index sequence
// on every platform and Go release (math/rand's generator and rand.Zipf
// are covered by the Go 1 compatibility promise), which is what lets the
// perfledger benchmark's fleet-zipf workload replay the exact same request
// stream for a given seed.
type ZipfSampler struct {
	z *rand.Zipf
}

// NewZipfSampler returns a sampler over indices [0, imax] with skew
// exponent s (s must be > 1; at 2.0, index 0 draws roughly 60% of the
// traffic for an 81-key space).
func NewZipfSampler(seed int64, s float64, imax uint64) *ZipfSampler {
	return &ZipfSampler{z: rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, imax)}
}

// Next draws the next index. Index 0 is the hottest key.
func (z *ZipfSampler) Next() uint64 { return z.z.Uint64() }
