//go:build race

package schedule

// The race detector makes sync.Pool drop items at random, so pooled
// allocation counts are only exact without it.
func init() { raceEnabled = true }
