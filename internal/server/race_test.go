//go:build race

package server

// The race detector makes sync.Pool drop items at random, so pooled
// allocation counts are only exact without it.
func init() { raceEnabled = true }
