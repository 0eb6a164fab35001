//go:build race

package store

// The race detector instruments the append path and adds allocations to
// it, so its allocation count is only exact without it.
func init() { raceEnabled = true }
