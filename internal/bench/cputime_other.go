//go:build !linux

package bench

import "time"

// threadCPU reports that no thread CPU clock is available, so jobs are
// timed on the wall clock.
func threadCPU() (time.Duration, bool) { return 0, false }
