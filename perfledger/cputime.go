package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// CPU clocks. A benchmark that shares its host loses the CPU for stretches
// of milliseconds whenever a neighbour needs it, and how often that happens
// moves from minute to minute: in wall-clock time the same pass took anywhere
// from one to two and a half times as long. The CPU clocks of the kernel
// only advance while a thread of this process runs, so the benchmark times
// the work it measures with them. See calib.go for what they do not cover.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func readClock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// checkCPUClocks makes sure both CPU clocks can be read before a run relies
// on them; after that, the readers below cannot fail.
func checkCPUClocks() error {
	for _, id := range []uintptr{clockProcessCPU, clockThreadCPU} {
		if _, err := readClock(id); err != nil {
			return err
		}
	}
	return nil
}

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration {
	d, _ := readClock(clockProcessCPU) // checked by checkCPUClocks
	return d
}

// threadCPU is the CPU time the calling OS thread has used. Its caller must
// hold the goroutine on that thread (runtime.LockOSThread) for differences
// to mean anything.
func threadCPU() time.Duration {
	d, _ := readClock(clockThreadCPU) // checked by checkCPUClocks
	return d
}
