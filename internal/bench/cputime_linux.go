package bench

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID: the calling thread's CPU time.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling OS thread has used, and false
// when the kernel does not provide the clock. Its caller must hold the
// goroutine on that thread (runtime.LockOSThread) for differences to mean
// anything.
func threadCPU() (time.Duration, bool) {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
