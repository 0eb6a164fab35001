package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Calibration. Timing work in CPU time (cputime.go) leaves out the
// stretches in which the host gives the CPU to someone else, but not a host
// whose CPUs themselves run slower for a while, as they do when a neighbour
// shares a core, the caches or the memory bus. Every run therefore also
// times a fixed reference, in short bursts interleaved with the workload,
// and reports each time scaled to a nominal machine: the measured CPU time
// times scale(), the reference's nominal CPU time per call over its median
// in the run. A reference is written against this file and the standard
// library only, so no change to the program can change its speed; a change
// that makes the program faster moves the scaled figures as it would move
// unscaled ones on a steady machine. Each workload kind has the reference
// that uses the machine the way it does: the compile workloads a kernel of
// graph search, hash map and sort; fleet-zipf a plain net/http round trip
// on loopback. The report prints the unscaled figures and the scale beside
// the scaled ones.

// reference is a fixed piece of work the calibration times.
type reference struct {
	name    string
	run     func() (time.Duration, error) // does the work once and returns its CPU time
	calls   int                           // calls per burst
	nominal time.Duration                 // CPU time per call on the nominal machine
	close   func()
}

// Kernel shape: a breadth-first search over a sparse graph (pointer
// chasing), a hash map filled and probed (the scheduler's bread and butter)
// and a sort, all on buffers allocated once, so the kernel never allocates
// and the garbage collector's pacing cannot couple it to the program.
const (
	kernelNodes  = 1 << 13
	kernelDegree = 4
	kernelKeys   = 1 << 12
	kernelSort   = 1 << 12
)

type kernel struct {
	adjStart []int32
	adj      []int32
	dist     []int32
	queue    []int32
	keys     []uint32
	table    map[uint32]uint32
	sortSrc  []uint32
	sortBuf  []uint32
	round    int
	sink     uint64
}

func newKernel() *kernel {
	k := &kernel{
		adjStart: make([]int32, kernelNodes+1),
		adj:      make([]int32, kernelNodes*kernelDegree),
		dist:     make([]int32, kernelNodes),
		queue:    make([]int32, 0, kernelNodes),
		keys:     make([]uint32, kernelKeys),
		table:    make(map[uint32]uint32, kernelKeys),
		sortSrc:  make([]uint32, kernelSort),
		sortBuf:  make([]uint32, kernelSort),
	}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return uint32(x >> 32)
	}
	for v := 0; v < kernelNodes; v++ {
		k.adjStart[v] = int32(v * kernelDegree)
		for e := 0; e < kernelDegree; e++ {
			k.adj[v*kernelDegree+e] = int32(rnd() % kernelNodes)
		}
	}
	k.adjStart[kernelNodes] = int32(len(k.adj))
	for i := range k.keys {
		k.keys[i] = rnd()
	}
	for i := range k.sortSrc {
		k.sortSrc[i] = rnd()
	}
	return k
}

// call runs the kernel once. The result feeds a sink so that no part of it
// can be optimized away.
func (k *kernel) call() {
	src := int32(k.round % kernelNodes)
	k.round++
	for i := range k.dist {
		k.dist[i] = -1
	}
	k.dist[src] = 0
	q := append(k.queue[:0], src)
	for h := 0; h < len(q); h++ {
		v := q[h]
		for _, w := range k.adj[k.adjStart[v]:k.adjStart[v+1]] {
			if k.dist[w] < 0 {
				k.dist[w] = k.dist[v] + 1
				q = append(q, w)
			}
		}
	}
	k.queue = q
	clear(k.table)
	for i, key := range k.keys {
		k.table[key%(kernelKeys*2)] += uint32(i)
	}
	var hits uint64
	for _, key := range k.keys {
		hits += uint64(k.table[key%(kernelKeys*3)])
	}
	copy(k.sortBuf, k.sortSrc)
	slices.Sort(k.sortBuf)
	k.sink += hits + uint64(len(q)) + uint64(k.sortBuf[k.round%kernelSort])
}

// kernelReference runs the kernel on the calling goroutine, held on its OS
// thread so that the thread's CPU clock times each call: 20 calls a burst,
// 1 ms a call on the nominal machine.
func kernelReference() reference {
	k := newKernel()
	k.call() // first touch of the buffers
	return reference{
		name: "kernel",
		run: func() (time.Duration, error) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			k.call()
			return threadCPU() - c0, nil
		},
		calls:   20,
		nominal: time.Millisecond,
		close:   func() {},
	}
}

// echoBody and echoReply size the echo round trip like a scheduling
// request and a cached reply.
const (
	echoBody  = 1 << 10
	echoReply = 2 << 10
)

// echoReference serves a fixed reply from a plain net/http server on
// loopback to one keep-alive client. A call is one round trip, timed on
// the process's CPU clock since both ends run in this process: 200 calls a
// burst, 25 us a call on the nominal machine.
func echoReference() (reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return reference{}, err
	}
	reply := bytes.Repeat([]byte{'r'}, echoReply)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // drained, so the connection is reused
		_, _ = w.Write(reply)
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns once close shuts the server
	}()
	hc := newClient()
	url := "http://" + ln.Addr().String() + "/echo"
	body := bytes.Repeat([]byte{'q'}, echoBody)
	return reference{
		name: "echo",
		run: func() (time.Duration, error) {
			c0 := processCPU()
			resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				return 0, fmt.Errorf("echo: %w", err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			d := processCPU() - c0
			switch {
			case err != nil:
				return 0, fmt.Errorf("echo: read reply: %w", err)
			case resp.StatusCode != http.StatusOK || n != echoReply:
				return 0, fmt.Errorf("echo: HTTP %d with %d bytes", resp.StatusCode, n)
			}
			return d, nil
		},
		calls:   200,
		nominal: 25 * time.Microsecond,
		close: func() {
			hc.CloseIdleConnections()
			_ = hs.Close()
			<-served
		},
	}, nil
}

// calibrator interleaves bursts of a reference with a workload and derives
// the run's scale from them.
type calibrator struct {
	ref     reference
	next    time.Time
	bursts  int
	perCall []float64 // CPU seconds of every call so far
	err     error     // the first failed call; the run fails with it
}

// calibEvery is the wall-clock time between bursts; a burst takes about a
// twentieth of it.
const calibEvery = 400 * time.Millisecond

func newCalibrator(ref reference) *calibrator {
	return &calibrator{ref: ref, next: time.Now().Add(calibEvery)}
}

// burst runs one burst. A nil calibrator does nothing.
func (c *calibrator) burst() {
	if c == nil || c.err != nil {
		return
	}
	runtime.GC() // the burst starts with no collection in progress
	for j := 0; j < c.ref.calls; j++ {
		d, err := c.ref.run()
		if err != nil {
			c.err = err
			return
		}
		c.perCall = append(c.perCall, d.Seconds())
	}
	c.bursts++
	c.next = time.Now().Add(calibEvery)
}

// due runs a burst when one is due and returns the wall time it took, so
// that callers can leave it out of the workload's time.
func (c *calibrator) due() time.Duration {
	if c == nil || time.Now().Before(c.next) {
		return 0
	}
	start := time.Now()
	c.burst()
	return time.Since(start)
}

// scale is the reference's nominal CPU time per call over its median in
// this run: the factor that turns a CPU time measured in this run into the
// time on the nominal machine.
func (c *calibrator) scale() float64 {
	return c.ref.nominal.Seconds() / median(c.perCall)
}

func (c *calibrator) line() string {
	return fmt.Sprintf("calibration: scale %.4f (%s median %.2f us of CPU per call, %d calls in %d bursts; nominal %.2f us)",
		c.scale(), c.ref.name, median(c.perCall)*1e6, len(c.perCall), c.bursts, c.ref.nominal.Seconds()*1e6)
}

// reportTimings sets and prints the timing metrics of an untraced run.
// setups are the CPU seconds of each set-up; rates are the operations per
// CPU second of each group of operations (a pass or a block); groups hold
// the CPU milliseconds of every operation, by group. All are unscaled.
// wallRates and wallLat are the wall-clock counterparts, printed for
// reference only. p50_ms and p95_ms are medians over the groups of each
// group's percentile: a tail made of a few long operations repeated every
// pass would otherwise be the largest of their noisy repeats.
func (r *result) reportTimings(cal *calibrator, ops, groupName string, setups, rates []float64, groups [][]float64, wallRates, wallLat []float64) {
	sc := cal.scale()
	var all, p50s, p95s []float64
	for _, g := range groups {
		s := make([]float64, len(g))
		for i, v := range g {
			s[i] = v * sc
		}
		all = append(all, s...)
		sort.Float64s(s)
		v50, _ := quantile(s, bpP50)
		v95, _ := quantile(s, bpP95)
		p50s = append(p50s, v50)
		p95s = append(p95s, v95)
	}
	r.set("setup_s", median(setups)*sc)
	r.set("ops_per_s", median(rates)/sc)
	r.set("p50_ms", median(p50s))
	r.set("p95_ms", median(p95s))
	r.addLine("%s", cal.line())
	r.addLine("setup_s    %.6f s (median of %d set-ups; %.6f s of CPU unscaled)", median(setups)*sc, len(setups), median(setups))
	r.addLine("ops_per_s  %.4f %s/s (median of %d %s; %.4f unscaled, %.4f in wall-clock time)",
		median(rates)/sc, ops, len(rates), groupName, median(rates), median(wallRates))
	r.addLine("p50_ms     %.4f ms (median over the %d %s of each one's median)", median(p50s), len(groups), groupName)
	r.addLine("p95_ms     %.4f ms (median over the %d %s of each one's 95th percentile)", median(p95s), len(groups), groupName)
	r.report = append(r.report, summarize(all, "ms").lines("all")...)
	w := summarize(wallLat, "ms")
	r.addLine("  wall-clock median %.4f ms, p95 %.4f ms (n=%d)", w.p50, w.p95, w.n)
}
