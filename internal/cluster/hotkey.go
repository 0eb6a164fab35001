package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
)

// The Zipf hot-key benchmark: proof that bounded-load placement converts a
// skewed workload's owner bottleneck into fleet-wide throughput without
// changing a byte of any response.
//
// A plain in-process fleet cannot show the effect — cache hits cost
// nanoseconds, so one owner absorbs any skew. Each worker is therefore
// wrapped in a serve gate (ServeSlots concurrent requests, ServeDelay each)
// modeling a node with finite serving capacity, the same way for every
// phase. Three phases run, each on a freshly booted coordinator + fleet:
//
//  1. uniform traffic, spilling enabled — the throughput ceiling;
//  2. Zipf-skewed traffic, spilling disabled — pure HRW pins the hot key
//     to its owner, collapsing throughput toward one node's capacity;
//  3. the identical Zipf traffic, spilling enabled — the owner sheds the
//     hot key's overflow down the HRW ranking, and throughput climbs back
//     toward the uniform ceiling.
//
// The hottest key's response bytes are captured in every phase and must be
// identical across all of them: spilling moves computation, never output.

// HotKeyOptions tunes MeasureHotKey.
type HotKeyOptions struct {
	// Requests is the per-phase request count (default 600).
	Requests int
	// Concurrency is the number of client goroutines (default 24).
	Concurrency int
	// Workers is the fleet size (default 3).
	Workers int
	// ZipfS is the skew exponent (default 2.0: the hottest of 81 keys
	// draws ~60% of the traffic).
	ZipfS float64
	// Seed fixes the Zipf sequence (default 1).
	Seed int64
	// ServeSlots is each worker's concurrent-serve capacity (default 2).
	ServeSlots int
	// ServeDelay is the modeled per-request service time (default 5ms).
	ServeDelay time.Duration
}

func (o HotKeyOptions) requests() int {
	if o.Requests > 0 {
		return o.Requests
	}
	return 600
}

func (o HotKeyOptions) concurrency() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	return 24
}

func (o HotKeyOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 3
}

func (o HotKeyOptions) zipfS() float64 {
	if o.ZipfS > 1 {
		return o.ZipfS
	}
	return 2.0
}

func (o HotKeyOptions) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o HotKeyOptions) serveSlots() int {
	if o.ServeSlots > 0 {
		return o.ServeSlots
	}
	return 2
}

func (o HotKeyOptions) serveDelay() time.Duration {
	if o.ServeDelay > 0 {
		return o.ServeDelay
	}
	return 5 * time.Millisecond
}

// hotKeyBodies builds n distinct trivially-cheap schedule requests. The
// benchmark deliberately does not use the heavyweight perf mix: real
// scheduling cost would swamp the serve gate and the phases would measure
// compute, not placement. With near-free bodies the gate is each worker's
// entire capacity, which is the regime where placement policy decides
// throughput.
func hotKeyBodies(n int) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		loop := fmt.Sprintf(`loop hot%d 100
node 0 Load a[i]
node 1 FPMul *c
node 2 FPAdd +s
node 3 Store s=
edge 0 1 2 0 data
edge 1 2 4 0 data
edge 2 3 4 0 data
edge 2 2 4 1 data
`, i)
		b, err := json.Marshal(map[string]any{
			"loop_text": loop,
			"clusters":  2, "regs": 32, "nbus": 1, "latbus": 1,
			"scheme": "GP",
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// hotKeyPhase boots a fresh coordinator + serve-gated fleet, drives the
// request sequence through it, and returns requests/sec, the spill count,
// shed/error counts, and the hottest key's response bytes.
func hotKeyPhase(cfg Config, opts HotKeyOptions, bodies [][]byte, seq []int) (perSec float64, spills int64, rejected, errs int, hotBody []byte, err error) {
	cfg.Store = nil // every phase owns a fresh in-memory store
	coord, err := New(cfg)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return 0, 0, 0, 0, nil, err
	}
	chs := &http.Server{Handler: coord.Handler()}
	go func() { _ = chs.Serve(cln) }()
	defer func() {
		_ = chs.Close()
		coord.Close()
	}()
	base := "http://" + cln.Addr().String()

	type worker struct {
		srv   *server.Server
		hs    *http.Server
		agent *server.Agent
	}
	var fleet []worker
	defer func() {
		for _, w := range fleet {
			w.agent.Close()
			_ = w.hs.Close()
			w.srv.Close()
		}
	}()
	for i := 0; i < opts.workers(); i++ {
		id := fmt.Sprintf("hot-worker-%d", i)
		srv := server.New(server.Config{NodeID: id})
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return 0, 0, 0, 0, nil, lerr
		}
		// The serve gate: ServeSlots concurrent requests, ServeDelay each —
		// a node with finite capacity, applied identically in every phase so
		// the phases differ only in traffic shape and placement policy.
		gate := make(chan struct{}, opts.serveSlots())
		inner := srv.Handler()
		gated := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			gate <- struct{}{}
			defer func() { <-gate }()
			time.Sleep(opts.serveDelay())
			inner.ServeHTTP(w, r)
		})
		hs := &http.Server{Handler: gated}
		go func() { _ = hs.Serve(ln) }()
		agent := server.StartAgent(server.AgentConfig{
			Coordinator: base,
			NodeID:      id,
			Endpoint:    "http://" + ln.Addr().String(),
			Capacity:    runtime.GOMAXPROCS(0),
			Load:        srv.Load,
		})
		fleet = append(fleet, worker{srv: srv, hs: hs, agent: agent})
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := 0
		for _, n := range coord.Nodes() {
			if n.State == NodeReady.String() {
				ready++
			}
		}
		if ready == opts.workers() {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, 0, 0, nil, fmt.Errorf("cluster: only %d/%d hot-key workers registered", ready, opts.workers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	total := len(seq)
	client := &http.Client{}
	var next atomic.Int64
	var errCount, shedCount atomic.Int64
	var hotMu sync.Mutex
	var hot []byte
	hotMismatch := false

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.concurrency(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				idx := seq[i]
				resp, err := client.Post(base+"/v1/schedule", "application/json", bytes.NewReader(bodies[idx]))
				if err != nil {
					errCount.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					shedCount.Add(1)
				case resp.StatusCode != http.StatusOK:
					errCount.Add(1)
				case idx == 0:
					// The hottest key: every response must be byte-identical
					// no matter which node the bound placed it on.
					hotMu.Lock()
					if hot == nil {
						hot = body
					} else if !bytes.Equal(hot, body) {
						hotMismatch = true
					}
					hotMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if hotMismatch {
		return 0, 0, 0, 0, nil, fmt.Errorf("cluster: hot-key responses diverged within one phase")
	}
	return float64(total) / elapsed.Seconds(), coord.metrics.spills.Load(),
		int(shedCount.Load()), int(errCount.Load()), hot, nil
}

// MeasureHotKey runs the three-phase hot-key benchmark and returns its
// snapshot (embedded in BENCH_cluster.json by gpcoordd -bench-json).
// cfg.Store is ignored; each phase boots on a fresh in-memory store.
func MeasureHotKey(cfg Config, opts HotKeyOptions) (*bench.HotKeySnapshot, error) {
	bodies, err := hotKeyBodies(81)
	if err != nil {
		return nil, err
	}

	total := opts.requests()
	// The skewed sequence is drawn once and replayed verbatim in both hot
	// phases: the no-spill and spill measurements see the exact same
	// traffic, so the only difference between them is the placement policy.
	sampler := bench.NewZipfSampler(opts.seed(), opts.zipfS(), uint64(len(bodies)-1))
	hotSeq := make([]int, total)
	hotCount := 0
	for i := range hotSeq {
		hotSeq[i] = int(sampler.Next())
		if hotSeq[i] == 0 {
			hotCount++
		}
	}
	uniformSeq := make([]int, total)
	for i := range uniformSeq {
		uniformSeq[i] = i % len(bodies)
	}

	spillCfg := cfg
	spillCfg.LoadBound = cfg.withDefaults().LoadBound // default 1.25 unless overridden
	noSpillCfg := cfg
	noSpillCfg.LoadBound = -1 // pure HRW: the owner takes everything

	uniformPerSec, _, shed1, err1, hot1, uerr := hotKeyPhase(spillCfg, opts, bodies, uniformSeq)
	if uerr != nil {
		return nil, uerr
	}
	noSpillPerSec, _, shed2, err2, hot2, nerr := hotKeyPhase(noSpillCfg, opts, bodies, hotSeq)
	if nerr != nil {
		return nil, nerr
	}
	spillPerSec, spills, shed3, err3, hot3, serr := hotKeyPhase(spillCfg, opts, bodies, hotSeq)
	if serr != nil {
		return nil, serr
	}
	// Across phases too: a spilled hot key must serve the same bytes the
	// unspilled owner did.
	if !bytes.Equal(hot1, hot2) || !bytes.Equal(hot2, hot3) {
		return nil, fmt.Errorf("cluster: hot-key responses diverged across phases")
	}

	snap := &bench.HotKeySnapshot{
		Workers:          opts.workers(),
		Requests:         total,
		Concurrency:      opts.concurrency(),
		ZipfS:            opts.zipfS(),
		ZipfSeed:         opts.seed(),
		UniqueKeys:       len(bodies),
		HotKeyShare:      float64(hotCount) / float64(total),
		LoadBound:        spillCfg.LoadBound,
		UniformPerSec:    uniformPerSec,
		HotNoSpillPerSec: noSpillPerSec,
		HotSpillPerSec:   spillPerSec,
		Spills:           spills,
		Errors:           err1 + err2 + err3,
		Rejected:         shed1 + shed2 + shed3,
	}
	if noSpillPerSec > 0 {
		snap.SpeedupVsNoSpill = spillPerSec / noSpillPerSec
	}
	if spillPerSec > 0 {
		snap.UniformOverSpill = uniformPerSec / spillPerSec
	}
	return snap, nil
}
