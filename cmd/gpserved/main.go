// Command gpserved is the scheduling-as-a-service daemon: it serves the
// paper's GP/Fixed/URACAM schedulers over HTTP with a content-addressed
// result cache, singleflight coalescing of identical in-flight requests,
// and a bounded worker pool that sheds load with 429 + Retry-After when
// saturated. SIGINT/SIGTERM drain in-flight work before exit.
//
// Usage:
//
//	gpserved [-addr :8037] [-workers N] [-queue N] [-cache N]
//	gpserved -coordinator http://host:8038 [-advertise URL] [-node-id ID]
//
// With -coordinator the daemon joins a gpcoordd fleet: it registers with
// its capacity and advertised endpoint, heartbeats on the coordinator's
// cadence, re-registers if the coordinator restarts, and deregisters
// before draining on SIGTERM so the coordinator stops routing to it
// immediately instead of waiting out the dead-node detector.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// pprofMux serves the net/http/pprof handlers on an explicit mux, so the
// profiling surface exists only on -debug-addr and never rides on the
// service listener (http.DefaultServeMux is deliberately unused).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// capacity resolves the advertised worker-goroutine count the same way the
// server's pool does.
func capacity(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8037", "listen address")
	workers := fs.Int("workers", 0, "scheduling worker goroutines (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "bounded queue depth before 429 backpressure")
	cacheN := fs.Int("cache", 1024, "LRU result-cache entries")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	coordinator := fs.String("coordinator", "", "gpcoordd base URL; register this worker and keep it heartbeating")
	advertise := fs.String("advertise", "", "base URL the coordinator should route to (default http://<listen addr>)")
	nodeID := fs.String("node-id", "", "stable worker identity (default the advertised host:port)")
	heartbeat := fs.Duration("heartbeat-interval", 0, "heartbeat cadence override (0 = the coordinator's suggestion)")
	algoVersion := fs.String("algo-version", "", "advertised algorithm version override (default the compiled-in schedule.AlgoVersion; canary deploys set this)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	debugAddr := fs.String("debug-addr", "", "listen address for the pprof debug server (empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := server.Config{Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheN,
		AlgoVersion: *algoVersion}

	logger, err := obs.NewLogger(*logFormat, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "gpserved: %v\n", err)
		return 2
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "gpserved: debug listener: %v\n", err)
			return 1
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, pprofMux()) }()
		fmt.Fprintf(stdout, "gpserved debug (pprof) on %s\n", dln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gpserved: %v\n", err)
		return 1
	}
	endpoint := *advertise
	if endpoint == "" {
		endpoint = "http://" + ln.Addr().String()
	}
	id := *nodeID
	if id == "" {
		id = strings.TrimPrefix(strings.TrimPrefix(endpoint, "https://"), "http://")
	}
	if *coordinator != "" {
		// The node identity rides on every response so the coordinator's
		// routing is observable end-to-end.
		cfg.NodeID = id
	}
	srv := server.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "gpserved listening on %s\n", ln.Addr())

	var agent *server.Agent
	if *coordinator != "" {
		agent = server.StartAgent(server.AgentConfig{
			Coordinator: *coordinator,
			NodeID:      id,
			Endpoint:    endpoint,
			Capacity:    capacity(cfg.Workers),
			Interval:    *heartbeat,
			AlgoVersion: srv.AlgoVersion(),
			Load:        srv.Load,
			Epoch:       srv.Epoch,
			ApplyEpoch:  func(e uint64) { srv.FlushTo(e) },
			Logger:      logger,
		})
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		if agent != nil {
			agent.Close()
		}
		fmt.Fprintf(stderr, "gpserved: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Leave the fleet before draining: a deregistered worker stops
	// receiving placements at once, so the drain below only has to finish
	// work already in flight.
	if agent != nil {
		agent.Close()
		fmt.Fprintln(stdout, "gpserved: deregistered from coordinator")
	}

	// Graceful drain: stop accepting, wait out in-flight handlers, then
	// drain the worker pool's queue — all within the -drain budget, so a
	// supervisor's termination grace period is respected even when a long
	// sweep is mid-flight (the process exits and abandons it rather than
	// earn a SIGKILL).
	fmt.Fprintln(stdout, "gpserved: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "gpserved: shutdown: %v (abandoning in-flight work)\n", err)
		return 1
	}
	poolDone := make(chan struct{})
	go func() { srv.Close(); close(poolDone) }()
	select {
	case <-poolDone:
		fmt.Fprintln(stdout, "gpserved: drained, bye")
		return 0
	case <-shutCtx.Done():
		fmt.Fprintln(stderr, "gpserved: drain budget exceeded, abandoning queued work")
		return 1
	}
}
