// Command gpcoordd is the cluster coordinator: it fronts a fleet of
// gpserved workers, tracking their health through registrations and
// heartbeats (ready / suspect / dead), routing /v1/schedule by rendezvous
// hashing on the request's content-address key (identical requests land on
// the same worker, whose LRU becomes one shard of a distributed cache),
// failing requests over to surviving nodes, and running async sweep jobs
// (POST /v1/jobs) whose cells are sharded across the fleet and re-placed
// by the reconciliation loop when a worker dies. SIGINT/SIGTERM drain
// in-flight work before exit.
//
// With -journal the coordinator is durable: every registration, job and
// completed cell is appended to a CRC-framed journal in that directory,
// and a restarted gpcoordd pointed at the same directory replays it,
// re-adopts the fleet (suspect until the next heartbeat) and resumes
// unfinished jobs where they left off. An unwritable or version-mismatched
// journal directory fails startup rather than running silently
// non-durable.
//
// Usage:
//
//	gpcoordd [-addr :8038] [-heartbeat 2s] [-suspect-after 6s] [-dead-after 12s]
//	         [-job-workers N] [-cell-attempts N] [-journal DIR] [-load-bound 1.25]
//	         [-shadow-rate R] [-shadow-canary ID] [-log-format text|json]
//	         [-debug-addr ADDR] [-drain 30s]
//
// Placement is bounded-load rendezvous hashing: -load-bound sets the
// factor c past which a key's HRW owner (at more than c×mean in-flight
// requests) spills work to the next-ranked ready node. <=0 disables
// spilling (pure HRW).
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
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
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

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpcoordd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8038", "listen address")
	hb := fs.Duration("heartbeat", 2*time.Second, "heartbeat cadence told to registering workers")
	suspectAfter := fs.Duration("suspect-after", 0, "heartbeat age that marks a node suspect (0 = 3× -heartbeat)")
	deadAfter := fs.Duration("dead-after", 0, "heartbeat age that marks a node dead and re-places its work (0 = 6× -heartbeat)")
	jobWorkers := fs.Int("job-workers", 4, "concurrently dispatched cells per sweep job")
	cellAttempts := fs.Int("cell-attempts", 8, "workers one job cell is tried on before the job fails")
	journalDir := fs.String("journal", "", "journal directory for durable coordinator state (empty = in-memory, nothing survives a restart)")
	shadowRate := fs.Float64("shadow-rate", 0, "fraction of proxied schedule hits replayed against a second worker and byte-compared (0 = off, 1 = all)")
	shadowCanary := fs.String("shadow-canary", "", "node ID every shadow replay targets (empty = the next HRW-ranked worker)")
	loadBound := fs.Float64("load-bound", 1.25, "bounded-load factor c: a key spills past its HRW owner once the owner exceeds c×mean in-flight (<=0 disables spilling)")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	debugAddr := fs.String("debug-addr", "", "listen address for the pprof debug server (empty = off)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := cluster.Config{
		HeartbeatInterval: *hb,
		SuspectAfter:      *suspectAfter,
		DeadAfter:         *deadAfter,
		JobWorkers:        *jobWorkers,
		MaxCellAttempts:   *cellAttempts,
		ShadowRate:        *shadowRate,
		ShadowCanary:      *shadowCanary,
	}
	if *loadBound <= 0 {
		cfg.LoadBound = -1
	} else {
		cfg.LoadBound = *loadBound
	}

	if *journalDir != "" {
		j, err := store.OpenJournal(*journalDir, store.JournalOptions{})
		if err != nil {
			fmt.Fprintf(stderr, "gpcoordd: %v\n", err)
			return 1
		}
		cfg.Store = j
	}
	logger, err := obs.NewLogger(*logFormat, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "gpcoordd: %v\n", err)
		return 2
	}
	cfg.Logger = logger

	coord, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "gpcoordd: %v\n", err)
		return 1
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "gpcoordd: debug listener: %v\n", err)
			coord.Close()
			return 1
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, pprofMux()) }()
		fmt.Fprintf(stdout, "gpcoordd debug (pprof) on %s\n", dln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gpcoordd: %v\n", err)
		coord.Close()
		return 1
	}
	hs := &http.Server{Handler: coord.Handler()}
	fmt.Fprintf(stdout, "gpcoordd listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "gpcoordd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, wait out in-flight proxied requests,
	// then stop the reconciler and abort still-running jobs — all within
	// the -drain budget so a supervisor's grace period is respected.
	fmt.Fprintln(stdout, "gpcoordd: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "gpcoordd: shutdown: %v (abandoning in-flight work)\n", err)
		return 1
	}
	closed := make(chan struct{})
	go func() { coord.Close(); close(closed) }()
	select {
	case <-closed:
		fmt.Fprintln(stdout, "gpcoordd: drained, bye")
		return 0
	case <-shutCtx.Done():
		fmt.Fprintln(stderr, "gpcoordd: drain budget exceeded, abandoning running jobs")
		return 1
	}
}
