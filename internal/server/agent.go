package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The node-lifecycle wire protocol between a gpserved worker and the
// gpcoordd coordinator. The types live here (not in internal/cluster) so
// the dependency stays one-way: cluster imports server for them, never the
// reverse.

// RegisterRequest is the body of POST /v1/nodes/register: a worker
// announcing itself (or re-announcing after a coordinator restart).
type RegisterRequest struct {
	// ID is the worker's stable identity; re-registering an existing ID
	// updates its endpoint and capacity and resets it to ready.
	ID string `json:"id"`
	// Endpoint is the base URL other nodes reach this worker at.
	Endpoint string `json:"endpoint"`
	// Capacity is the worker's scheduling-goroutine count, exported for
	// observability and future load-aware placement.
	Capacity int `json:"capacity"`
	// AlgoVersion is the worker's complete algorithm identity (version
	// plus option suffixes). The coordinator refuses to mix fragments from
	// different versions within one sweep job and uses it to attribute
	// shadow-verify divergence.
	AlgoVersion string `json:"algo_version,omitempty"`
	// SchemaVersion is the worker's wire-codec identity (the SchemaVersion
	// constant of its build). The coordinator refuses registrations whose
	// schema differs from the fleet's: mixed codecs could relay bodies a
	// client of the other generation cannot parse. Empty is legal (a
	// pre-schema worker) and accepted for compatibility.
	SchemaVersion string `json:"schema_version,omitempty"`
	// Epoch is the worker's cache epoch at registration.
	Epoch uint64 `json:"epoch,omitempty"`
}

// RegisterResponse acknowledges a registration and tells the worker how
// often the coordinator expects heartbeats and which cache epoch the
// fleet is at (a worker joining after a flush converges immediately).
type RegisterResponse struct {
	HeartbeatMillis int    `json:"heartbeat_millis"`
	Epoch           uint64 `json:"epoch,omitempty"`
}

// HeartbeatRequest is the body of POST /v1/nodes/heartbeat and
// /v1/nodes/deregister.
type HeartbeatRequest struct {
	ID string `json:"id"`
	// AlgoVersion and Epoch piggyback the worker's current identity on
	// every heartbeat, so the coordinator's registry tracks them live.
	AlgoVersion string `json:"algo_version,omitempty"`
	// SchemaVersion piggybacks the worker's wire-codec identity (see
	// RegisterRequest.SchemaVersion).
	SchemaVersion string `json:"schema_version,omitempty"`
	Epoch         uint64 `json:"epoch,omitempty"`
	// Load, when present, reports the worker's live load signals; the
	// coordinator surfaces them on GET /v1/fleet/nodes.
	Load *LoadReport `json:"load,omitempty"`
}

// LoadReport is a worker's live load signal, piggybacked on heartbeats.
type LoadReport struct {
	// Inflight is the number of requests the worker is serving right now.
	Inflight int64 `json:"inflight"`
	// Shed is the worker's cumulative 429 count.
	Shed int64 `json:"shed"`
	// P99Micros is the rolling p99 latency of served requests.
	P99Micros float64 `json:"p99_micros"`
}

// HeartbeatResponse carries the fleet cache epoch back on every beat: a
// worker that missed the flush fan-out (restarting, partitioned) catches
// up within one heartbeat interval.
type HeartbeatResponse struct {
	Epoch uint64 `json:"epoch,omitempty"`
}

// FlushRequest is the body of POST /v1/cache/flush on both daemons. Epoch
// names the fleet epoch to converge to; zero (or an empty body) means
// "bump by one".
type FlushRequest struct {
	Epoch uint64 `json:"epoch,omitempty"`
}

// FlushResponse reports the cache epoch now in force after a flush.
type FlushResponse struct {
	Epoch uint64 `json:"epoch"`
}

// AgentConfig tunes a worker's coordinator-registration agent.
type AgentConfig struct {
	// Coordinator is the gpcoordd base URL, e.g. http://10.0.0.1:8038.
	Coordinator string
	// NodeID is this worker's stable identity.
	NodeID string
	// Endpoint is the advertised base URL of this worker.
	Endpoint string
	// Capacity is the advertised scheduling-goroutine count.
	Capacity int
	// Interval overrides the heartbeat cadence; 0 adopts the coordinator's
	// suggestion from the register response (2s until registered).
	Interval time.Duration
	// AlgoVersion is the worker's advertised algorithm identity
	// (Server.AlgoVersion()). Empty is legal for tests.
	AlgoVersion string
	// SchemaVersion is the advertised wire-codec identity. Empty defaults
	// to the SchemaVersion constant of this build; tests may override.
	SchemaVersion string
	// Load, when set, samples the worker's live load signals for each
	// heartbeat (normally Server.Load).
	Load func() LoadReport
	// Epoch, when set, reports the worker's current cache epoch; it is
	// sent with every register and heartbeat.
	Epoch func() uint64
	// ApplyEpoch, when set, receives the fleet cache epoch whenever the
	// coordinator reports one ahead of ours (normally Server.FlushTo), so
	// a worker that missed a flush converges instead of serving stale
	// bytes forever.
	ApplyEpoch func(epoch uint64)
	// Logger, when set, receives structured agent lifecycle events (node
	// and coordinator identities as fields). Nil drops them.
	Logger *slog.Logger
}

func (c AgentConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 2 * time.Second
}

// Agent keeps a worker registered with its coordinator: an initial
// register (retried until it lands — the coordinator may boot after the
// workers), a periodic heartbeat, re-registration when the coordinator
// forgot us (its restart loses the in-memory registry, so a heartbeat for
// an unknown ID answers 404), and a best-effort deregister on Close so a
// graceful worker shutdown never has to wait out the dead-node detector.
type Agent struct {
	cfg        AgentConfig
	log        *slog.Logger
	client     *http.Client
	cancel     context.CancelFunc
	done       chan struct{}
	registered atomic.Bool
}

// StartAgent launches the registration loop and returns immediately; the
// loop keeps retrying until the coordinator accepts the registration.
func StartAgent(cfg AgentConfig) *Agent {
	if cfg.SchemaVersion == "" {
		cfg.SchemaVersion = SchemaVersion
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		cfg:    cfg,
		log:    log.With("node", cfg.NodeID, "coordinator", cfg.Coordinator),
		client: &http.Client{Timeout: 5 * time.Second},
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go a.loop(ctx)
	return a
}

// Registered reports whether the last register/heartbeat round-trip
// succeeded (tests and /healthz handlers poll it).
func (a *Agent) Registered() bool { return a.registered.Load() }

// Close stops the loop and best-effort deregisters from the coordinator.
func (a *Agent) Close() {
	a.cancel()
	<-a.done
	if a.registered.Load() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = a.post(ctx, "/v1/nodes/deregister", HeartbeatRequest{ID: a.cfg.NodeID}, nil)
		a.registered.Store(false)
	}
}

func (a *Agent) loop(ctx context.Context) {
	defer close(a.done)
	interval := a.cfg.interval()
	for {
		if !a.registered.Load() {
			var resp RegisterResponse
			err := a.post(ctx, "/v1/nodes/register", RegisterRequest{
				ID:            a.cfg.NodeID,
				Endpoint:      a.cfg.Endpoint,
				Capacity:      a.cfg.Capacity,
				AlgoVersion:   a.cfg.AlgoVersion,
				SchemaVersion: a.cfg.SchemaVersion,
				Epoch:         a.epoch(),
			}, &resp)
			switch {
			case err == nil:
				a.registered.Store(true)
				if a.cfg.Interval == 0 && resp.HeartbeatMillis > 0 {
					interval = time.Duration(resp.HeartbeatMillis) * time.Millisecond
				}
				a.converge(resp.Epoch)
				a.log.Info("registered with coordinator", "heartbeat", interval.String())
			case ctx.Err() == nil:
				a.log.Warn("register failed, will retry", "err", err.Error())
			}
		} else {
			var resp HeartbeatResponse
			hb := HeartbeatRequest{
				ID:            a.cfg.NodeID,
				AlgoVersion:   a.cfg.AlgoVersion,
				SchemaVersion: a.cfg.SchemaVersion,
				Epoch:         a.epoch(),
			}
			if a.cfg.Load != nil {
				rep := a.cfg.Load()
				hb.Load = &rep
			}
			err := a.post(ctx, "/v1/nodes/heartbeat", hb, &resp)
			var se *statusError
			switch {
			case err == nil:
				a.converge(resp.Epoch)
			case errors.As(err, &se) && (se.code == http.StatusNotFound || se.code == http.StatusGone):
				// The coordinator restarted and lost the registry: fall back
				// to the register path next tick.
				a.registered.Store(false)
				a.log.Warn("coordinator forgot node, re-registering")
			case ctx.Err() == nil:
				a.log.Warn("heartbeat failed", "err", err.Error())
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

func (a *Agent) epoch() uint64 {
	if a.cfg.Epoch == nil {
		return 0
	}
	return a.cfg.Epoch()
}

// converge pulls the worker's cache epoch up to the fleet's. Only forward:
// the fleet epoch is monotonic, and a zero from an older coordinator (or
// an empty response body) is a no-op.
func (a *Agent) converge(fleet uint64) {
	if a.cfg.ApplyEpoch == nil || fleet == 0 || fleet <= a.epoch() {
		return
	}
	a.cfg.ApplyEpoch(fleet)
	a.log.Info("converged to fleet cache epoch", "epoch", fleet)
}

// post sends a JSON body and decodes a JSON response into out (when
// non-nil). Non-2xx statuses come back as *statusError.
func (a *Agent) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &statusError{code: resp.StatusCode}
	}
	if out != nil {
		// An empty 2xx body (a 204, or an older coordinator) is "no
		// information", not a protocol error: leave out at its zero value.
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
	}
	return nil
}

type statusError struct{ code int }

func (e *statusError) Error() string { return fmt.Sprintf("coordinator answered HTTP %d", e.code) }
