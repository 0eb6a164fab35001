package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// NodeState is a worker's position in the health lifecycle. Registration
// and heartbeats move a node toward NodeReady; missed heartbeats walk it
// through NodeSuspect to NodeDead; a proxy failure short-circuits straight
// to NodeSuspect without waiting for the detector.
type NodeState int

const (
	// NodeReady nodes receive new placements.
	NodeReady NodeState = iota
	// NodeSuspect nodes missed at least the suspect threshold of
	// heartbeats (or just failed a proxied request). They receive no new
	// placements while any ready node remains, but keep their in-flight
	// work: a suspect node may merely be slow, and yanking its work early
	// would duplicate computation.
	NodeSuspect
	// NodeDead nodes missed the dead threshold. The reconciler cancels and
	// re-places everything assigned to them; only a fresh heartbeat or
	// re-registration revives them.
	NodeDead
)

func (s NodeState) String() string {
	switch s {
	case NodeReady:
		return "ready"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// node is a registered worker. Immutable fields are set at registration;
// the mutable tail is guarded by the registry mutex, except the counters,
// which are atomic so the proxy path never takes the registry lock just to
// count.
type node struct {
	id       string
	endpoint string
	capacity int

	state         NodeState
	lastHeartbeat time.Time
	// algoVersion is the worker's advertised algorithm identity, refreshed
	// on every register and heartbeat. Placement refuses to mix versions
	// within one sweep job, and the shadow verifier attributes divergence
	// with it.
	algoVersion string
	// schemaVersion is the worker's advertised wire-codec identity. The
	// coordinator refuses to mix schemas in one fleet; empty means a
	// pre-schema worker and is compatible with anything.
	schemaVersion string
	// draining marks a node the operator is retiring via
	// POST /v1/fleet/nodes/{id}/drain: it stays registered and healthy but
	// attracts no new placements. Persisted so a drain survives a
	// coordinator restart.
	draining bool
	// epoch is the worker's last reported cache epoch (runtime state, like
	// health — only the worker's own reports can prove it).
	epoch uint64

	requests atomic.Int64 // proxied requests, batch loops and job cells routed here
	failures atomic.Int64 // transport errors and 5xx answers observed
	// inflight is the coordinator's own count of work outstanding on this
	// node (proxied schedule requests, batch sub-batches, sweep cells). It is the
	// load signal bounded-load placement spills on: locally maintained, so
	// it moves request-by-request instead of once per heartbeat.
	inflight atomic.Int64
	// spillOut counts placements this node — as the key's HRW owner — shed
	// to a lower-ranked node because it was over the load bound; spillIn
	// counts placements this node absorbed from an overloaded owner.
	// Together they show where a skewed workload's heat actually flows.
	spillOut atomic.Int64
	spillIn  atomic.Int64

	// Load signals the worker itself reported on its last heartbeat
	// (observability only — placement uses the coordinator-side inflight).
	repInflight atomic.Int64
	repShed     atomic.Int64
	repP99      atomic.Uint64 // math.Float64bits of p99 in microseconds
}

// NodeInfo is a point-in-time snapshot of one node, the JSON shape of
// GET /v1/fleet/nodes.
type NodeInfo struct {
	ID            string `json:"id"`
	Endpoint      string `json:"endpoint"`
	Capacity      int    `json:"capacity"`
	State         string `json:"state"`
	AlgoVersion   string `json:"algo_version,omitempty"`
	SchemaVersion string `json:"schema_version,omitempty"`
	Draining      bool   `json:"draining,omitempty"`
	Epoch         uint64 `json:"epoch"`
	// SinceHeartbeatMillis is the age of the last heartbeat.
	SinceHeartbeatMillis int64 `json:"since_heartbeat_millis"`
	Requests             int64 `json:"requests"`
	Failures             int64 `json:"failures"`
	// Inflight is the coordinator's live count of work outstanding on this
	// node — the signal bounded-load placement spills on.
	Inflight int64 `json:"inflight"`
	// SpillOut counts placements this node (as HRW owner) shed over the load
	// bound; SpillIn counts placements it absorbed from overloaded owners.
	SpillOut int64 `json:"spill_out,omitempty"`
	SpillIn  int64 `json:"spill_in,omitempty"`
	// ReportedInflight, Shed and P99Micros are the worker's own last
	// heartbeat-reported load signals.
	ReportedInflight int64   `json:"reported_inflight,omitempty"`
	Shed             int64   `json:"shed,omitempty"`
	P99Micros        float64 `json:"p99_micros,omitempty"`
}

// registry is the coordinator's node table. Registration facts (ID,
// endpoint, capacity) are persisted through the store; health is runtime
// state only heartbeats can prove, so a restarted coordinator adopts
// journaled nodes as suspect and lets the next heartbeat — or the agent's
// heartbeat-404 re-register fallback — promote them. The store and the
// registry stay reconciled: every register writes through, every removal
// (deregister, dead-node expiry) deletes through.
type registry struct {
	mu       sync.Mutex
	nodes    map[string]*node
	now      func() time.Time // injectable for lifecycle tests
	st       store.Store
	storeErr func(op string, err error) // best-effort persistence failures
}

func newRegistry(st store.Store, storeErr func(op string, err error)) *registry {
	return &registry{nodes: make(map[string]*node), now: time.Now, st: st, storeErr: storeErr}
}

// register adds or refreshes a node: a known ID gets its endpoint and
// capacity updated and its state reset to ready (the worker is plainly
// alive — it just spoke to us). The registration facts are persisted
// before the node becomes placeable; a store failure rejects the
// registration so the worker retries rather than running un-journaled.
func (r *registry) register(id, endpoint string, capacity int, algoVersion string, epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	// Draining and schema are sticky across re-registration (a drain is
	// operator intent about the node, not about one worker process), so the
	// write-through must not wipe them from the journal.
	rec := store.NodeRecord{ID: id, Endpoint: endpoint, Capacity: capacity, AlgoVersion: algoVersion}
	if ok {
		rec.SchemaVersion = n.schemaVersion
		rec.Draining = n.draining
	}
	if err := r.st.PutNode(rec); err != nil {
		return err
	}
	if !ok {
		n = &node{id: id}
		r.nodes[id] = n
	}
	n.endpoint = endpoint
	n.capacity = capacity
	n.algoVersion = algoVersion
	n.epoch = epoch
	n.state = NodeReady
	n.lastHeartbeat = r.now()
	return nil
}

// adopt seeds the registry from journaled registration facts at startup.
// Adopted nodes enter suspect — the journal proves they existed, not that
// they are alive — with a fresh heartbeat stamp so the health sweeps walk
// them to dead on the normal thresholds if they never call back. Suspect
// (not dead) matters: a mid-sweep fleet keeps receiving placements through
// the no-ready-nodes fallback while everyone's first post-restart
// heartbeat is still in flight.
func (r *registry) adopt(recs []store.NodeRecord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	adopted := 0
	for _, rec := range recs {
		if _, ok := r.nodes[rec.ID]; ok {
			continue
		}
		r.nodes[rec.ID] = &node{
			id:            rec.ID,
			endpoint:      rec.Endpoint,
			capacity:      rec.Capacity,
			algoVersion:   rec.AlgoVersion,
			schemaVersion: rec.SchemaVersion,
			draining:      rec.Draining,
			state:         NodeSuspect,
			lastHeartbeat: r.now(),
		}
		adopted++
	}
	return adopted
}

// heartbeat refreshes a node's liveness, reviving suspect and dead nodes,
// and absorbs the version and epoch the worker piggybacked on the beat (an
// empty version is an older worker and leaves the registered one alone).
// It reports false for an unknown ID: the worker must re-register so the
// coordinator relearns its endpoint and capacity.
func (r *registry) heartbeat(id, algoVersion string, epoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok {
		return false
	}
	if algoVersion != "" && algoVersion != n.algoVersion {
		n.algoVersion = algoVersion
		if err := r.st.PutNode(store.NodeRecord{ID: id, Endpoint: n.endpoint, Capacity: n.capacity, AlgoVersion: algoVersion}); err != nil {
			r.storeErr("put_node", err)
		}
	}
	n.epoch = epoch
	n.state = NodeReady
	n.lastHeartbeat = r.now()
	return true
}

// schemaConflict reports whether an incoming schema version is incompatible
// with the fleet's: some non-dead node advertises a different non-empty
// schema. Empty on either side is a pre-schema build and compatible with
// anything. It returns the conflicting fleet schema for the error message.
func (r *registry) schemaConflict(schema string) (string, bool) {
	if schema == "" {
		return "", false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if n.state != NodeDead && n.schemaVersion != "" && n.schemaVersion != schema {
			return n.schemaVersion, true
		}
	}
	return "", false
}

// noteSchema records a node's advertised wire-codec identity and persists
// it (so a restarted coordinator still refuses a mixed-schema joiner).
// Empty schemas — older workers — leave the recorded one alone.
func (r *registry) noteSchema(id, schema string) {
	if schema == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok || n.schemaVersion == schema {
		return
	}
	n.schemaVersion = schema
	rec := store.NodeRecord{ID: id, Endpoint: n.endpoint, Capacity: n.capacity,
		AlgoVersion: n.algoVersion, SchemaVersion: schema, Draining: n.draining}
	if err := r.st.PutNode(rec); err != nil {
		r.storeErr("put_node", err)
	}
}

// absorbLoad records the load signals a worker piggybacked on its
// heartbeat. Observability only: placement spills on the coordinator's own
// inflight counter, which moves request-by-request.
func (r *registry) absorbLoad(id string, inflight, shed int64, p99Micros float64) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	r.mu.Unlock()
	if !ok {
		return
	}
	n.repInflight.Store(inflight)
	n.repShed.Store(shed)
	n.repP99.Store(math.Float64bits(p99Micros))
}

// incInflight takes one in-flight slot on a node for the length of a
// forward, and decInflight releases it once the node has answered or
// failed: the coordinator-side outstanding-work count bounded-load
// placement spills on.
func (r *registry) incInflight(id string) { r.addInflight(id, 1) }
func (r *registry) decInflight(id string) { r.addInflight(id, -1) }

func (r *registry) addInflight(id string, d int64) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	r.mu.Unlock()
	if ok {
		n.inflight.Add(d)
	}
}

// setDraining flips a node's drain flag (operator intent from
// POST /v1/fleet/nodes/{id}/drain and /undrain), persisting it so the
// decision survives a coordinator restart. False means unknown ID.
func (r *registry) setDraining(id string, draining bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok {
		return false
	}
	if n.draining == draining {
		return true
	}
	n.draining = draining
	rec := store.NodeRecord{ID: id, Endpoint: n.endpoint, Capacity: n.capacity,
		AlgoVersion: n.algoVersion, SchemaVersion: n.schemaVersion, Draining: draining}
	if err := r.st.PutNode(rec); err != nil {
		r.storeErr("put_node", err)
	}
	return true
}

// deregister removes a node entirely (graceful worker shutdown). The
// store delete is best-effort: an already-gone worker must not stay
// placeable just because the journal hiccuped.
func (r *registry) deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; !ok {
		return false
	}
	delete(r.nodes, id)
	if err := r.st.DeleteNode(id); err != nil {
		r.storeErr("delete_node", err)
	}
	return true
}

// reportFailure marks a node suspect after a proxied request failed on it
// (transport error, truncated response or 5xx). The health detector — not
// the proxy — owns the dead transition: one failed request on a live node
// must not strand its whole queue, but it should stop attracting new work
// until a heartbeat clears it.
func (r *registry) reportFailure(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[id]; ok {
		n.failures.Add(1)
		if n.state == NodeReady {
			n.state = NodeSuspect
		}
	}
}

// sweepHealth applies the missed-heartbeat thresholds and returns the IDs
// of nodes that transitioned in this pass: suspected is every ready node
// that just went suspect (logged once per transition), died every node that
// just went dead (the reconciler re-places their work exactly once per
// transition).
func (r *registry) sweepHealth(suspectAfter, deadAfter time.Duration) (suspected, died []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for _, n := range r.nodes {
		age := now.Sub(n.lastHeartbeat)
		switch {
		case age >= deadAfter:
			if n.state != NodeDead {
				n.state = NodeDead
				died = append(died, n.id)
			}
		case age >= suspectAfter:
			if n.state == NodeReady {
				n.state = NodeSuspect
				suspected = append(suspected, n.id)
			}
		}
	}
	sort.Strings(suspected)
	sort.Strings(died)
	return suspected, died
}

// expireDead garbage-collects nodes that have been silent longer than
// expiry. Without this, crashed workers with churned IDs (the default ID is
// the advertised host:port, often an ephemeral port) would accumulate as
// dead entries forever, growing /v1/fleet/nodes, the per-node metric series
// and every health sweep without bound.
func (r *registry) expireDead(expiry time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for id, n := range r.nodes {
		if n.state == NodeDead && now.Sub(n.lastHeartbeat) >= expiry {
			delete(r.nodes, id)
			if err := r.st.DeleteNode(id); err != nil {
				r.storeErr("delete_node", err)
			}
		}
	}
}

// state returns a node's current state (dead for unknown IDs — an
// unregistered node is as gone as a dead one to the reconciler).
func (r *registry) state(id string) NodeState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[id]; ok {
		return n.state
	}
	return NodeDead
}

// candidate is the placement view of a node: identity, endpoint, algorithm
// version and the in-flight count at snapshot time, taken under the lock so
// placement itself runs lock-free.
type candidate struct {
	id       string
	endpoint string
	version  string
	inflight int64
}

// candidates returns the placeable nodes: all ready ones, or — when no
// node is ready — the suspect ones, so a fleet that is merely slow keeps
// serving instead of answering 503. Dead nodes are never placed on, and
// draining nodes only when the whole fleet is draining (an operator who
// drained everything still wants requests answered, not 503s).
func (r *registry) candidates() []candidate {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ready, suspect, draining []candidate
	for _, n := range r.nodes {
		c := candidate{id: n.id, endpoint: n.endpoint, version: n.algoVersion, inflight: n.inflight.Load()}
		switch {
		case n.state == NodeDead:
		case n.draining:
			draining = append(draining, c)
		case n.state == NodeReady:
			ready = append(ready, c)
		default:
			suspect = append(suspect, c)
		}
	}
	if len(ready) > 0 {
		return ready
	}
	if len(suspect) > 0 {
		return suspect
	}
	return draining
}

// versionOf returns a node's current algorithm version ("" for unknown
// IDs).
func (r *registry) versionOf(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[id]; ok {
		return n.algoVersion
	}
	return ""
}

// dominantVersion returns the algorithm version the majority of non-dead
// nodes advertise (ties broken toward the lexicographically greater
// version — during a rolling upgrade that is the incoming one). The shadow
// verifier uses it to decide which side of a divergence is the outlier.
func (r *registry) dominantVersion() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string]int)
	for _, n := range r.nodes {
		if n.state != NodeDead {
			counts[n.algoVersion]++
		}
	}
	best, bestN := "", -1
	for v, c := range counts {
		if c > bestN || (c == bestN && v > best) {
			best, bestN = v, c
		}
	}
	return best
}

// markSuspect demotes a ready node to suspect without touching its failure
// counter semantics (the shadow verifier's "this node's bytes diverge"
// verdict is a health signal, not a transport failure).
func (r *registry) markSuspect(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[id]; ok && n.state == NodeReady {
		n.state = NodeSuspect
	}
}

// setNodeEpoch records the epoch a node confirmed during a flush fan-out,
// so /v1/fleet/nodes reflects convergence immediately instead of one
// heartbeat later.
func (r *registry) setNodeEpoch(id string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[id]; ok {
		n.epoch = epoch
	}
}

// countPlacement accounts one placement on node id: its routed request
// and — for a bounded-load spill — the spill-in it absorbed and the
// spill-out of the key's HRW owner. One lock for the lookups; the counters
// themselves are atomic.
func (r *registry) countPlacement(id, ownerID string, spilled bool) {
	r.mu.Lock()
	n := r.nodes[id]
	owner := r.nodes[ownerID]
	r.mu.Unlock()
	if n != nil {
		n.requests.Add(1)
		if spilled {
			n.spillIn.Add(1)
		}
	}
	if spilled && owner != nil {
		owner.spillOut.Add(1)
	}
}

// snapshot returns every node sorted by ID (the /v1/fleet/nodes and
// /metrics view).
func (r *registry) snapshot() []NodeInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	infos := make([]NodeInfo, 0, len(r.nodes))
	for _, n := range r.nodes {
		infos = append(infos, NodeInfo{
			ID:                   n.id,
			Endpoint:             n.endpoint,
			Capacity:             n.capacity,
			State:                n.state.String(),
			AlgoVersion:          n.algoVersion,
			SchemaVersion:        n.schemaVersion,
			Draining:             n.draining,
			Epoch:                n.epoch,
			SinceHeartbeatMillis: now.Sub(n.lastHeartbeat).Milliseconds(),
			Requests:             n.requests.Load(),
			Failures:             n.failures.Load(),
			Inflight:             n.inflight.Load(),
			SpillOut:             n.spillOut.Load(),
			SpillIn:              n.spillIn.Load(),
			ReportedInflight:     n.repInflight.Load(),
			Shed:                 n.repShed.Load(),
			P99Micros:            math.Float64frombits(n.repP99.Load()),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}
