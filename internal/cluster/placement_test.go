package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/server"
)

// Unit coverage for bounded-load HRW: the spill order is exactly the HRW
// ranking, the bound only engages when the owner is actually overloaded,
// and a fleet where nobody fits still serves from the owner rather than
// turning placeable capacity into a 503.
func TestPlaceBoundedSpillOrder(t *testing.T) {
	key := "spill-order-key"
	base := []candidate{{id: "nA"}, {id: "nB"}, {id: "nC"}}
	ranked := hrwRank(base, key)
	owner, second, third := ranked[0], ranked[1], ranked[2]

	withLoad := func(load map[string]int64) []candidate {
		out := make([]candidate, len(base))
		copy(out, base)
		for i := range out {
			out[i].inflight = load[out[i].id]
		}
		return out
	}
	check := func(what string, nodes []candidate, exclude map[string]bool, bound float64, wantNode, wantOwner string, wantRank int) {
		t.Helper()
		got, gotOwner, rank, ok := place(nodes, key, exclude, bound)
		if !ok || got.id != wantNode || gotOwner != wantOwner || rank != wantRank {
			t.Fatalf("%s: got %q owner %q rank %d ok=%v, want %q owner %q rank %d",
				what, got.id, gotOwner, rank, ok, wantNode, wantOwner, wantRank)
		}
	}

	// Idle fleet: perfect cache affinity, the owner always wins.
	check("idle fleet", base, nil, 1.25, owner.id, owner.id, 0)

	// Overloaded owner: 8 in flight against an otherwise idle 3-node fleet
	// puts the owner past ceil(1.25·9/3)=4, so the key spills to exactly
	// the next node in HRW rank order.
	check("overloaded owner", withLoad(map[string]int64{owner.id: 8}), nil, 1.25, second.id, owner.id, 1)

	// Both the owner and the next-ranked node overloaded: the spill walks
	// one more rank down.
	check("two overloaded", withLoad(map[string]int64{owner.id: 8, second.id: 8}), nil, 1.25, third.id, owner.id, 2)

	// Nobody under the bound (a sub-1 bound with uniform load starves every
	// node): the owner serves anyway instead of failing the request.
	check("all over bound", withLoad(map[string]int64{owner.id: 5, second.id: 5, third.id: 5}), nil, 0.5, owner.id, owner.id, 0)

	// Exclusion composes: with the owner excluded the next-ranked node is
	// the de-facto owner, not a spill.
	check("owner excluded", base, map[string]bool{owner.id: true}, 1.25, second.id, second.id, 0)

	// bound <= 0 is pure HRW: an overloaded owner still serves.
	check("bound 0", withLoad(map[string]int64{owner.id: 8}), nil, 0, owner.id, owner.id, 0)
	check("bound -1", withLoad(map[string]int64{owner.id: 8}), map[string]bool{owner.id: true}, -1, second.id, second.id, 0)

	// Empty eligible set: not placeable.
	if _, _, _, ok := place(nil, key, nil, 1.25); ok {
		t.Fatal("no candidates: place reported ok")
	}
}

// The placement protocol's transition table, driven the way runCell drives
// a sweep cell: legal edges are counted and journaled as the cell's
// placement record (the affinity hint a restarted coordinator re-lands it
// by), illegal ones are refused, counted, and leave the state untouched.
func TestPlacementProtocolTransitions(t *testing.T) {
	coord, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	pl := coord.newPlacement("proto-key")
	if pl.state != placePending {
		t.Fatalf("new placement state %v, want pending", pl.state)
	}
	pl.prepare(candidate{id: "ghost"}, true)
	if pl.state != placePreparing || coord.placementHint("proto-key") != "ghost" {
		t.Fatalf("after prepare: %v, hint %q", pl.state, coord.placementHint("proto-key"))
	}
	pl.abort()
	if pl.state != placePending || coord.placementHint("proto-key") != "" {
		t.Fatalf("after abort: %v, hint %q", pl.state, coord.placementHint("proto-key"))
	}
	pl.prepare(candidate{id: "ghost2"}, false)
	pl.ready()
	if pl.state != placeReady || coord.placementHint("proto-key") != "ghost2" {
		t.Fatalf("after ready: %v, hint %q", pl.state, coord.placementHint("proto-key"))
	}
	pl.drop()
	if pl.state != placeDropped || coord.placementHint("proto-key") != "" {
		t.Fatalf("after drop: %v, hint %q", pl.state, coord.placementHint("proto-key"))
	}
	for _, tc := range []struct {
		from, to placementState
		want     int64
	}{
		{placePending, placePreparing, 2}, // first attempt + re-prepare after abort
		{placePreparing, placePending, 1},
		{placePreparing, placeReady, 1},
		{placeReady, placeDropped, 1},
	} {
		if got := coord.metrics.placeTransitions[tc.from][tc.to].Load(); got != tc.want {
			t.Fatalf("transition %v->%v counted %d times, want %d", tc.from, tc.to, got, tc.want)
		}
	}

	// Illegal edge: Pending→Ready is not in the protocol.
	bad := coord.newPlacement("bad-key")
	bad.transition(placeReady)
	if bad.state != placePending {
		t.Fatalf("illegal transition changed state to %v", bad.state)
	}
	if got := coord.metrics.placeInvalid.Load(); got != 1 {
		t.Fatalf("placeInvalid = %d, want 1", got)
	}
}

// The /v1/fleet node listing carries the health, load and schema fields.
func TestFleetNodes(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	resp, err := http.Get(base + "/v1/fleet/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet/nodes: %d %s", resp.StatusCode, body)
	}
	var fleet []map[string]any
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatalf("GET /v1/fleet/nodes: %v\n%s", err, body)
	}
	if len(fleet) != 2 {
		t.Fatalf("fleet=%d nodes, want 2", len(fleet))
	}
	for _, n := range fleet {
		if n["state"] != "ready" {
			t.Fatalf("fleet node not ready: %v", n)
		}
		for _, field := range []string{"id", "inflight", "epoch"} {
			if _, present := n[field]; !present {
				t.Fatalf("fleet listing missing %q: %v", field, n)
			}
		}
	}
}

// Draining: an operator drain moves new placements off the node while it
// stays registered, undrain restores it, and an unknown node is a
// not_found envelope.
func TestDrainUndrain(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	drain := func(id, verb string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/fleet/nodes/"+id+"/"+verb, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	resp, body := drain("wA", "drain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		Node     string `json:"node"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Node != "wA" || !ack.Draining {
		t.Fatalf("drain ack: %v %s", err, body)
	}

	// Every new key lands on the surviving node while wA drains.
	for i := 0; i < 8; i++ {
		r, out := postSchedule(t, base, scheduleBody(t, fmt.Sprintf("drained%d", i)))
		if r.StatusCode != http.StatusOK {
			t.Fatalf("drained schedule %d: %d %s", i, r.StatusCode, out)
		}
		if got := r.Header.Get("X-Node"); got != "wB" {
			t.Fatalf("key %d placed on %s during drain, want wB", i, got)
		}
	}

	// The listing shows the drain.
	nresp, err := http.Get(base + "/v1/fleet/nodes")
	if err != nil {
		t.Fatal(err)
	}
	nbody, _ := io.ReadAll(nresp.Body)
	nresp.Body.Close()
	var nodes []NodeInfo
	if err := json.Unmarshal(nbody, &nodes); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.ID == "wA" && !n.Draining {
			t.Fatalf("wA not marked draining in listing: %s", nbody)
		}
	}

	// Undrain restores wA as a placement target: a key it owns returns.
	resp, body = drain("wA", "undrain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain: %d %s", resp.StatusCode, body)
	}
	var ownedByA []byte
	for i := 0; ownedByA == nil && i < 64; i++ {
		b := scheduleBody(t, fmt.Sprintf("undrained%d", i))
		key, err := server.ScheduleCacheKey(b)
		if err != nil {
			t.Fatal(err)
		}
		if cand, _, _, ok := place(coord.reg.candidates(), key, nil, 0); ok && cand.id == "wA" {
			ownedByA = b
		}
	}
	if ownedByA == nil {
		t.Fatal("no key HRW-owned by wA in 64 tries")
	}
	r, out := postSchedule(t, base, ownedByA)
	if r.StatusCode != http.StatusOK || r.Header.Get("X-Node") != "wA" {
		t.Fatalf("after undrain: %d served by %q, want wA\n%s", r.StatusCode, r.Header.Get("X-Node"), out)
	}

	// Unknown node: not_found envelope.
	resp, body = drain("nope", "drain")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown: %d %s", resp.StatusCode, body)
	}
	var e struct {
		Error server.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != server.ErrCodeNotFound {
		t.Fatalf("drain unknown envelope: %v %s", err, body)
	}
}

// Schema gating: a worker announcing a different wire schema is refused at
// register and at heartbeat with a schema_mismatch envelope, and never
// joins the fleet.
func TestSchemaMismatchRefused(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}

	resp, body := post("/v1/nodes/register", server.RegisterRequest{
		ID: "s1", Endpoint: "http://127.0.0.1:1", Capacity: 2, SchemaVersion: server.SchemaVersion,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register s1: %d %s", resp.StatusCode, body)
	}

	resp, body = post("/v1/nodes/register", server.RegisterRequest{
		ID: "s2", Endpoint: "http://127.0.0.1:2", Capacity: 2, SchemaVersion: "wire/999",
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("register mixed schema: %d %s", resp.StatusCode, body)
	}
	var e struct {
		Error server.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != server.ErrCodeSchemaMismatch {
		t.Fatalf("mixed-schema envelope: %v %s", err, body)
	}
	for _, n := range coord.Nodes() {
		if n.ID == "s2" {
			t.Fatal("mismatched worker joined the fleet")
		}
	}

	// A heartbeat that changes its story is refused the same way.
	resp, body = post("/v1/nodes/heartbeat", server.HeartbeatRequest{ID: "s1", SchemaVersion: "wire/999"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mixed-schema heartbeat: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != server.ErrCodeSchemaMismatch {
		t.Fatalf("heartbeat envelope: %v %s", err, body)
	}
	if got := coord.metrics.schemaRefusals.Load(); got != 2 {
		t.Fatalf("schemaRefusals = %d, want 2", got)
	}
}

// The tentpole chaos test: a key spills off its overloaded owner, the spill
// target dies mid-request, and the failover still returns bytes identical
// to what the owner served — spilling and failover move computation, never
// output.
func TestScheduleSpillFailoverByteIdentical(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	wB := startWorker(t, base, "wB")
	wC := startWorker(t, base, "wC")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready", "wC": "ready"})
	workers := map[string]*testWorker{"wA": wA, "wB": wB, "wC": wC}

	body := scheduleBody(t, "hotspill")
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}
	ranked := hrwRank(coord.reg.candidates(), key)
	owner, second, third := ranked[0], ranked[1], ranked[2]

	// Idle fleet: the owner serves; these are the reference bytes.
	resp1, out1 := postSchedule(t, base, body)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Node") != owner.id {
		t.Fatalf("reference request: %d served by %q, want owner %q", resp1.StatusCode, resp1.Header.Get("X-Node"), owner.id)
	}

	// Overload the owner: 8 phantom in-flight requests push it past
	// ceil(1.25·9/3)=4, so the same key must spill to the next HRW rank.
	for i := 0; i < 8; i++ {
		coord.reg.incInflight(owner.id)
	}
	resp2, out2 := postSchedule(t, base, body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Node") != second.id {
		t.Fatalf("spill request: %d served by %q, want spill target %q", resp2.StatusCode, resp2.Header.Get("X-Node"), second.id)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatal("spilled response differs from owner's bytes")
	}
	if got := coord.metrics.spills.Load(); got < 1 {
		t.Fatalf("spills metric = %d after a spill", got)
	}

	// Kill the spill target mid-request: the placement aborts, excludes it,
	// and re-places — still overloaded owner, so the third-ranked node
	// serves, and the bytes still match.
	workers[second.id].chaos.armKillSchedule(1)
	resp3, out3 := postSchedule(t, base, body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("failover after spill-target death: %d %s", resp3.StatusCode, out3)
	}
	if got := resp3.Header.Get("X-Node"); got != third.id {
		t.Fatalf("failover served by %q, want third-ranked %q", got, third.id)
	}
	if !bytes.Equal(out1, out3) {
		t.Fatal("failover response differs from owner's bytes")
	}
}

// Every coordinator error is the unified envelope with a stable code and
// an honest retryable flag.
func TestCoordinatorErrorEnvelope(t *testing.T) {
	// No fleet at all: schedule is a retryable no_workers 503.
	_, emptyBase := startCoordinator(t, testConfig())

	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	waitForStates(t, coord, map[string]string{"wA": "ready"})

	cases := []struct {
		name      string
		method    string
		base      string
		path      string
		body      string
		status    int
		code      string
		retryable bool
	}{
		{"no workers", "POST", emptyBase, "/v1/schedule", string(scheduleBody(t, "noworkers")), http.StatusServiceUnavailable, server.ErrCodeNoWorkers, true},
		{"bad schedule body", "POST", base, "/v1/schedule", `{nope`, http.StatusBadRequest, server.ErrCodeBadRequest, false},
		// A retired wire field is an unknown field at the edge too.
		{"portfolio schedule body", "POST", base, "/v1/schedule", `{"loop_text":"loop x 1\nnode 0 IntALU\n","clusters":2,"portfolio":4}`, http.StatusBadRequest, server.ErrCodeBadRequest, false},
		{"portfolio batch body", "POST", base, "/v1/schedule/batch", `{"clusters":2,"portfolio":4,"loops":[{"loop_text":"loop x 1\nnode 0 IntALU\n"}]}`, http.StatusBadRequest, server.ErrCodeBadRequest, false},
		{"bad job body", "POST", base, "/v1/jobs", `{nope`, http.StatusBadRequest, server.ErrCodeBadRequest, false},
		{"unknown job", "GET", base, "/v1/jobs/nope", "", http.StatusNotFound, server.ErrCodeNotFound, false},
		{"unknown job csv", "GET", base, "/v1/jobs/nope/csv", "", http.StatusNotFound, server.ErrCodeNotFound, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == "POST" {
				resp, err = http.Post(tc.base+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
			} else {
				resp, err = http.Get(tc.base + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, out)
			}
			var e struct {
				Error server.ErrorBody `json:"error"`
			}
			if err := json.Unmarshal(out, &e); err != nil {
				t.Fatalf("not an envelope: %v %s", err, out)
			}
			if e.Error.Code != tc.code || e.Error.Message == "" || e.Error.Retryable != tc.retryable {
				t.Fatalf("envelope {code %q, msg %q, retryable %v}, want {%q, non-empty, %v}",
					e.Error.Code, e.Error.Message, e.Error.Retryable, tc.code, tc.retryable)
			}
		})
	}
}
