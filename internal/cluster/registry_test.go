package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeClock drives the registry's injectable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestRegistry() (*registry, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newRegistry(store.NewMemory(), func(op string, err error) {})
	r.now = clk.now
	return r, clk
}

const (
	testSuspectAfter = 3 * time.Second
	testDeadAfter    = 6 * time.Second
)

func TestLifecycleTransitions(t *testing.T) {
	r, clk := newTestRegistry()
	r.register("w1", "http://w1", 4, "", 0)
	if got := r.state("w1"); got != NodeReady {
		t.Fatalf("after register: %v", got)
	}

	// Below the suspect threshold nothing changes.
	clk.advance(testSuspectAfter - time.Second)
	if _, died := r.sweepHealth(testSuspectAfter, testDeadAfter); len(died) != 0 {
		t.Fatalf("premature deaths: %v", died)
	}
	if got := r.state("w1"); got != NodeReady {
		t.Fatalf("fresh node became %v", got)
	}

	// Crossing suspect.
	clk.advance(2 * time.Second)
	r.sweepHealth(testSuspectAfter, testDeadAfter)
	if got := r.state("w1"); got != NodeSuspect {
		t.Fatalf("stale node is %v, want suspect", got)
	}

	// A heartbeat revives a suspect node.
	if !r.heartbeat("w1", "", 0) {
		t.Fatal("heartbeat for known node rejected")
	}
	if got := r.state("w1"); got != NodeReady {
		t.Fatalf("heartbeat left node %v", got)
	}

	// Crossing dead reports the transition exactly once.
	clk.advance(testDeadAfter)
	if _, died := r.sweepHealth(testSuspectAfter, testDeadAfter); !reflect.DeepEqual(died, []string{"w1"}) {
		t.Fatalf("died = %v, want [w1]", died)
	}
	if _, died := r.sweepHealth(testSuspectAfter, testDeadAfter); len(died) != 0 {
		t.Fatalf("death reported twice: %v", died)
	}
	if got := r.state("w1"); got != NodeDead {
		t.Fatalf("node is %v, want dead", got)
	}

	// Even a dead node revives on heartbeat (it is evidently alive), and
	// re-registration resets everything.
	if !r.heartbeat("w1", "", 0) {
		t.Fatal("heartbeat for dead node rejected")
	}
	if got := r.state("w1"); got != NodeReady {
		t.Fatalf("revived node is %v", got)
	}
}

func TestHeartbeatUnknownNode(t *testing.T) {
	r, _ := newTestRegistry()
	if r.heartbeat("ghost", "", 0) {
		t.Fatal("heartbeat for unregistered node accepted")
	}
	if r.deregister("ghost") {
		t.Fatal("deregister for unregistered node reported success")
	}
}

func TestReportFailureMarksSuspect(t *testing.T) {
	r, _ := newTestRegistry()
	r.register("w1", "http://w1", 1, "", 0)
	r.reportFailure("w1")
	if got := r.state("w1"); got != NodeSuspect {
		t.Fatalf("after failure: %v", got)
	}
	snap := r.snapshot()
	if len(snap) != 1 || snap[0].Failures != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// A failure must not demote a dead node back to suspect.
	clk := &fakeClock{t: time.Unix(2000, 0)}
	r.now = clk.now
	clk.advance(testDeadAfter)
	r.sweepHealth(testSuspectAfter, testDeadAfter)
	r.reportFailure("w1")
	if got := r.state("w1"); got != NodeDead {
		t.Fatalf("failure revived dead node to %v", got)
	}
}

func TestCandidatesPreferReady(t *testing.T) {
	r, _ := newTestRegistry()
	r.register("ready1", "http://r1", 1, "", 0)
	r.register("ready2", "http://r2", 1, "", 0)
	r.register("slow", "http://s", 1, "", 0)
	r.reportFailure("slow")

	got := map[string]bool{}
	for _, c := range r.candidates() {
		got[c.id] = true
	}
	if got["slow"] || len(got) != 2 {
		t.Fatalf("candidates include suspect while ready nodes exist: %v", got)
	}

	// With every node suspect, placement falls back to them rather than
	// refusing all traffic.
	r.reportFailure("ready1")
	r.reportFailure("ready2")
	if got := r.candidates(); len(got) != 3 {
		t.Fatalf("suspect fallback returned %v", got)
	}

	// Deregistered nodes disappear outright.
	r.deregister("slow")
	r.deregister("ready1")
	r.deregister("ready2")
	if got := r.candidates(); len(got) != 0 {
		t.Fatalf("candidates after full deregister: %v", got)
	}
}

func TestExpireDeadGarbageCollects(t *testing.T) {
	r, clk := newTestRegistry()
	r.register("gone", "http://gone", 1, "", 0)
	r.register("alive", "http://alive", 1, "", 0)

	clk.advance(testDeadAfter)
	r.heartbeat("alive", "", 0)
	r.sweepHealth(testSuspectAfter, testDeadAfter)
	if got := r.state("gone"); got != NodeDead {
		t.Fatalf("stale node is %v", got)
	}

	// Dead but not yet expired: retained for observability.
	r.expireDead(time.Minute)
	if len(r.snapshot()) != 2 {
		t.Fatalf("dead node expired early: %+v", r.snapshot())
	}

	// Past expiry it disappears; live nodes are untouched.
	clk.advance(time.Minute)
	r.expireDead(time.Minute)
	snap := r.snapshot()
	if len(snap) != 1 || snap[0].ID != "alive" {
		t.Fatalf("expiry kept/removed the wrong nodes: %+v", snap)
	}
}

// TestAdoptSuspectUntilHeartbeat covers the recovery handshake: journaled
// nodes come back suspect (placeable only as a fallback), a heartbeat
// promotes them without re-registering, silence walks them to dead on the
// normal thresholds, and adoption never clobbers a live registration.
func TestAdoptSuspectUntilHeartbeat(t *testing.T) {
	r, clk := newTestRegistry()
	r.register("live", "http://live-new", 2, "", 0)
	n := r.adopt([]store.NodeRecord{
		{ID: "ghost", Endpoint: "http://ghost", Capacity: 1},
		{ID: "live", Endpoint: "http://live-old", Capacity: 1},
	})
	if n != 1 {
		t.Fatalf("adopted %d nodes, want 1 (live registration must win)", n)
	}
	if got := r.state("ghost"); got != NodeSuspect {
		t.Fatalf("adopted node is %v, want suspect", got)
	}
	if got := r.state("live"); got != NodeReady {
		t.Fatalf("adoption demoted live node to %v", got)
	}

	// Suspect means fallback-only placement: with a ready node present the
	// adopted one attracts nothing, but an all-adopted fleet still serves.
	for _, c := range r.candidates() {
		if c.id == "ghost" {
			t.Fatal("adopted node placed while a ready node exists")
		}
	}

	// A heartbeat is enough to promote it — the journal kept its endpoint,
	// so no re-register round trip is needed.
	if !r.heartbeat("ghost", "", 0) {
		t.Fatal("heartbeat for adopted node rejected")
	}
	if got := r.state("ghost"); got != NodeReady {
		t.Fatalf("heartbeat left adopted node %v", got)
	}

	// An adopted node that never calls back dies on the usual schedule;
	// the ones that kept heartbeating do not.
	r.adopt([]store.NodeRecord{{ID: "silent", Endpoint: "http://silent", Capacity: 1}})
	clk.advance(testDeadAfter)
	r.heartbeat("live", "", 0)
	r.heartbeat("ghost", "", 0)
	if _, died := r.sweepHealth(testSuspectAfter, testDeadAfter); !reflect.DeepEqual(died, []string{"silent"}) {
		t.Fatalf("died = %v, want [silent]", died)
	}
}

func TestSnapshotSortedAndCounted(t *testing.T) {
	r, _ := newTestRegistry()
	r.register("b", "http://b", 2, "", 0)
	r.register("a", "http://a", 4, "", 0)
	r.countPlacement("b", "b", false)
	r.countPlacement("b", "b", false)
	snap := r.snapshot()
	if len(snap) != 2 || snap[0].ID != "a" || snap[1].ID != "b" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[1].Requests != 2 || snap[0].Capacity != 4 {
		t.Fatalf("snapshot counters: %+v", snap)
	}
}
