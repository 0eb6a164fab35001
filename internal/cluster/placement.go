package cluster

import (
	"fmt"
	"sync"

	"repro/internal/store"
)

// The explicit placement protocol. Every sweep-cell attempt is a placement
// that walks one state machine:
//
//	Pending ──► Preparing ──► Ready ──► Dropped
//	   ▲            │           │
//	   └────────────┘       Draining ──► Dropped
//	     (abort:            │    ▲
//	      node failed)      └────┘ (abort: drain canceled)
//
// Pending: admitted, no node chosen. Preparing: a node was chosen (by
// bounded-load HRW) and the work is in flight. Ready: the node answered and
// owns the key's cache residency. Draining: the node is being retired by an
// operator and the key will re-place. Dropped: retired. The two abort edges
// are Preparing→Pending (the chosen node failed; the cell re-places with
// the node excluded) and Draining→Ready (the drain was canceled).
//
// Each transition writes the placement record through the store, so a
// restarted coordinator knows which node each in-flight cell was on —
// including a spill target — and re-places it there first instead of
// bouncing it back to an owner the bound had rejected. Proxied schedule
// requests are transient and stay outside the protocol: they only count
// their in-flight work (Coordinator.bind).

// placementState is a placement's position in the protocol.
type placementState int

const (
	placePending placementState = iota
	placePreparing
	placeReady
	placeDraining
	placeDropped
	placeStates // count, for the transition matrix
)

func (s placementState) String() string {
	switch s {
	case placePending:
		return "pending"
	case placePreparing:
		return "preparing"
	case placeReady:
		return "ready"
	case placeDraining:
		return "draining"
	case placeDropped:
		return "dropped"
	}
	return fmt.Sprintf("placementState(%d)", int(s))
}

// validPlaceEdge is the protocol's legal-transition table.
func validPlaceEdge(from, to placementState) bool {
	switch from {
	case placePending:
		return to == placePreparing || to == placeDropped
	case placePreparing:
		return to == placeReady || to == placePending || to == placeDropped
	case placeReady:
		return to == placeDraining || to == placeDropped
	case placeDraining:
		return to == placeReady || to == placeDropped
	}
	return false
}

// placement is one sweep cell walking the protocol. Not safe for
// concurrent use: each belongs to the one goroutine driving its cell (the
// placement table has its own lock).
type placement struct {
	c   *Coordinator
	key string

	state   placementState
	node    candidate
	spilled bool
}

// newPlacement admits a cell key into the protocol at Pending.
func (c *Coordinator) newPlacement(key string) *placement {
	return &placement{c: c, key: key, state: placePending}
}

// transition moves the placement along one edge, counting it in the
// per-transition metrics. Illegal edges are counted and refused — a
// protocol bug must be visible, not state-corrupting.
func (p *placement) transition(to placementState) {
	if !validPlaceEdge(p.state, to) {
		p.c.metrics.placeInvalid.Add(1)
		p.c.log.Warn("illegal placement transition refused",
			"key", p.key, "from", p.state.String(), "to", to.String())
		return
	}
	p.c.metrics.placeTransitions[p.state][to].Add(1)
	p.state = to
}

// prepare binds the placement to a node (Pending→Preparing).
func (p *placement) prepare(node candidate, spilled bool) {
	p.node = node
	p.spilled = spilled
	p.transition(placePreparing)
	p.c.putPlacement(store.PlacementRecord{Key: p.key, Node: node.id, State: placePreparing.String(), Spilled: spilled})
}

// abort walks the Preparing→Pending edge after the chosen node failed.
func (p *placement) abort() {
	p.transition(placePending)
	p.c.delPlacement(p.key)
}

// ready marks the node's answer landed (Preparing→Ready).
func (p *placement) ready() {
	p.transition(placeReady)
	p.c.putPlacement(store.PlacementRecord{Key: p.key, Node: p.node.id, State: placeReady.String(), Spilled: p.spilled})
}

// drop retires the placement from whatever state it reached.
func (p *placement) drop() {
	if p.state != placeDropped {
		p.transition(placeDropped)
	}
	p.c.delPlacement(p.key)
}

// placementTable is the coordinator's live view of the cell placements,
// mirroring the store. Recovery seeds it from the journal; the job layer
// consults it as affinity hints so resumed cells re-land where they were —
// including on a spill target the bound had moved them to.
type placementTable struct {
	mu    sync.Mutex
	byKey map[string]store.PlacementRecord
}

// putPlacement records a cell placement in the live table and the store.
func (c *Coordinator) putPlacement(rec store.PlacementRecord) {
	c.placements.mu.Lock()
	if c.placements.byKey == nil {
		c.placements.byKey = make(map[string]store.PlacementRecord)
	}
	c.placements.byKey[rec.Key] = rec
	c.placements.mu.Unlock()
	if err := c.st.PutPlacement(rec); err != nil {
		c.storeError("put_placement", err)
	}
}

// delPlacement retires a cell placement from the live table and store.
func (c *Coordinator) delPlacement(key string) {
	c.placements.mu.Lock()
	delete(c.placements.byKey, key)
	c.placements.mu.Unlock()
	if err := c.st.DeletePlacement(key); err != nil {
		c.storeError("delete_placement", err)
	}
}

// placementHint returns the node a cell placement was last bound to, or
// "" when there is none — or when the record is draining (a draining
// placement must re-place elsewhere, so its old node is an anti-hint).
func (c *Coordinator) placementHint(key string) string {
	c.placements.mu.Lock()
	defer c.placements.mu.Unlock()
	rec, ok := c.placements.byKey[key]
	if !ok || rec.State == placeDraining.String() {
		return ""
	}
	return rec.Node
}

// drainPlacements walks every cell placement on a node across the
// Ready→Draining edge (or back, Draining→Ready, when the drain is
// canceled), persisting each flip. In-flight (Preparing) placements keep
// running — a draining node finishes what it has, like a suspect one.
func (c *Coordinator) drainPlacements(nodeID string, draining bool) int {
	from, to := placeReady, placeDraining
	if !draining {
		from, to = placeDraining, placeReady
	}
	c.placements.mu.Lock()
	var flipped []store.PlacementRecord
	for key, rec := range c.placements.byKey {
		if rec.Node == nodeID && rec.State == from.String() {
			rec.State = to.String()
			c.placements.byKey[key] = rec
			flipped = append(flipped, rec)
		}
	}
	c.placements.mu.Unlock()
	for _, rec := range flipped {
		c.metrics.placeTransitions[from][to].Add(1)
		if err := c.st.PutPlacement(rec); err != nil {
			c.storeError("put_placement", err)
		}
	}
	return len(flipped)
}
