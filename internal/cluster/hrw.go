package cluster

import (
	"hash/fnv"
	"math"
	"sort"
)

// Placement is rendezvous (highest-random-weight) hashing on the request's
// content-address key: every coordinator ranks every node for a key by
// hashing (node, key) pairs and picks the highest score. Identical requests
// therefore always land on the same worker while that worker is placeable,
// which turns the per-worker LRU caches into one sharded distributed cache
// — and when a node joins or leaves, only the keys whose top-ranked node
// changed move, unlike mod-N hashing where nearly everything reshuffles.

// hrwScore is the rendezvous weight of (node, key). FNV-1a over
// node \x00 key: placement is not an integrity boundary (the key itself is
// already a sha256 content address), it just has to be fast, well mixed and
// stable across coordinator restarts.
func hrwScore(nodeID, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(nodeID))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// hrwRank orders nodes by descending rendezvous weight for key, breaking
// the (astronomically unlikely) score tie by ID so the order is total and
// deterministic. The full ranking is the failover order: attempt i+1 goes
// to the (i+1)-th ranked node.
func hrwRank(nodes []candidate, key string) []candidate {
	ranked := make([]candidate, len(nodes))
	copy(ranked, nodes)
	scores := make(map[string]uint64, len(ranked))
	for _, n := range ranked {
		scores[n.id] = hrwScore(n.id, key)
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i].id], scores[ranked[j].id]
		if si != sj {
			return si > sj
		}
		return ranked[i].id < ranked[j].id
	})
	return ranked
}

// place is the one placement decision, rendezvous hashing with bounded
// loads: among the candidates not in exclude, the key's HRW owner serves it
// while its in-flight count stays under ceil(bound·(m+1)/n), where m is the
// eligible candidates' total in-flight and n their count. An overloaded
// owner spills to the next node in HRW rank order that is under the bound,
// so under a Zipf-skewed workload the hot key fans out across the ranking
// instead of melting its owner, while an idle fleet keeps perfect cache
// affinity (every node is under the bound, so the owner always wins). If no
// candidate is under the bound (bound < 1 can starve everyone) the owner
// serves anyway: bounded load must never turn a placeable fleet into a 503.
// bound <= 0 is pure HRW: the owner always serves.
//
// It returns the picked node, the key's HRW owner among the eligible
// candidates and the picked node's rank in the failover order; rank > 0 is
// a spill. ok is false when every candidate is excluded.
func place(nodes []candidate, key string, exclude map[string]bool, bound float64) (picked candidate, owner string, rank int, ok bool) {
	eligible := make([]candidate, 0, len(nodes))
	var total int64
	for _, n := range nodes {
		if exclude[n.id] {
			continue
		}
		eligible = append(eligible, n)
		total += n.inflight
	}
	if len(eligible) == 0 {
		return candidate{}, "", 0, false
	}
	ranked := hrwRank(eligible, key)
	if bound > 0 {
		threshold := int64(math.Ceil(bound * float64(total+1) / float64(len(ranked))))
		for i, n := range ranked {
			if n.inflight+1 <= threshold {
				return n, ranked[0].id, i, true
			}
		}
	}
	return ranked[0], ranked[0].id, 0, true
}
