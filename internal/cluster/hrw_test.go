package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func mkCandidates(ids ...string) []candidate {
	out := make([]candidate, len(ids))
	for i, id := range ids {
		out[i] = candidate{id: id, endpoint: "http://" + id}
	}
	return out
}

func TestHRWRankDeterministic(t *testing.T) {
	nodes := mkCandidates("a", "b", "c", "d")
	first := hrwRank(nodes, "some-key")
	for i := 0; i < 10; i++ {
		if got := hrwRank(nodes, "some-key"); !reflect.DeepEqual(got, first) {
			t.Fatalf("ranking not deterministic: %v vs %v", got, first)
		}
	}
	// Input order must not matter.
	shuffled := mkCandidates("d", "b", "a", "c")
	if got := hrwRank(shuffled, "some-key"); !reflect.DeepEqual(got, first) {
		t.Fatalf("ranking depends on input order: %v vs %v", got, first)
	}
}

// TestHRWMinimalDisruption is rendezvous hashing's defining property: when
// a node leaves, only the keys it owned move; every other key keeps its
// worker (and therefore its warm cache).
func TestHRWMinimalDisruption(t *testing.T) {
	nodes := mkCandidates("a", "b", "c")
	without := mkCandidates("a", "b")
	moved, kept := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, _, _, _ := place(nodes, key, nil, 0)
		after, _, _, _ := place(without, key, nil, 0)
		if before.id == "c" {
			moved++
			continue
		}
		if before.id != after.id {
			t.Fatalf("key %q moved from %s to %s although %s did not leave", key, before.id, after.id, before.id)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestHRWSpreadsKeys(t *testing.T) {
	nodes := mkCandidates("a", "b", "c")
	counts := map[string]int{}
	for i := 0; i < 900; i++ {
		n, _, _, ok := place(nodes, fmt.Sprintf("key-%d", i), nil, 0)
		if !ok {
			t.Fatal("no placement")
		}
		counts[n.id]++
	}
	for id, c := range counts {
		// Loose bound: each node should carry a real share of 900 keys.
		if c < 150 {
			t.Fatalf("node %s got only %d/900 keys: %v", id, c, counts)
		}
	}
}

func TestPlaceExclusionIsFailoverOrder(t *testing.T) {
	nodes := mkCandidates("a", "b", "c")
	ranked := hrwRank(nodes, "k")
	exclude := map[string]bool{}
	for i := range ranked {
		got, _, _, ok := place(nodes, "k", exclude, 0)
		if !ok {
			t.Fatalf("no candidate at step %d", i)
		}
		if got.id != ranked[i].id {
			t.Fatalf("step %d placed %s, want next-ranked %s", i, got.id, ranked[i].id)
		}
		exclude[got.id] = true
	}
	if _, _, _, ok := place(nodes, "k", exclude, 0); ok {
		t.Fatal("placement succeeded with every node excluded")
	}
}
