package cluster

import (
	"fmt"
	"testing"
)

func testNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node-%d", i)
	}
	return nodes
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(RingConfig{}, nil); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := NewRing(RingConfig{}, []string{"a", ""}); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := NewRing(RingConfig{}, []string{"a", "a"}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewRing(RingConfig{MaxReplica: -1}, []string{"a"}); err == nil {
		t.Error("negative MaxReplica accepted")
	}
	if _, err := NewRing(RingConfig{VirtualNodes: -1}, []string{"a"}); err == nil {
		t.Error("negative VirtualNodes accepted")
	}
}

func TestRingDefaults(t *testing.T) {
	r, err := NewRing(RingConfig{}, testNodes(5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas() != DefaultMaxReplica {
		t.Errorf("Replicas = %d want default %d", r.Replicas(), DefaultMaxReplica)
	}
	// MaxReplica >= cluster size: every node owns every key.
	r, err = NewRing(RingConfig{MaxReplica: 10}, testNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas() != 3 {
		t.Errorf("clamped Replicas = %d want 3", r.Replicas())
	}
	locs := r.Locations(nil, []byte("any-key"))
	if len(locs) != 3 {
		t.Fatalf("Locations = %v want all 3 nodes", locs)
	}
}

func TestRingReplicaSetsDistinctAndDeterministic(t *testing.T) {
	r, err := NewRing(RingConfig{MaxReplica: 2, Seed: 7}, testNodes(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf [2]int
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("flow-%d", i))
		a := r.Locations(buf[:0], key)
		if len(a) != 2 || a[0] == a[1] {
			t.Fatalf("key %d: replica set %v not 2 distinct nodes", i, a)
		}
		b := r.Locations(nil, key)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("key %d: lookup not deterministic: %v vs %v", i, a, b)
		}
	}
}

func TestRingPlacementIgnoresMemberOrder(t *testing.T) {
	fwd := []string{"a", "b", "c", "d"}
	rev := []string{"d", "c", "b", "a"}
	r1, _ := NewRing(RingConfig{MaxReplica: 2, Seed: 3}, fwd)
	r2, _ := NewRing(RingConfig{MaxReplica: 2, Seed: 3}, rev)
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("flow-%d", i))
		a := r1.Locations(nil, key)
		b := r2.Locations(nil, key)
		for j := range a {
			if r1.nodes[a[j]] != r2.nodes[b[j]] {
				t.Fatalf("key %d: placement depends on member order: %v vs %v", i, a, b)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	const nodes, keys = 5, 20000
	r, err := NewRing(RingConfig{MaxReplica: 1, Seed: 11}, testNodes(nodes))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nodes)
	for i := 0; i < keys; i++ {
		locs := r.Locations(nil, []byte(fmt.Sprintf("flow-%d", i)))
		counts[locs[0]]++
	}
	// With 64 virtual nodes the primary-owner split should be within ~2x
	// of even; we assert a loose band so the test is not placement-exact.
	want := keys / nodes
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %d owns %d keys, want within [%d, %d]", i, c, want/2, want*2)
		}
	}
}

// TestRingConsistency is the property that gives the ring its name: adding
// a node moves only the keys that now route to it — every key's replica
// set in the larger ring is either unchanged or differs only by the new
// node's insertion.
func TestRingConsistency(t *testing.T) {
	small, _ := NewRing(RingConfig{MaxReplica: 2, Seed: 5}, testNodes(4))
	big, _ := NewRing(RingConfig{MaxReplica: 2, Seed: 5}, testNodes(5))
	moved := 0
	const keys = 5000
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("flow-%d", i))
		a := small.Locations(nil, key)
		b := big.Locations(nil, key)
		for _, n := range b {
			if big.nodes[n] == "node-4" {
				continue // the new node may appear anywhere
			}
			if !containsName(small, a, big.nodes[n]) {
				t.Fatalf("key %d: node %s entered the replica set without node-4 joining it", i, big.nodes[n])
			}
		}
		if big.nodes[b[0]] != small.nodes[a[0]] {
			moved++
		}
	}
	// Roughly 1/5 of primaries should move to the new node, not ~all.
	if moved > keys/2 {
		t.Errorf("%d/%d primaries moved after adding one node; ring is not consistent", moved, keys)
	}
}

func containsName(r *Ring, locs []int, name string) bool {
	for _, n := range locs {
		if r.nodes[n] == name {
			return true
		}
	}
	return false
}

func BenchmarkRingLocations(b *testing.B) {
	r, _ := NewRing(RingConfig{MaxReplica: 2, Seed: 1}, testNodes(8))
	key := []byte("10.0.0.1:443->10.0.0.2:55221")
	var buf [2]int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Locations(buf[:0], key)
	}
}
