// Package cluster implements the fault-tolerant tier above hkd: a
// consistent-hash ring that replicates flow ingest across nodes, and an
// aggregator that pulls per-node sketch snapshots and folds them into a
// failure-aware global top-k (doc/cluster.md).
//
// The deployment model is the HeavyKeeper paper's footnote 2 — many
// measurement points, one collector — hardened for node death: every flow
// is routed to MaxReplica nodes, so losing any single node leaves at least
// one complete view of each flow, and the aggregator's Max-policy fold
// (see internal/collector) reconstructs the exact global answer from the
// survivors.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/hash"
)

// Ring defaults. MaxReplica 3 follows the hashring convention of the
// kraken exemplar (SNIPPETS.md): tolerate two losses per key at 3x ingest
// cost. VirtualNodes 64 keeps per-node load within a few percent of even
// for small clusters while the ring stays a few KB.
const (
	DefaultMaxReplica   = 3
	DefaultVirtualNodes = 64
)

// RingConfig parameterizes a Ring.
type RingConfig struct {
	// MaxReplica is the number of distinct nodes each key is routed to.
	// If MaxReplica >= the number of nodes, every node owns every key.
	// 0 means DefaultMaxReplica.
	MaxReplica int
	// VirtualNodes is the number of ring points per node; more points
	// smooth the load split at the cost of ring size. 0 means
	// DefaultVirtualNodes.
	VirtualNodes int
	// Seed parameterizes both the point placement and the key hash. All
	// parties routing for the same cluster must agree on it, exactly like
	// a shared sketch seed.
	Seed uint64
}

// ringPoint is one virtual node: a position on the 64-bit ring and the
// index of the owning member.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over a fixed member list.
// Lookups walk clockwise from the key's position collecting the first
// MaxReplica distinct members. Because membership changes move only the
// keys adjacent to the affected points, a node that dies and rejoins (the
// chaos suite's kill/restart cycle) keeps its key ownership — the ring is
// not rebuilt around failures; replication absorbs them instead.
//
// Ring is safe for concurrent use: all state is fixed at construction.
type Ring struct {
	nodes    []string
	points   []ringPoint
	replicas int
	seed     uint64
}

// NewRing builds a ring over nodes. Node names must be non-empty and
// unique; order does not affect key placement (points are derived from
// names, not indices).
func NewRing(cfg RingConfig, nodes []string) (*Ring, error) {
	if cfg.MaxReplica == 0 {
		cfg.MaxReplica = DefaultMaxReplica
	}
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = DefaultVirtualNodes
	}
	if cfg.MaxReplica < 1 {
		return nil, fmt.Errorf("cluster: MaxReplica must be >= 1, got %d", cfg.MaxReplica)
	}
	if cfg.VirtualNodes < 1 {
		return nil, fmt.Errorf("cluster: VirtualNodes must be >= 1, got %d", cfg.VirtualNodes)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = struct{}{}
	}
	r := &Ring{
		nodes:    append([]string(nil), nodes...),
		points:   make([]ringPoint, 0, len(nodes)*cfg.VirtualNodes),
		replicas: cfg.MaxReplica,
		seed:     cfg.Seed,
	}
	for i, n := range r.nodes {
		// One walk of the name, then derive each virtual point from the
		// well-mixed base — same derive pattern as the sketch hot path.
		base := hash.Sum64(r.seed, []byte(n))
		for v := 0; v < cfg.VirtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash.Sum64Uint64(base, uint64(v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Full-width 64-bit collisions are vanishingly rare; break them by
		// node so the ring order is deterministic regardless of input order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Replicas returns how many distinct nodes each key routes to: the
// configured MaxReplica clamped to the cluster size.
func (r *Ring) Replicas() int {
	if r.replicas > len(r.nodes) {
		return len(r.nodes)
	}
	return r.replicas
}

// Locations appends the indices (into the node list NewRing was given) of
// the replica set for key to dst and returns it. The first index is the
// key's primary owner; the rest follow in ring order. Reusing dst across
// calls makes the per-packet routing step allocation-free in the bench
// fan-out path.
func (r *Ring) Locations(dst []int, key []byte) []int {
	kh := hash.Sum64(r.seed, key)
	want := r.Replicas()
	// First point clockwise of the key, wrapping at the top of the ring.
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= kh
	})
	for i := 0; len(dst) < want; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !containsInt(dst, p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}

// containsInt is a linear scan; replica sets are tiny (typically 2-3).
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
