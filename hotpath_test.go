// Hot-path regression tests: the ingest path performs exactly one key-bytes
// hash per packet and zero heap allocations per operation, across every
// frontend: TopK, the one-shard WithConcurrency Sharded (the "Concurrent"
// rows) and a four-shard Sharded. These pin the one-hash and packed-layout
// properties so later work cannot silently regress them.
package heavykeeper_test

import (
	"fmt"
	"testing"

	heavykeeper "repro"
	"repro/internal/hash"
)

// hotKeys returns n distinct flow IDs.
func hotKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("flow-%04d", i))
	}
	return keys
}

// countKeyHashes returns the number of hash.Sum64 invocations fn makes.
func countKeyHashes(fn func()) uint64 {
	var n uint64
	hash.CountCalls(&n)
	defer hash.CountCalls(nil)
	fn()
	return n
}

// TestOneHashPerPacket: every public ingest and query entry point hashes the
// key bytes exactly once per packet — including Sharded, whose router mixes
// the same hash for shard selection instead of hashing again.
func TestOneHashPerPacket(t *testing.T) {
	keys := hotKeys(256)
	k := keys[0]
	ks := string(k)

	tk := heavykeeper.MustNew(100, heavykeeper.WithSeed(1))
	conc := heavykeeper.MustNew(100, heavykeeper.WithConcurrency(), heavykeeper.WithSeed(1))
	shrd := heavykeeper.MustNew(100, heavykeeper.WithSeed(1), heavykeeper.WithShards(4))

	for name, tc := range map[string]struct {
		fn   func()
		want uint64
	}{
		"TopK.Add":        {func() { tk.Add(k) }, 1},
		"TopK.AddN":       {func() { tk.AddN(k, 3) }, 1},
		"TopK.AddString":  {func() { tk.AddString(ks) }, 1},
		"TopK.Query":      {func() { tk.Query(k) }, 1},
		"TopK.AddBatch":   {func() { tk.AddBatch(keys) }, uint64(len(keys))},
		"Concurrent.Add":  {func() { conc.Add(k) }, 1},
		"Concurrent.AddN": {func() { conc.AddN(k, 3) }, 1},
		"Concurrent.AddString": {
			func() { conc.AddString(ks) }, 1,
		},
		"Concurrent.Query": {func() { conc.Query(k) }, 1},
		"Concurrent.AddBatch": {
			func() { conc.AddBatch(keys) }, uint64(len(keys)),
		},
		"Sharded.Add":       {func() { shrd.Add(k) }, 1},
		"Sharded.AddN":      {func() { shrd.AddN(k, 3) }, 1},
		"Sharded.AddString": {func() { shrd.AddString(ks) }, 1},
		"Sharded.Query":     {func() { shrd.Query(k) }, 1},
		"Sharded.AddBatch": {
			func() { shrd.AddBatch(keys) }, uint64(len(keys)),
		},
	} {
		if got := countKeyHashes(tc.fn); got != tc.want {
			t.Errorf("%s: %d key hashes, want %d", name, got, tc.want)
		}
	}
}

// TestZeroAllocIngest: steady-state Add, AddString, AddBatch and Query
// allocate nothing on any frontend. AddString is pinned explicitly: the
// string entry points share the []byte hot path through a zero-copy view,
// so no []byte(s) conversion is ever materialized. The structures are
// warmed with the exact key set first so the measurement sees increments
// and bucket moves, not first-time admissions (which legitimately
// materialize one string per admitted flow).
func TestZeroAllocIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race (sync.Pool caches are dropped)")
	}
	keys := hotKeys(64)
	k := keys[0]
	ks := string(k)

	tk := heavykeeper.MustNew(100, heavykeeper.WithSeed(1))
	shrd := heavykeeper.MustNew(100, heavykeeper.WithSeed(1), heavykeeper.WithShards(4))
	conc := heavykeeper.MustNew(100, heavykeeper.WithConcurrency(), heavykeeper.WithSeed(1))
	warm := func() {
		for i := 0; i < 50; i++ {
			tk.AddBatch(keys)
			shrd.AddBatch(keys)
			conc.AddBatch(keys)
			for _, key := range keys {
				tk.Add(key)
				shrd.Add(key)
				conc.Add(key)
			}
		}
	}
	warm()

	for name, fn := range map[string]func(){
		"TopK.Add":             func() { tk.Add(k) },
		"TopK.AddString":       func() { tk.AddString(ks) },
		"TopK.AddBatch":        func() { tk.AddBatch(keys) },
		"TopK.Query":           func() { tk.Query(k) },
		"Sharded.Add":          func() { shrd.Add(k) },
		"Sharded.AddString":    func() { shrd.AddString(ks) },
		"Sharded.AddBatch":     func() { shrd.AddBatch(keys) },
		"Sharded.Query":        func() { shrd.Query(k) },
		"Concurrent.Add":       func() { conc.Add(k) },
		"Concurrent.AddString": func() { conc.AddString(ks) },
		"Concurrent.AddBatch":  func() { conc.AddBatch(keys) },
		"Concurrent.Query":     func() { conc.Query(k) },
	} {
		if avg := testing.AllocsPerRun(100, fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, avg)
		}
	}
}

// TestStoreLayerHashFree pins the store-layer half of the one-hash
// invariant directly: once a flow is resident, the probe-then-update store
// sequence driven by Add/AddBatch performs no key-bytes hashing of its own —
// the single KeyHash counted in TestOneHashPerPacket is computed by the
// sketch and reused by the store index. A second hash here would point at a
// store op that fell off the *Hashed path.
func TestStoreLayerHashFree(t *testing.T) {
	keys := hotKeys(32)
	tk := heavykeeper.MustNew(16, heavykeeper.WithSeed(1))
	// Warm: with 32 flows on a k=16 store, both store hits (resident flows
	// being updated) and admission/eviction churn happen steadily.
	for i := 0; i < 20; i++ {
		tk.AddBatch(keys)
	}
	for i, key := range keys {
		if got := countKeyHashes(func() { tk.Add(key) }); got != 1 {
			t.Errorf("Add(keys[%d]) hashed %d times, want 1", i, got)
		}
	}
	if got := countKeyHashes(func() { tk.AddBatch(keys) }); got != uint64(len(keys)) {
		t.Errorf("AddBatch hashed %d times, want %d", got, len(keys))
	}
}
