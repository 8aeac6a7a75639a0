package heavykeeper

import (
	"fmt"
	"sort"
	"sync"
)

// Engine is the algorithm-side contract behind a Summarizer frontend: one
// single-goroutine top-k tracker instance, HeavyKeeper's included
// (hkEngine). The two frontends (TopK, Sharded) layer identity, locking and
// shard routing on top of it, so any registered algorithm gets every
// deployment shape for free.
//
// The *Hashed methods are the one-hash discipline: KeyHash is the engine's
// single per-key hash, and a caller that already computed it (the sharded
// router, a batched pre-pass) hands it down so the key bytes are traversed
// at most once per packet. Engines that do not hash internally (map-indexed
// trackers) simply ignore the value; Insert must behave exactly like
// InsertHashed(key, KeyHash(key)).
type Engine interface {
	// Name identifies the algorithm (its registry name).
	Name() string
	// KeyHash returns the engine's single per-key hash.
	KeyHash(key []byte) uint64
	// Insert records one packet of flow key.
	Insert(key []byte)
	// InsertHashed is Insert with the key's precomputed KeyHash.
	InsertHashed(key []byte, h uint64)
	// InsertN records a weight-n arrival (n packets, or n bytes when ranking
	// by volume).
	InsertN(key []byte, n uint64)
	// InsertNHashed is InsertN with the key's precomputed KeyHash.
	InsertNHashed(key []byte, h uint64, n uint64)
	// Query returns the engine's current size estimate for key (0 when the
	// flow is unmonitored).
	Query(key []byte) uint64
	// QueryHashed is Query with the key's precomputed KeyHash.
	QueryHashed(key []byte, h uint64) uint64
	// Top returns up to k flows in descending estimated size.
	Top(k int) []Flow
	// MergeFrom folds other into the receiver. Engines without a merge
	// operation return ErrMergeUnsupported regardless of the argument; a
	// mergeable engine handed another algorithm or an incompatible
	// configuration returns ErrMergeMismatch.
	MergeFrom(other Engine) error
	// MemoryBytes is the engine's logical footprint under the paper's §VI-A
	// accounting.
	MemoryBytes() int
	// Stats exposes ingest event counters. Non-sketch engines fill only the
	// fields that apply to them (at least Packets).
	Stats() Stats
}

// BatchEngine is optionally implemented by engines with a batched ingest
// path cheaper than a loop of InsertHashed (the HeavyKeeper engine's
// chunked hash-precompute pipeline). hashes may be nil, in which case the
// engine hashes each key itself — exactly once.
type BatchEngine interface {
	Engine
	InsertBatchHashed(keys [][]byte, hashes []uint64)
}

// EngineConfig is the uniform sizing contract of the algorithm registry:
// every builder receives a report size, a total byte budget and a seed, and
// applies its algorithm's own sizing rule (the paper's §VI-A setup) to fill
// the budget.
type EngineConfig struct {
	// K is the report size. Required.
	K int
	// MemoryBytes is the total byte budget. 0 means DefaultMemory.
	MemoryBytes int
	// Seed makes hashing (and decay, where applicable) deterministic.
	Seed uint64
}

// budget returns the effective byte budget.
func (c EngineConfig) budget() int {
	if c.MemoryBytes == 0 {
		return DefaultMemory
	}
	return c.MemoryBytes
}

// AlgorithmBuilder constructs one engine instance for a configuration.
type AlgorithmBuilder func(cfg EngineConfig) (Engine, error)

// registry is the algorithm table behind WithAlgorithm and BuildEngine.
var registry = struct {
	sync.RWMutex
	m map[string]AlgorithmBuilder
}{m: map[string]AlgorithmBuilder{}}

// RegisterAlgorithm adds (or replaces) a named algorithm. The built-in
// algorithms register themselves at init; user packages can add their own
// engines and select them with WithAlgorithm from any frontend, hkbench and
// hktopk included. Registering with a nil builder panics.
func RegisterAlgorithm(name string, build AlgorithmBuilder) {
	if name == "" || build == nil {
		panic("heavykeeper: RegisterAlgorithm with empty name or nil builder")
	}
	registry.Lock()
	defer registry.Unlock()
	registry.m[name] = build
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildEngine constructs a bare engine by registry name — the frontend-free
// entry point used by internal/harness and by callers embedding an
// algorithm into their own machinery. Most users want New(k,
// WithAlgorithm(name)) instead, which wraps the engine in a frontend.
func BuildEngine(name string, cfg EngineConfig) (Engine, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrInvalidK, cfg.K)
	}
	registry.RLock()
	build := registry.m[name]
	registry.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownAlgorithm, name, Algorithms())
	}
	return build(cfg)
}
