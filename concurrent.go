package heavykeeper

import (
	"fmt"
	"iter"
	"reflect"
	"sync"
)

// Concurrent is a mutex-guarded TopK for multi-goroutine use. HeavyKeeper's
// single-writer hot path is a few dozen nanoseconds, so a plain mutex keeps
// up with millions of packets per second from a handful of goroutines.
// Prefer Sharded when ingest is the bottleneck: it fans flows across
// per-core TopK shards by flow hash, so writers contend on per-shard locks
// instead of this single global one, and its AddBatch takes each shard lock
// once per batch rather than once per packet. Concurrent remains the right
// choice when a single global sketch is required (e.g. for snapshotting one
// mergeable sketch) or when write concurrency is low.
//
// Construct one with New(k, WithConcurrency(), ...).
type Concurrent struct {
	mu sync.Mutex
	t  *TopK
}

// Synchronized returns a concurrency-safe view of s: a bare *TopK is
// wrapped behind a mutex (the returned Concurrent shares its state);
// every other frontend is already safe for concurrent use and is
// returned unchanged. Servers use it to accept any Summarizer — a
// ReadSummarizer-restored *TopK included — without a data race.
func Synchronized(s Summarizer) Summarizer {
	if t, ok := s.(*TopK); ok {
		return &Concurrent{t: t}
	}
	return s
}

// Add records one occurrence of flowID.
func (c *Concurrent) Add(flowID []byte) {
	c.mu.Lock()
	c.t.Add(flowID)
	c.mu.Unlock()
}

// AddString is Add for string identifiers, without copying the string.
func (c *Concurrent) AddString(flowID string) {
	c.mu.Lock()
	c.t.AddString(flowID)
	c.mu.Unlock()
}

// AddN records a weight-n occurrence of flowID.
func (c *Concurrent) AddN(flowID []byte, n uint64) {
	c.mu.Lock()
	c.t.AddN(flowID, n)
	c.mu.Unlock()
}

// AddBatch records one occurrence of every flow identifier in flowIDs,
// taking the lock once for the whole batch and using the batched sketch
// path underneath.
func (c *Concurrent) AddBatch(flowIDs [][]byte) {
	c.mu.Lock()
	c.t.AddBatch(flowIDs)
	c.mu.Unlock()
}

// Query returns the current size estimate for flowID.
func (c *Concurrent) Query(flowID []byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Query(flowID)
}

// List returns the current top-k flows in descending estimated size.
func (c *Concurrent) List() []Flow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.List()
}

// All returns an iterator over the current top-k flows in descending
// estimated size. The snapshot is taken under the lock when iteration
// starts; the caller consumes it lock-free, so ingest may continue (and
// Add from inside the loop cannot deadlock).
func (c *Concurrent) All() iter.Seq[Flow] {
	return func(yield func(Flow) bool) {
		for _, f := range c.List() {
			if !yield(f) {
				return
			}
		}
	}
}

// Merge folds other into c. other must be a *Concurrent built with the same
// configuration; both sides' locks are held (in a deterministic instance
// order, so concurrent a.Merge(b) and b.Merge(a) cannot deadlock) and
// other is left unmodified.
func (c *Concurrent) Merge(other Summarizer) error {
	o, ok := other.(*Concurrent)
	if !ok || o == nil || o == c {
		return fmt.Errorf("%w: Concurrent cannot merge %T (nil or self included)", ErrMergeMismatch, other)
	}
	first, second := c, o
	if reflect.ValueOf(first).Pointer() > reflect.ValueOf(second).Pointer() {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	return c.t.Merge(o.t)
}

// K returns the configured report size.
func (c *Concurrent) K() int { return c.t.K() }

// MemoryBytes returns the logical memory footprint.
func (c *Concurrent) MemoryBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.MemoryBytes()
}

// Stats exposes the engine's internal event counters.
func (c *Concurrent) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Stats()
}

// StoreIndexStats reports the top-k store's index occupancy and probe
// lengths, exactly as TopK.StoreIndexStats does; all three frontends
// expose the surface uniformly, so monitoring code type-asserts
// StoreIndexReporter once instead of switching on the frontend type.
func (c *Concurrent) StoreIndexStats() (StoreIndexStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.StoreIndexStats()
}
