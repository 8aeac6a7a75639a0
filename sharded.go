package heavykeeper

import (
	"bytes"
	"cmp"
	"fmt"
	"iter"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hash"
	"repro/internal/xrand"
)

// shardSeedSalt decorrelates the shard-selector hash from the seeds the
// sketches derive internally from the same user seed.
const shardSeedSalt = 0x9e3779b97f4a7c15

// Sharded is the scale-out TopK: flows fan across N TopK shards by flow
// hash, so a flow always lands on the same shard and each shard is an exact
// HeavyKeeper over its slice of the traffic — the software analogue of the
// paper's Hardware Parallel version (§III-E), whose point is that per-array
// work is independent and parallelizable. Each shard has its own mutex, so
// writers to different shards never serialize. One shard (WithConcurrency,
// or Synchronized around a TopK) is one TopK behind one mutex.
//
// With more than one shard, AddBatch is shard-affine. The caller routes each
// key once, copies each shard's share of the batch into a recycled chunk,
// queues the chunk on that shard's bounded inbox and returns without waiting.
// One drainer goroutine per shard applies the queued chunks under the shard
// lock, so each shard's sketch and store stay warm in one core's cache
// instead of moving to whichever connection goroutine wrote last. A caller
// that finds an inbox full applies the backlog itself, which is the
// backpressure. Add, AddN and a one-shard AddBatch apply inline.
//
// A drainer runs only while its shard has queued chunks: the AddBatch that
// queues onto an idle shard starts it, and it exits once it has caught up.
// An idle Sharded owns no goroutines, so there is nothing to close.
//
// Every read — Query, List, All, Stats, MemoryBytes, StoreIndexStats,
// WriteTo, and Merge on both sides — first applies whatever its shard still
// has queued, so it reflects every Add, AddN and AddBatch that returned
// before the read began. Add and AddN catch their shard up the same way
// before applying, so each shard sees one producer's arrivals in stream
// order and a single producer builds exactly the state per-packet Add would.
//
// Query routes to the owning shard and is as accurate as a single TopK over
// that flow's packets. List merges the per-shard summaries into a global
// top-k; because every flow lives in exactly one shard the merge is exact
// over the reported candidates.
//
// The WithMemory budget (or the default) is the total across shards: each
// shard gets an equal slice for its bucket arrays, plus its own k-entry
// summary. WithWidth, by contrast, is per shard. All shards share the
// configured seed, so shard i of one Sharded is bucket-compatible with
// shard i of another built with the same options — which is what Merge
// exploits.
type Sharded struct {
	shards    []shard
	shardSeed uint64
	k         int
	scratch   sync.Pool // *pendingChunks for AddBatch routing
}

// inboxDepth bounds each shard's queue of AddBatch chunks. hkd decodes a
// whole 64 KiB read-ahead buffer per socket read, about 50 frames of 256
// short ids, so a connection hands each shard its chunks in bursts of that
// size. A shallow inbox overflows in every burst and the connection applies
// the backlog itself: in short runs of hkd's two-connection, two-shard
// workload, depths 16 and 32 ingested 3–9 % less than 64, while 40 was
// within noise of 64 at five eighths of its memory.
const inboxDepth = 40

// maxRecycledChunk caps the bytes a recycled chunk keeps: a chunk that grew
// past it for one outsized batch is dropped instead of pinning the memory in
// the free list.
const maxRecycledChunk = 64 << 10

// chunk is one producer's share of one AddBatch for one shard: the key bytes
// back to back, where each key ends, and each key's KeyHash, so the drainer
// applies it through the batched sketch path without hashing again.
type chunk struct {
	arena  []byte
	ends   []uint32
	hashes []uint64
}

// pendingChunks is AddBatch's per-call routing scratch: the chunk being
// filled for each shard, nil until the first key routes there.
type pendingChunks struct {
	c []*chunk
}

// shard is one (mutex, TopK) pair with its inbox. The fields add up to one
// 64-byte cache line on 64-bit platforms, so neighboring shard locks don't
// false-share.
type shard struct {
	mu      sync.Mutex
	t       *TopK
	inbox   chan *chunk  // queued AddBatch shares; popped only under mu
	free    chan *chunk  // applied chunks, recycled by producers
	pending atomic.Int64 // sends not yet covered by a drainer pass
	keys    [][]byte     // key views of the chunk being applied; used under mu
}

// newShardedFromConfig builds a Sharded with cfg.shards shards.
func newShardedFromConfig(k int, cfg config) (*Sharded, error) {
	n := cfg.shards
	shardCfg := cfg
	if cfg.width == 0 {
		budget := cfg.memoryBytes
		if budget == 0 {
			budget = DefaultMemory
		}
		shardCfg.memoryBytes = budget / n
		if shardCfg.memoryBytes < 1 {
			shardCfg.memoryBytes = 1
		}
	}
	tops := make([]*TopK, n)
	for i := range tops {
		t, err := newTopK(k, shardCfg)
		if err != nil {
			return nil, err
		}
		tops[i] = t
	}
	return newSharded(k, shardSeedFor(cfg.seed), tops), nil
}

// shardSeedFor derives the router's seed from the WithSeed value.
func shardSeedFor(seed uint64) uint64 {
	return xrand.NewSplitMix64(seed ^ shardSeedSalt).Next()
}

// Synchronized returns a concurrency-safe view of s: a bare *TopK becomes
// a one-shard *Sharded that shares its state, exactly what
// New(k, WithConcurrency()) builds; every other frontend is already safe
// for concurrent use and is returned unchanged. Servers use it to accept
// any Summarizer — a ReadSummarizer-restored *TopK included — without a
// data race.
func Synchronized(s Summarizer) Summarizer {
	if t, ok := s.(*TopK); ok {
		return oneShard(t)
	}
	return s
}

// oneShard wraps t as a one-shard Sharded under t's seed.
func oneShard(t *TopK) *Sharded {
	return newSharded(t.k, shardSeedFor(t.seed), []*TopK{t})
}

// newSharded assembles a Sharded over tops, with an inbox per shard when
// there is more than one.
func newSharded(k int, shardSeed uint64, tops []*TopK) *Sharded {
	s := &Sharded{shards: make([]shard, len(tops)), shardSeed: shardSeed, k: k}
	for i, t := range tops {
		s.shards[i].t = t
	}
	if len(tops) == 1 {
		return s
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.inbox = make(chan *chunk, inboxDepth)
		// The free list starts full: a full inbox's chunks plus eight for
		// producers to fill meanwhile, so ingest recycles chunks instead
		// of allocating them. Chunks cycle through it in FIFO order, so
		// every one has been sized once that many batches have passed.
		sh.free = make(chan *chunk, inboxDepth+8)
		for range cap(sh.free) {
			sh.free <- new(chunk)
		}
	}
	return s
}

// drain is a shard's drainer, started by the send that raises pending from
// zero. Each pass applies every chunk queued before it took the lock, which
// covers the n sends counted when the pass began; the drainer exits when no
// send has been counted since. At most one drainer per shard runs at a time,
// since a new one starts only after the last one brought pending to zero.
func (sh *shard) drain() {
	for {
		n := sh.pending.Load()
		sh.mu.Lock()
		sh.applyQueued()
		sh.mu.Unlock()
		if sh.pending.Add(-n) == 0 {
			return
		}
		// Unlock queues a goroutine blocked in Lock to run next on this
		// processor. A busy drainer never blocks, so without the yield that
		// waiter — a read, typically — would wait until the scheduler
		// preempts the drainer, about 10 ms later.
		runtime.Gosched()
	}
}

// lock takes the shard lock and applies every chunk still queued, so the
// caller sees every AddBatch that returned before it. Chunks are popped only
// under the lock, so none can be popped by someone else and not yet applied.
func (sh *shard) lock() {
	sh.mu.Lock()
	sh.applyQueued()
}

// applyQueued applies the chunks queued when it starts, in FIFO order; mu
// must be held. Chunks queued meanwhile belong to a later pass or read.
func (sh *shard) applyQueued() {
	for n := len(sh.inbox); n > 0; n-- {
		sh.apply(<-sh.inbox)
	}
}

// apply feeds c to the shard's TopK and recycles it; mu must be held.
func (sh *shard) apply(c *chunk) {
	keys := sh.keys[:0]
	start := uint32(0)
	for _, end := range c.ends {
		keys = append(keys, c.arena[start:end:end])
		start = end
	}
	sh.t.addBatchHashed(keys, c.hashes)
	sh.keys = keys
	if cap(c.arena)+4*cap(c.ends)+8*cap(c.hashes) > maxRecycledChunk {
		return
	}
	c.arena, c.ends, c.hashes = c.arena[:0], c.ends[:0], c.hashes[:0]
	select {
	case sh.free <- c:
	default:
	}
}

// chunk returns an empty chunk, recycled when one is free.
func (sh *shard) chunk() *chunk {
	select {
	case c := <-sh.free:
		return c
	default:
		return new(chunk)
	}
}

// send queues c for the drainer, starting one if the shard was idle. When the
// inbox is full the caller applies the backlog and then c itself, which keeps
// this producer's chunks in order.
func (sh *shard) send(c *chunk) {
	select {
	case sh.inbox <- c:
		if sh.pending.Add(1) == 1 {
			go sh.drain()
		}
	default:
		sh.lock()
		sh.apply(c)
		sh.mu.Unlock()
		runtime.Gosched() // let a waiter run now; see drain
	}
}

// shardFor returns the shard owning flowID plus the flow's KeyHash. All
// shards share the configured seed, so the hash is valid on every shard's
// sketch; the shard index mixes it under the router's own seed (decorrelated
// from bucket placement) — one pass over the key bytes covers both routing
// and sketching.
func (s *Sharded) shardFor(flowID []byte) (*shard, uint64) {
	h := s.shards[0].t.eng.KeyHash(flowID)
	return &s.shards[hash.Reduce(hash.Mix(s.shardSeed, h), uint64(len(s.shards)))], h
}

// Add records one occurrence of flowID on its owning shard.
func (s *Sharded) Add(flowID []byte) {
	sh, h := s.shardFor(flowID)
	sh.lock()
	sh.t.eng.InsertHashed(flowID, h)
	sh.mu.Unlock()
}

// AddString is Add for string identifiers, without copying the string.
func (s *Sharded) AddString(flowID string) { s.Add(bytesOf(flowID)) }

// AddN records a weight-n occurrence of flowID.
func (s *Sharded) AddN(flowID []byte, n uint64) {
	sh, h := s.shardFor(flowID)
	sh.lock()
	sh.t.eng.InsertNHashed(flowID, h, n)
	sh.mu.Unlock()
}

// AddBatch records one occurrence of every flow identifier in flowIDs. Each
// key is hashed once and routed to its owning shard. With one shard the
// batch flows straight down the batched sketch path under the shard lock.
// With more, each shard's share is copied into a chunk and queued for that
// shard's drainer, and AddBatch returns without waiting; flowIDs may be
// reused as soon as it returns. Within a shard one caller's identifiers are
// applied in stream order, so a single producer's results match per-packet
// Add exactly.
func (s *Sharded) AddBatch(flowIDs [][]byte) {
	n := len(s.shards)
	if n == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		sh.t.AddBatch(flowIDs)
		sh.mu.Unlock()
		return
	}
	p, ok := s.scratch.Get().(*pendingChunks)
	if !ok {
		p = &pendingChunks{c: make([]*chunk, n)}
	}
	keyHash := s.shards[0].t.eng.KeyHash
	for _, id := range flowIDs {
		h := keyHash(id)
		j := hash.Reduce(hash.Mix(s.shardSeed, h), uint64(n))
		c := p.c[j]
		if c == nil {
			c = s.shards[j].chunk()
			p.c[j] = c
		}
		c.arena = append(c.arena, id...)
		c.ends = append(c.ends, uint32(len(c.arena)))
		c.hashes = append(c.hashes, h)
	}
	for j, c := range p.c {
		if c != nil {
			s.shards[j].send(c)
			p.c[j] = nil
		}
	}
	s.scratch.Put(p)
}

// Query returns the current size estimate for flowID from its owning shard;
// the estimate is exact in the HeavyKeeper sense, as if a single TopK had
// seen all of the flow's packets.
func (s *Sharded) Query(flowID []byte) uint64 {
	sh, h := s.shardFor(flowID)
	sh.lock()
	defer sh.mu.Unlock()
	return sh.t.eng.QueryHashed(flowID, h)
}

// List returns the current global top-k in descending estimated size,
// merging the per-shard summaries (each flow is reported by exactly one
// shard, so candidate counts combine without double-counting). Shard locks
// are taken one at a time; under concurrent ingest the result is a slightly
// time-smeared snapshot. One shard reports its own List, ties in its own
// order.
func (s *Sharded) List() []Flow {
	if len(s.shards) == 1 {
		sh := &s.shards[0]
		sh.lock()
		defer sh.mu.Unlock()
		return sh.t.List()
	}
	var all []Flow
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		all = append(all, sh.t.List()...)
		sh.mu.Unlock()
	}
	// Shards are disjoint, so no candidate appears twice: sort the union
	// (count descending, ID ascending for determinism) and keep k.
	slices.SortFunc(all, func(a, b Flow) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return bytes.Compare(a.ID, b.ID)
	})
	return all[:min(len(all), s.k)]
}

// Merge folds other into s, shard by shard, reusing the bucket-level merge
// rule of internal/core: shard i's sketches are bucket-compatible because
// both Shardeds were built with the same options (including WithSeed and
// WithShards), and the shard selector is seed-derived, so flow ownership
// agrees on both sides. Use it to fold per-epoch or per-measurement-point
// Shardeds into one, the paper's footnote-2 collector pattern. other is
// left unmodified; neither side may be ingesting during the merge. other
// must itself be a *Sharded with the same layout; ErrMergeMismatch
// otherwise.
func (s *Sharded) Merge(other Summarizer) error {
	o, ok := other.(*Sharded)
	if !ok || o == nil || o == s {
		return fmt.Errorf("%w: Sharded cannot merge %T (nil or self included)", ErrMergeMismatch, other)
	}
	if len(s.shards) != len(o.shards) || s.shardSeed != o.shardSeed {
		return fmt.Errorf("%w: shard layout mismatch: %d shards/seed %#x vs %d shards/seed %#x",
			ErrMergeMismatch, len(s.shards), s.shardSeed, len(o.shards), o.shardSeed)
	}
	// Lock each shard pair in a deterministic instance order so concurrent
	// a.Merge(b) and b.Merge(a) cannot deadlock.
	first, second := s, o
	if reflect.ValueOf(first).Pointer() > reflect.ValueOf(second).Pointer() {
		first, second = second, first
	}
	for i := range s.shards {
		sh, oh := &s.shards[i], &o.shards[i]
		first.shards[i].lock()
		second.shards[i].lock()
		err := sh.t.Merge(oh.t)
		oh.mu.Unlock()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("heavykeeper: merging shard %d: %w", i, err)
		}
	}
	return nil
}

// All returns an iterator over the current global top-k in descending
// estimated size. The merged snapshot is taken (shard locks one at a time)
// when iteration starts; the caller consumes it lock-free.
func (s *Sharded) All() iter.Seq[Flow] {
	return func(yield func(Flow) bool) {
		for _, f := range s.List() {
			if !yield(f) {
				return
			}
		}
	}
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// K returns the configured report size.
func (s *Sharded) K() int { return s.k }

// MemoryBytes returns the total logical memory footprint across shards.
func (s *Sharded) MemoryBytes() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		total += sh.t.MemoryBytes()
		sh.mu.Unlock()
	}
	return total
}

// StoreIndexStats aggregates the per-shard store index statistics: sizes and
// occupancy sum, probe histograms add bin-wise, MaxProbe is the worst shard.
// ok is false when the shards run a registry engine, which has no such index.
func (s *Sharded) StoreIndexStats() (StoreIndexStats, bool) {
	var total StoreIndexStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		st, ok := sh.t.StoreIndexStats()
		sh.mu.Unlock()
		if !ok {
			return StoreIndexStats{}, false
		}
		total.Capacity += st.Capacity
		total.TableSize += st.TableSize
		total.Occupied += st.Occupied
		if st.MaxProbe > total.MaxProbe {
			total.MaxProbe = st.MaxProbe
		}
		if total.ProbeHist == nil {
			total.ProbeHist = make([]int, len(st.ProbeHist))
		}
		for b, n := range st.ProbeHist {
			total.ProbeHist[b] += n
		}
	}
	return total, true
}

// Stats returns the engine event counters summed across shards.
func (s *Sharded) Stats() Stats {
	var total Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		st := sh.t.Stats()
		sh.mu.Unlock()
		total.Packets += st.Packets
		total.Increments += st.Increments
		total.EmptyTakes += st.EmptyTakes
		total.DecayProbes += st.DecayProbes
		total.Decays += st.Decays
		total.Replacements += st.Replacements
		total.Overflows += st.Overflows
		total.Expansions += st.Expansions
	}
	return total
}
