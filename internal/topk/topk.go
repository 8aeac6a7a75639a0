// Package topk wires a HeavyKeeper sketch to a top-k structure, implementing
// the full flow-insertion pipelines of the paper: the basic version
// (§III-C), the Hardware Parallel version (§III-E, Algorithm 1) and the
// Software Minimum version (§IV, Algorithm 2), including Optimization I
// (fingerprint-collision detection) and Optimization II (selective
// increment).
//
// The top-k structure is pluggable: the paper presents a min-heap for
// exposition and uses Stream-Summary in its implementation for O(1) updates
// (§III-C note); both are provided here behind the Store interface so the
// trade-off can be measured.
package topk

import (
	"fmt"
	"iter"
	"sort"

	"repro/internal/core"
	"repro/internal/minheap"
	"repro/internal/streamsummary"
)

// Version selects the insertion discipline.
type Version int

const (
	// Basic is §III-C: no optimizations, admit when n̂ exceeds n_min.
	Basic Version = iota
	// Parallel is the Hardware Parallel version (§III-E, Algorithm 1).
	Parallel
	// Minimum is the Software Minimum version (§IV, Algorithm 2).
	Minimum
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case Basic:
		return "basic"
	case Parallel:
		return "parallel"
	case Minimum:
		return "minimum"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// StoreKind selects the top-k structure implementation.
type StoreKind int

const (
	// StoreHeap uses a keyed binary min-heap (O(log k) updates).
	StoreHeap StoreKind = iota
	// StoreSummary uses Stream-Summary (O(1) unit updates), as the paper's
	// implementation does, indexed by the open-addressed KeyHash table.
	StoreSummary
	// StoreSummaryRef uses the retained map-indexed Stream-Summary
	// (streamsummary.RefSummary). It exists for differential testing and for
	// benchmarking the index swap (hkbench -store=map); behavior is
	// identical to StoreSummary, only the key index differs.
	StoreSummaryRef
)

// Entry is one reported top-k flow.
type Entry struct {
	Key   string
	Count uint64
}

// Store abstracts the structure holding the current top-k candidates. The
// *Hashed methods are the hot path: they take the packet's single KeyHash
// (already computed for the sketch) so the store probes its index without
// re-hashing — and they must not materialize a string except on actual
// admission, so per-packet cost stays allocation-free. Implementations are
// constructed with the sketch's key-hash seed (newStore), making the
// caller's h and any internally computed hash agree on every key.
type Store interface {
	Len() int
	Full() bool
	Contains(key string) bool
	// ContainsHashed is Contains from the key's precomputed KeyHash, with no
	// string conversion and no re-hash.
	ContainsHashed(key []byte, h uint64) bool
	Count(key string) (uint64, bool)
	MinCount() uint64
	// UpdateMax raises key's recorded size to max(current, v).
	UpdateMax(key string, v uint64)
	// UpdateMaxHashed is UpdateMax in a single hash-free probe; absent keys
	// are ignored.
	UpdateMaxHashed(key []byte, h uint64, v uint64)
	// InsertEvict admits key with size v, evicting a minimum entry if full.
	InsertEvict(key string, v uint64)
	// InsertEvictHashed is InsertEvict for a byte-slice key with its
	// precomputed KeyHash; the string is materialized on admission only.
	InsertEvictHashed(key []byte, h uint64, v uint64)
	// Top returns up to k entries in descending size order.
	Top(k int) []Entry
}

// heapStore adapts minheap.Heap to Store.
type heapStore struct{ h *minheap.Heap }

func (s heapStore) Len() int                                  { return s.h.Len() }
func (s heapStore) Full() bool                                { return s.h.Full() }
func (s heapStore) Contains(key string) bool                  { return s.h.Contains(key) }
func (s heapStore) ContainsHashed(key []byte, h uint64) bool  { return s.h.ContainsHashed(key, h) }
func (s heapStore) Count(key string) (uint64, bool)           { return s.h.Count(key) }
func (s heapStore) MinCount() uint64                          { return s.h.MinCount() }
func (s heapStore) UpdateMax(key string, v uint64)            { s.h.UpdateMax(key, v) }
func (s heapStore) UpdateMaxHashed(key []byte, h, v uint64)   { s.h.UpdateMaxHashed(key, h, v) }
func (s heapStore) InsertEvict(key string, v uint64)          { s.h.Insert(key, v) }
func (s heapStore) InsertEvictHashed(key []byte, h, v uint64) { s.h.InsertHashed(key, h, v) }
func (s heapStore) Top(k int) []Entry                         { return convertEntries(s.h.Top(k)) }

// summaryStore adapts streamsummary.Summary to Store.
type summaryStore struct{ s *streamsummary.Summary }

func (s summaryStore) Len() int                                 { return s.s.Len() }
func (s summaryStore) Full() bool                               { return s.s.Full() }
func (s summaryStore) Contains(key string) bool                 { return s.s.Contains(key) }
func (s summaryStore) ContainsHashed(key []byte, h uint64) bool { return s.s.ContainsHashed(key, h) }
func (s summaryStore) Count(key string) (uint64, bool)          { return s.s.Count(key) }
func (s summaryStore) MinCount() uint64                         { return s.s.MinCount() }
func (s summaryStore) UpdateMaxHashed(key []byte, h, v uint64)  { s.s.UpdateMaxHashed(key, h, v) }
func (s summaryStore) UpdateMax(key string, v uint64) {
	if cur, ok := s.s.Count(key); ok && v > cur {
		s.s.Set(key, v)
	}
}
func (s summaryStore) InsertEvict(key string, v uint64) {
	if s.s.Full() {
		s.s.EvictMin()
	}
	s.s.Insert(key, v, 0)
}
func (s summaryStore) InsertEvictHashed(key []byte, h, v uint64) {
	if s.s.Full() {
		s.s.EvictMin()
	}
	s.s.InsertHashed(key, h, v, 0)
}
func (s summaryStore) Top(k int) []Entry { return convertSummaryEntries(s.s.Top(k)) }

// refStore adapts the map-indexed streamsummary.RefSummary to Store; the
// precomputed hashes are accepted and discarded (the map re-hashes
// internally), which is exactly the cost difference StoreSummaryRef exists
// to measure.
type refStore struct{ s *streamsummary.RefSummary }

func (s refStore) Len() int                                 { return s.s.Len() }
func (s refStore) Full() bool                               { return s.s.Full() }
func (s refStore) Contains(key string) bool                 { return s.s.Contains(key) }
func (s refStore) ContainsHashed(key []byte, h uint64) bool { return s.s.ContainsHashed(key, h) }
func (s refStore) Count(key string) (uint64, bool)          { return s.s.Count(key) }
func (s refStore) MinCount() uint64                         { return s.s.MinCount() }
func (s refStore) UpdateMaxHashed(key []byte, h, v uint64)  { s.s.UpdateMaxHashed(key, h, v) }
func (s refStore) UpdateMax(key string, v uint64) {
	if cur, ok := s.s.Count(key); ok && v > cur {
		s.s.Set(key, v)
	}
}
func (s refStore) InsertEvict(key string, v uint64) {
	if s.s.Full() {
		s.s.EvictMin()
	}
	s.s.Insert(key, v, 0)
}
func (s refStore) InsertEvictHashed(key []byte, h, v uint64) {
	if s.s.Full() {
		s.s.EvictMin()
	}
	s.s.InsertHashed(key, h, v, 0)
}
func (s refStore) Top(k int) []Entry { return convertSummaryEntries(s.s.Top(k)) }

// convertEntries converts minheap entries to topk entries.
func convertEntries(items []minheap.Entry) []Entry {
	out := make([]Entry, len(items))
	for i, e := range items {
		out[i] = Entry{Key: e.Key, Count: e.Count}
	}
	return out
}

// convertSummaryEntries converts streamsummary entries to topk entries.
func convertSummaryEntries(items []streamsummary.Entry) []Entry {
	out := make([]Entry, len(items))
	for i, e := range items {
		out[i] = Entry{Key: e.Key, Count: e.Count}
	}
	return out
}

// Options configures a Tracker.
type Options struct {
	// K is the number of flows to report. Required.
	K int
	// Version selects the insertion discipline. Default Parallel (the
	// paper's default in §VI-C).
	Version Version
	// Store selects the top-k structure. Default StoreSummary, matching the
	// paper's implementation note.
	Store StoreKind
	// Sketch configures the underlying HeavyKeeper.
	Sketch core.Config
	// DisableOptI turns off fingerprint-collision detection (admission only
	// when n̂ = n_min + 1); admission then uses n̂ > n_min. For ablations.
	DisableOptI bool
	// DisableOptII turns off selective increment. For ablations.
	DisableOptII bool
}

// Tracker finds the top-k elephant flows in a packet stream.
type Tracker struct {
	sk    *core.Sketch
	store Store
	opts  Options
}

// New constructs a Tracker.
func New(opts Options) (*Tracker, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("topk: K = %d, must be >= 1", opts.K)
	}
	sk, err := core.New(opts.Sketch)
	if err != nil {
		return nil, err
	}
	store, err := newStore(opts.Store, opts.K, sk.KeySeed())
	if err != nil {
		return nil, err
	}
	return &Tracker{sk: sk, store: store, opts: opts}, nil
}

// newStore constructs an empty top-k structure of the given kind. seed is
// the sketch's key-hash seed: the store's index hashes under it, so the
// KeyHash the tracker computes once per packet indexes the store directly.
func newStore(kind StoreKind, k int, seed uint64) (Store, error) {
	switch kind {
	case StoreHeap:
		return heapStore{minheap.NewSeeded(k, seed)}, nil
	case StoreSummary:
		return summaryStore{streamsummary.NewSeeded(k, seed)}, nil
	case StoreSummaryRef:
		return refStore{streamsummary.NewRef(k)}, nil
	default:
		return nil, fmt.Errorf("topk: unknown store kind %d", kind)
	}
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(opts Options) *Tracker {
	t, err := New(opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Insert records one packet belonging to flow key. The key bytes are hashed
// exactly once; the top-k structure is consulted through its allocation-free
// byte-key operations, so the per-packet path allocates only on actual
// admission of a new flow.
func (t *Tracker) Insert(key []byte) {
	t.insertHashed(key, t.sk.KeyHash(key))
}

// InsertHashed is Insert for a caller that already computed the sketch's
// KeyHash for key (e.g. the sharded router, which hashes once to pick a
// shard and passes the value through).
func (t *Tracker) InsertHashed(key []byte, h uint64) {
	t.insertHashed(key, h)
}

// insertHashed dispatches one packet with a precomputed key hash. For the
// optimized disciplines it implements Algorithm 1/2's three steps: Step 1
// takes the flow's membership flag, Step 2 inserts into the sketch with
// Optimization II gating, Step 3 admits to the top-k structure under
// Optimization I's n̂ = n_min + 1 rule. The generic path below probes the
// store for the flag on every packet; the default Stream-Summary store
// skips the probe where the flag cannot matter (insertHashedSummary).
func (t *Tracker) insertHashed(key []byte, h uint64) {
	switch t.opts.Version {
	case Basic:
		// §III-C: insert into HeavyKeeper, then update the top-k structure
		// with the reported estimate.
		t.admitBasicHashed(key, h, uint64(t.sk.InsertBasicHashed(key, h)))
	case Parallel, Minimum:
		// The default store gets a devirtualized path with the fused
		// probe-then-update pair (at most one index probe per packet);
		// other stores go through the interface.
		if ss, ok := t.store.(summaryStore); ok {
			t.insertHashedSummary(ss.s, key, h)
			return
		}
		flag := t.store.ContainsHashed(key, h)
		nmin := t.gateNMin(flag)
		var est uint64
		if t.opts.Version == Minimum {
			est = uint64(t.sk.InsertMinimumHashed(key, h, flag, nmin))
		} else {
			est = uint64(t.sk.InsertParallelHashed(key, h, flag, nmin))
		}
		t.admitOptimizedHashed(key, h, flag, est)
	default:
		panic("topk: invalid version " + t.opts.Version.String())
	}
}

// insertHashedSummary is insertHashed for the Parallel/Minimum disciplines
// against the concrete Stream-Summary store: no interface dispatch, and the
// store is probed at most once per packet — the handle from ProbeHashed
// takes the eventual update, valid because nothing between probe and update
// can unmonitor the entry.
//
// The Parallel discipline on the default two-array sketch reads its two
// mapped cells first and probes the store only when the membership flag
// can change the outcome. By Theorem 1, once the store is full with
// n_min = MinCount() > 0, the flag is irrelevant when every mapped cell
// holding the flow's fingerprint has a counter c < n_min:
//   - Optimization II's gate passes every such cell either way (c <= n_min;
//     DisableOptII has no gate), so the sketch update is the same and the
//     new estimate is at most max(c+1, 1) <= n_min;
//   - a monitored flow's recorded size is >= n_min, so UpdateMax with that
//     estimate is a no-op;
//   - an unmonitored flow is not admitted, since Optimization I needs
//     exactly n_min + 1 and DisableOptI needs more than n_min.
//
// So the packet takes flag = false without a probe. A store that is not
// full admits any estimate, and with n_min = 0 an estimate of 1 admits, so
// both always probe. Expanded sketches (d != 2) and the Minimum discipline
// probe every packet. Results are bit-identical to the generic
// path; FuzzProbeGate and the equivalence tests pin that.
func (t *Tracker) insertHashedSummary(ss *streamsummary.Summary, key []byte, h uint64) {
	full := ss.Len() >= t.opts.K
	var minCount uint64
	if full {
		minCount = ss.MinCount()
	}
	var l core.Loc2
	two := false
	if t.opts.Version == Parallel {
		l, two = t.sk.Locate2(h)
	}
	var probe streamsummary.Probe
	var flag bool
	// minCount is 0 unless the store is full, so this probes whenever the
	// store has room or an empty minimum.
	if !two || uint64(t.sk.Match2(l)) >= minCount {
		probe, flag = ss.ProbeHashed(key, h)
	}
	nmin := uint32(0xffffffff)
	if full && !flag && !t.opts.DisableOptII && minCount < uint64(nmin) {
		nmin = uint32(minCount)
	}
	var est uint64
	switch {
	case two:
		est = uint64(t.sk.InsertParallel2(l, flag, nmin))
	case t.opts.Version == Minimum:
		est = uint64(t.sk.InsertMinimumHashed(key, h, flag, nmin))
	default:
		est = uint64(t.sk.InsertParallelHashed(key, h, flag, nmin))
	}
	switch {
	case flag:
		ss.UpdateMaxProbe(probe, est)
	case est == 0:
	case !full:
		ss.InsertHashed(key, h, est, 0)
	case t.opts.DisableOptI:
		if est > minCount {
			ss.EvictMin()
			ss.InsertHashed(key, h, est, 0)
		}
	case est == minCount+1:
		ss.EvictMin()
		ss.InsertHashed(key, h, est, 0)
	}
}

// gateNMin computes the Optimization II gate value for a flow whose store
// membership is flag: while the structure has room every flow is a
// legitimate candidate, so gating applies only once it is full (Theorem 1's
// premise is a full min-heap of k flows).
func (t *Tracker) gateNMin(flag bool) uint32 {
	nmin := uint32(0xffffffff)
	if !flag && t.store.Full() && !t.opts.DisableOptII {
		m := t.store.MinCount()
		if m < uint64(nmin) {
			nmin = uint32(m)
		}
	}
	return nmin
}

// admitBasicHashed is the basic-discipline admission rule on the
// allocation-free hashed store path: a string is materialized only on actual
// admission, and the packet's single KeyHash h indexes every store probe.
func (t *Tracker) admitBasicHashed(key []byte, h uint64, est uint64) {
	switch {
	case t.store.ContainsHashed(key, h):
		t.store.UpdateMaxHashed(key, h, est)
	case !t.store.Full():
		if est > 0 {
			t.store.InsertEvictHashed(key, h, est)
		}
	case est > t.store.MinCount():
		t.store.InsertEvictHashed(key, h, est)
	}
}

// admitOptimizedHashed is the Algorithm 1/2 Step-3 admission rule on the
// allocation-free hashed store path.
func (t *Tracker) admitOptimizedHashed(key []byte, h uint64, flag bool, est uint64) {
	switch {
	case flag:
		t.store.UpdateMaxHashed(key, h, est)
	case est == 0:
	case !t.store.Full():
		t.store.InsertEvictHashed(key, h, est)
	default:
		if t.opts.DisableOptI {
			if est > t.store.MinCount() {
				t.store.InsertEvictHashed(key, h, est)
			}
			return
		}
		if est == t.store.MinCount()+1 {
			t.store.InsertEvictHashed(key, h, est)
		}
	}
}

// InsertN records a weight-n arrival of flow key (n packets, or n bytes
// when tracking volume). Weighted arrivals break Theorem 1's n̂ = n_min+1
// admission equality, so admission falls back to n̂ > n_min regardless of
// the Optimization I setting; everything else follows the configured
// version.
func (t *Tracker) InsertN(key []byte, n uint64) {
	if n == 0 {
		return
	}
	t.insertNHashed(key, t.sk.KeyHash(key), n)
}

// InsertNHashed is InsertN with a precomputed KeyHash.
func (t *Tracker) InsertNHashed(key []byte, h uint64, n uint64) {
	if n == 0 {
		return
	}
	t.insertNHashed(key, h, n)
}

func (t *Tracker) insertNHashed(key []byte, h uint64, n uint64) {
	flag := t.store.ContainsHashed(key, h)
	nmin := t.gateNMin(flag)
	var est uint64
	switch t.opts.Version {
	case Basic:
		est = uint64(t.sk.InsertBasicNHashed(key, h, n))
	case Minimum:
		est = uint64(t.sk.InsertMinimumNHashed(key, h, flag, nmin, n))
	default:
		est = uint64(t.sk.InsertParallelNHashed(key, h, flag, nmin, n))
	}
	switch {
	case flag:
		t.store.UpdateMaxHashed(key, h, est)
	case est == 0:
	case !t.store.Full():
		t.store.InsertEvictHashed(key, h, est)
	case est > t.store.MinCount():
		t.store.InsertEvictHashed(key, h, est)
	}
}

// InsertBatch records one packet per key, equivalently to calling Insert on
// each key in order but cheaper: the sketch's batch path (core batch.go)
// hashes a chunk of keys at a time in one tight loop — one 64-bit hash per
// key, from which fingerprint and bucket indexes derive in registers —
// before touching any bucket. The top-k structure is consulted and updated
// between keys exactly as in the sequential path, so results are bit-for-bit
// identical.
//
// The Minimum discipline's at-most-one-bucket scan is not batched yet and
// falls back to the sequential path.
func (t *Tracker) InsertBatch(keys [][]byte) {
	t.insertBatch(keys, nil)
}

// InsertBatchHashed is InsertBatch for a caller that already computed
// KeyHash for every key; hashes[i] must correspond to keys[i]. The sharded
// router uses it so grouping a batch by shard and ingesting it costs one
// hash per key in total.
func (t *Tracker) InsertBatchHashed(keys [][]byte, hashes []uint64) {
	t.insertBatch(keys, hashes)
}

func (t *Tracker) insertBatch(keys [][]byte, hashes []uint64) {
	switch t.opts.Version {
	case Minimum:
		if hashes == nil {
			for _, key := range keys {
				t.Insert(key)
			}
			return
		}
		for i, key := range keys {
			t.insertHashed(key, hashes[i])
		}
	case Basic:
		t.sk.InsertParallelBatch(keys, hashes, nil, func(i int, h uint64, est uint32) {
			t.admitBasicHashed(keys[i], h, uint64(est))
		})
	case Parallel:
		// The default configuration (Parallel × Stream-Summary) gets a fused
		// loop with the store devirtualized; anything else goes through the
		// generic closure-based path.
		if ss, ok := t.store.(summaryStore); ok {
			t.insertParallelBatchSummary(keys, hashes, ss.s)
			return
		}
		// gate and report run back to back per key, so flag carries from
		// one closure to the other without a second store lookup.
		var flag bool
		t.sk.InsertParallelBatch(keys, hashes,
			func(i int, h uint64) (bool, uint32) {
				flag = t.store.ContainsHashed(keys[i], h)
				return flag, t.gateNMin(flag)
			},
			func(i int, h uint64, est uint32) {
				t.admitOptimizedHashed(keys[i], h, flag, uint64(est))
			})
	default:
		panic("topk: invalid version " + t.opts.Version.String())
	}
}

// insertParallelBatchSummary is InsertBatch's hot path: the Parallel
// discipline against a Stream-Summary store. Per-key work goes through
// insertHashedSummary — the same devirtualized peek/probe/sketch/admit body
// the sequential path uses, so the admission rule lives in one place — with
// no gate/report closures in between. hashes, when non-nil, carries the
// caller's precomputed KeyHash per key; otherwise each chunk is hashed once
// here in one tight loop.
//
// There is no prefetch pass ahead of the apply loop: most low-skew packets
// skip the store probe, and touching every key's home store slot first
// measured 4–6 % slower end to end on both workloads tried, as did touching
// the sketch cells in process (doc/performance.md).
func (t *Tracker) insertParallelBatchSummary(keys [][]byte, hashes []uint64, ss *streamsummary.Summary) {
	if hashes != nil {
		for i, key := range keys {
			t.insertHashedSummary(ss, key, hashes[i])
		}
		return
	}
	for off := 0; off < len(keys); off += core.BatchChunk {
		end := min(off+core.BatchChunk, len(keys))
		chunk := keys[off:end]
		hs := t.sk.HashBatch(chunk)
		for ci, key := range chunk {
			t.insertHashedSummary(ss, key, hs[ci])
		}
	}
}

// MergeFrom folds other into t: the sketches merge bucket by bucket
// (core.Sketch.Merge, requiring both trackers were built with the same
// sketch configuration and seed) and the top-k structure is rebuilt from the
// union of both trackers' candidates, each re-estimated against the merged
// sketch. This is the collector pattern of the paper's footnote 2 applied at
// the tracker level: each measurement point (or shard, or epoch) runs its
// own tracker and the results fold into one. other is left unmodified.
func (t *Tracker) MergeFrom(other *Tracker) error {
	if other == nil || other == t {
		return fmt.Errorf("topk: cannot merge a tracker with %v", other)
	}
	if err := t.sk.Merge(other.sk); err != nil {
		return err
	}
	type cand struct {
		key string
		est uint64
	}
	seen := make(map[string]bool, 2*t.opts.K)
	cands := make([]cand, 0, 2*t.opts.K)
	for _, entries := range [][]Entry{t.store.Top(t.opts.K), other.store.Top(other.K())} {
		for _, e := range entries {
			if seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			if est := uint64(t.sk.Query([]byte(e.Key))); est > 0 {
				cands = append(cands, cand{e.Key, est})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].est != cands[j].est {
			return cands[i].est > cands[j].est
		}
		return cands[i].key < cands[j].key
	})
	if len(cands) > t.opts.K {
		cands = cands[:t.opts.K]
	}
	store, err := newStore(t.opts.Store, t.opts.K, t.sk.KeySeed())
	if err != nil {
		return err
	}
	// Ascending insertion keeps Stream-Summary's recency tie-breaking from
	// reordering equal counts relative to the sort above.
	for i := len(cands) - 1; i >= 0; i-- {
		store.InsertEvict(cands[i].key, cands[i].est)
	}
	t.store = store
	return nil
}

// Query returns the sketch's current size estimate for key (not consulting
// the top-k structure).
func (t *Tracker) Query(key []byte) uint64 { return uint64(t.sk.Query(key)) }

// QueryHashed is Query with a precomputed KeyHash.
func (t *Tracker) QueryHashed(key []byte, h uint64) uint64 {
	return uint64(t.sk.QueryHashed(key, h))
}

// KeyHash returns the underlying sketch's single per-key hash; routers
// compute it once and feed the *Hashed entry points.
func (t *Tracker) KeyHash(key []byte) uint64 { return t.sk.KeyHash(key) }

// Top returns the current top-k flows in descending estimated size.
func (t *Tracker) Top() []Entry { return t.store.Top(t.opts.K) }

// All returns an iterator over the current top-k flows in descending
// estimated size. For the default Stream-Summary store it streams straight
// off the bucket list without materializing a slice; other stores fall back
// to iterating a Top snapshot. The tracker must not be mutated while a
// streaming iteration is consumed.
func (t *Tracker) All() iter.Seq[Entry] {
	if ss, ok := t.store.(summaryStore); ok {
		return func(yield func(Entry) bool) {
			for e := range ss.s.All() {
				if !yield(Entry{Key: e.Key, Count: e.Count}) {
					return
				}
			}
		}
	}
	return func(yield func(Entry) bool) {
		for _, e := range t.store.Top(t.opts.K) {
			if !yield(e) {
				return
			}
		}
	}
}

// K returns the configured k.
func (t *Tracker) K() int { return t.opts.K }

// Sketch exposes the underlying HeavyKeeper (read-only use intended).
// Restoring a snapshot into it (ReadFrom) would replace the key-hash seed
// the tracker's store index was built on; build a fresh Tracker instead.
func (t *Tracker) Sketch() *core.Sketch { return t.sk }

// StoreIndexStats reports the open-addressed store index's occupancy and
// probe-length histogram. ok is false when no stats are surfaced for the
// configured store: StoreSummaryRef is a Go map with no such index, and
// StoreHeap's index (the heap has one too) is not currently reported.
func (t *Tracker) StoreIndexStats() (st streamsummary.IndexStats, ok bool) {
	if ss, isSummary := t.store.(summaryStore); isSummary {
		return ss.s.IndexStats(), true
	}
	return streamsummary.IndexStats{}, false
}

// MemoryBytes reports the tracker's logical memory: the sketch plus k
// top-k entries, using the same accounting as the paper's §VI-A setup.
func (t *Tracker) MemoryBytes() int {
	per := streamsummary.BytesPerEntry
	if t.opts.Store == StoreHeap {
		per = minheap.BytesPerEntry
	}
	return t.sk.MemoryBytes() + t.opts.K*per
}
