// Package topk wires a HeavyKeeper sketch to a top-k structure, implementing
// the full flow-insertion pipelines of the paper: the basic version
// (§III-C), the Hardware Parallel version (§III-E, Algorithm 1) and the
// Software Minimum version (§IV, Algorithm 2), including Optimization I
// (fingerprint-collision detection) and Optimization II (selective
// increment).
//
// The top-k structure is Stream-Summary. The paper presents a min-heap for
// exposition and uses Stream-Summary in its implementation for O(1) updates
// (§III-C note); the heap's three operations — membership, update with max,
// expel the minimum and insert — map onto it one for one.
package topk

import (
	"fmt"
	"sort"

	"repro/internal/core"
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

// StoreKind names the top-k structure a tracker snapshot records in its
// store byte.
type StoreKind int

// StoreSummary is Stream-Summary (O(1) unit updates), as the paper's
// implementation uses (§III-C note), indexed by the open-addressed KeyHash
// table. It is the only store, and the only value a snapshot's store byte
// may hold.
const StoreSummary StoreKind = 1

// Entry is one reported top-k flow.
type Entry struct {
	Key   string
	Count uint64
}

// Options configures a Tracker.
type Options struct {
	// K is the number of flows to report. Required.
	K int
	// Version selects the insertion discipline. Default Parallel (the
	// paper's default in §VI-C).
	Version Version
	// Store is ignored: every tracker keeps its top-k in Stream-Summary.
	// The field remains only because the end-to-end benchmark's ledger
	// still sets it to StoreSummary.
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
	sk *core.Sketch
	// store holds the top-k candidates. Its index hashes under the
	// sketch's key seed, so the KeyHash computed once per packet indexes
	// the store directly.
	store *streamsummary.Summary
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
	return &Tracker{sk: sk, store: streamsummary.NewSeeded(opts.K, sk.KeySeed()), opts: opts}, nil
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

// insertHashed dispatches one packet with a precomputed key hash.
func (t *Tracker) insertHashed(key []byte, h uint64) {
	switch t.opts.Version {
	case Basic:
		// §III-C: insert into HeavyKeeper, then update the top-k structure
		// with the reported estimate.
		probe, flag := t.store.ProbeHashed(key, h)
		t.admit(key, h, probe, flag, uint64(t.sk.InsertBasicHashed(key, h)))
	case Parallel, Minimum:
		t.insertHashedSummary(key, h)
	default:
		panic("topk: invalid version " + t.opts.Version.String())
	}
}

// insertHashedSummary implements Algorithm 1/2's three steps for the
// Parallel and Minimum disciplines: Step 1 takes the flow's membership
// flag, Step 2 inserts into the sketch with Optimization II gating, Step 3
// admits to the top-k structure under Optimization I's n̂ = n_min + 1 rule.
// The store is probed at most once per packet — the handle from
// ProbeHashed takes the eventual update, valid because nothing between
// probe and update can unmonitor the entry.
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
// probe every packet. Results are bit-identical to probing every packet;
// FuzzProbeGate pins that against an always-probe oracle.
func (t *Tracker) insertHashedSummary(key []byte, h uint64) {
	ss := t.store
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

// admit is the admission rule of the basic discipline and of weighted
// arrivals: a monitored flow (flag, with probe its handle from ProbeHashed)
// has its size raised to max(size, est); an unmonitored one is admitted
// when the store has room or est exceeds n_min. A string is materialized
// only on actual admission.
func (t *Tracker) admit(key []byte, h uint64, probe streamsummary.Probe, flag bool, est uint64) {
	ss := t.store
	switch {
	case flag:
		ss.UpdateMaxProbe(probe, est)
	case est == 0:
	case !ss.Full():
		ss.InsertHashed(key, h, est, 0)
	case est > ss.MinCount():
		ss.EvictMin()
		ss.InsertHashed(key, h, est, 0)
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
	probe, flag := t.store.ProbeHashed(key, h)
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
	t.admit(key, h, probe, flag, est)
}

// InsertBatch records one packet per key, equivalently to calling Insert on
// each key in order but cheaper: each chunk of core.BatchChunk keys is
// hashed in one tight loop — one 64-bit hash per key, from which
// fingerprint and bucket indexes derive in registers — before any bucket is
// touched. Only hashing runs ahead, and it depends on no mutable state, so
// results are bit-for-bit identical to the sequential path.
//
// There is no prefetch pass ahead of the apply loop: most low-skew packets
// skip the store probe, and touching every key's home store slot first
// measured 4–6 % slower end to end on both workloads tried, as did touching
// the sketch cells in process (doc/performance.md).
func (t *Tracker) InsertBatch(keys [][]byte) {
	for off := 0; off < len(keys); off += core.BatchChunk {
		chunk := keys[off:min(off+core.BatchChunk, len(keys))]
		t.InsertBatchHashed(chunk, t.sk.HashBatch(chunk))
	}
}

// InsertBatchHashed is InsertBatch for a caller that already computed
// KeyHash for every key; hashes[i] must correspond to keys[i]. The sharded
// router uses it so grouping a batch by shard and ingesting it costs one
// hash per key in total.
func (t *Tracker) InsertBatchHashed(keys [][]byte, hashes []uint64) {
	switch t.opts.Version {
	case Parallel, Minimum:
		// The hot loop calls the per-packet body directly, without
		// insertHashed's per-key dispatch.
		for i, key := range keys {
			t.insertHashedSummary(key, hashes[i])
		}
	default:
		for i, key := range keys {
			t.insertHashed(key, hashes[i])
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
	for _, entries := range [][]Entry{t.Top(), other.Top()} {
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
	store := streamsummary.NewSeeded(t.opts.K, t.sk.KeySeed())
	// Ascending insertion keeps Stream-Summary's recency tie-breaking from
	// reordering equal counts relative to the sort above.
	for i := len(cands) - 1; i >= 0; i-- {
		store.Insert(cands[i].key, cands[i].est, 0)
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
func (t *Tracker) Top() []Entry {
	items := t.store.Top(t.opts.K)
	out := make([]Entry, len(items))
	for i, e := range items {
		out[i] = Entry{Key: e.Key, Count: e.Count}
	}
	return out
}

// K returns the configured k.
func (t *Tracker) K() int { return t.opts.K }

// Sketch exposes the underlying HeavyKeeper (read-only use intended).
// Restoring a snapshot into it (ReadFrom) would replace the key-hash seed
// the tracker's store index was built on; build a fresh Tracker instead.
func (t *Tracker) Sketch() *core.Sketch { return t.sk }

// StoreIndexStats reports the open-addressed store index's occupancy and
// probe-length histogram.
func (t *Tracker) StoreIndexStats() streamsummary.IndexStats { return t.store.IndexStats() }

// MemoryBytes reports the tracker's logical memory: the sketch plus k
// top-k entries, using the same accounting as the paper's §VI-A setup.
func (t *Tracker) MemoryBytes() int {
	return t.sk.MemoryBytes() + t.opts.K*streamsummary.BytesPerEntry
}
