// Package streamsummary implements the Stream-Summary data structure of
// Metwally, Agrawal and El Abbadi ("Efficient Computation of Frequent and
// Top-k Elements in Data Streams", ICDT 2005).
//
// Stream-Summary keeps m (key, count, error) entries organized as a doubly
// linked list of count buckets, each bucket holding the entries that share
// one count value. Incrementing an entry by one and finding/evicting the
// minimum are O(1), which is why both Space-Saving and the HeavyKeeper
// paper's own top-k stage (§III-C: "in our implementation, we use
// Stream-Summary instead of min-heap") are built on it.
//
// # Open-addressed key index
//
// Membership is resolved through a flat open-addressed table keyed by a
// 64-bit key hash, not a Go map: a map[string]*node probe re-hashes the key
// bytes inside the map runtime on every lookup, and the per-packet
// probe-then-update pattern of HeavyKeeper made that re-hash the dominant
// cost of the batch ingest path. Here the caller that already holds the
// key's hash (internal/topk reuses core.Sketch.KeyHash) passes it to the
// *Hashed entry points and no key bytes are traversed at all; the stored
// 64-bit hash doubles as the in-slot fingerprint, so a probe is a word
// compare per slot and the one byte-compare against the node's key happens
// only on a full 64-bit match (in practice: exactly once, on the hit).
//
// The table uses linear probing at a load factor <= 1/2 (it is sized once,
// from the fixed capacity) and tombstone-free deletion by backward shift,
// so probe chains never accumulate garbage no matter how many
// evict/insert cycles the summary goes through.
//
// Callers that cannot supply a hash (string-keyed queries, Space-Saving's
// Incr loop) fall back to hashing internally under the summary's seed;
// NewSeeded lets an embedding sketch share its own key-hash seed so both
// sides agree on every key's hash. The map-indexed original is retained in
// test code as RefSummary (ref_test.go), the differential reference.
// internal/minheap carries a deliberate twin of this probing machinery
// (different slot payload, same sizing/probe/backward-shift logic); a fix
// to either copy must be mirrored in the other.
//
// The structure is not safe for concurrent use; the sketches that embed it
// are single-writer, matching the paper's model.
package streamsummary

import (
	"iter"

	"repro/internal/hash"
)

// node is one monitored flow.
type node struct {
	key string
	// hash is the summary's 64-bit hash of key, computed exactly once (or
	// taken from the caller) on admission; eviction and index maintenance
	// reuse it so key bytes are never re-traversed.
	hash       uint64
	err        uint64 // over-estimation error (Space-Saving's ε_i)
	b          *bucket
	prev, next *node // neighbors within the bucket (nil-terminated via bucket.first)
}

// bucket groups all nodes with the same count. Buckets form a doubly linked
// list in strictly increasing count order; head is the minimum.
type bucket struct {
	count      uint64
	first      *node // any node; nodes form a nil-terminated doubly linked list
	prev, next *bucket
}

// slot is one entry of the open-addressed index: the node's full 64-bit hash
// (fingerprint and home-position source in one word) plus the node pointer.
// n == nil marks the slot empty.
type slot struct {
	h uint64
	n *node
}

// Summary is a Stream-Summary with fixed capacity.
type Summary struct {
	capacity int
	count    int
	seed     uint64 // hash seed for keys arriving without a precomputed hash
	table    []slot // open-addressed index, power-of-two sized
	mask     uint64 // len(table) - 1
	head     *bucket
	free     *bucket // free-list of retired buckets, chained via next
	// cursor remembers the node found by the last ContainsHashed (or
	// ContainsKey) so an immediately following UpdateMaxHashed on the same
	// key skips the index probe — the probe-then-update shape of every
	// HeavyKeeper packet. The cursor is trusted only after its stored hash
	// and key match the update's, and every operation that unmonitors a key
	// (EvictMin, Remove) clears it when it points at the victim, so a stale
	// cursor can never receive an update; cursor_test.go pins this.
	cursor *node
	// touch sinks the index loads issued by Prefetch so they cannot be
	// optimized away.
	touch uint64
}

// New returns an empty Stream-Summary that monitors at most capacity keys,
// hashing keys under a fixed default seed. It panics if capacity < 1.
func New(capacity int) *Summary { return NewSeeded(capacity, 0) }

// NewSeeded is New with an explicit key-hash seed. An embedding sketch that
// feeds the *Hashed entry points must construct the summary with the same
// seed its own key hash uses (internal/topk passes core.Sketch.KeySeed), so
// precomputed hashes and internally computed ones agree on every key.
func NewSeeded(capacity int, seed uint64) *Summary {
	if capacity < 1 {
		panic("streamsummary: capacity must be >= 1")
	}
	size := tableSize(capacity)
	return &Summary{
		capacity: capacity,
		seed:     seed,
		table:    make([]slot, size),
		mask:     uint64(size - 1),
	}
}

// tableSize returns the index size for capacity entries: the smallest power
// of two holding them at load factor <= 1/2 (never below 8), keeping linear
// probe chains short for the summary's whole fixed-capacity life.
func tableSize(capacity int) int {
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	return size
}

// Hash returns the summary's 64-bit hash of key: the value the *Hashed entry
// points expect for that key. It is the same function as the embedding
// sketch's KeyHash when the summary was built with NewSeeded on the sketch's
// key seed.
func (s *Summary) Hash(key []byte) uint64 { return hash.Sum64(s.seed, key) }

// hashString is Hash for a string key; the []byte view does not escape into
// the hash, so the conversion stays on the stack.
func (s *Summary) hashString(key string) uint64 { return hash.Sum64(s.seed, []byte(key)) }

// Len returns the number of monitored keys.
func (s *Summary) Len() int { return s.count }

// Capacity returns the maximum number of monitored keys.
func (s *Summary) Capacity() int { return s.capacity }

// Full reports whether the summary is at capacity.
func (s *Summary) Full() bool { return s.count >= s.capacity }

// findHashed returns the node for key (whose hash is h), or nil. Probing
// stops at the first empty slot: backward-shift deletion guarantees no gaps
// ever split a probe chain.
func (s *Summary) findHashed(h uint64, key []byte) *node {
	i := h & s.mask
	for {
		sl := s.table[i]
		if sl.n == nil {
			return nil
		}
		if sl.h == h && sl.n.key == string(key) {
			return sl.n
		}
		i = (i + 1) & s.mask
	}
}

// findString is findHashed for a string key.
func (s *Summary) findString(h uint64, key string) *node {
	i := h & s.mask
	for {
		sl := s.table[i]
		if sl.n == nil {
			return nil
		}
		if sl.h == h && sl.n.key == key {
			return sl.n
		}
		i = (i + 1) & s.mask
	}
}

// indexInsert places n (whose hash is already set) into the first free slot
// of its probe chain.
func (s *Summary) indexInsert(n *node) {
	i := n.hash & s.mask
	for s.table[i].n != nil {
		i = (i + 1) & s.mask
	}
	s.table[i] = slot{h: n.hash, n: n}
}

// indexDelete removes n from the table and backward-shifts the tail of its
// probe chain so no tombstone is left behind: each following entry moves one
// step back iff its own home position precedes the hole (cyclically), which
// preserves the no-gap reachability invariant for every remaining entry.
func (s *Summary) indexDelete(n *node) {
	i := n.hash & s.mask
	for s.table[i].n != n {
		i = (i + 1) & s.mask
	}
	for {
		s.table[i] = slot{}
		j := i
		for {
			j = (j + 1) & s.mask
			sl := s.table[j]
			if sl.n == nil {
				return
			}
			home := sl.h & s.mask
			if (j-home)&s.mask >= (j-i)&s.mask {
				s.table[i] = sl
				i = j
				break
			}
		}
	}
}

// Prefetch touches the home index slot of every hash in hs, pulling the
// cache lines the upcoming probes will hit. The Space-Saving and CSS batch
// paths call it as pass 1 of a grouped two-pass probe: the loads are
// independent, so the hardware overlaps them, where the probe-update-probe
// sequence of the apply pass is a chain of dependent accesses. It reads
// only; results are sunk into a field so the loop is not dead code.
func (s *Summary) Prefetch(hs []uint64) {
	var x uint64
	mask := s.mask
	for _, h := range hs {
		x ^= s.table[h&mask].h
	}
	s.touch = x
}

// Contains reports whether key is monitored.
func (s *Summary) Contains(key string) bool {
	return s.findString(s.hashString(key), key) != nil
}

// ContainsKey is Contains for a byte-slice key, hashing it here. A hit is
// remembered for UpdateMaxKey. Hot paths that already hold the key's hash
// use ContainsHashed instead.
func (s *Summary) ContainsKey(key []byte) bool {
	return s.ContainsHashed(key, s.Hash(key))
}

// ContainsHashed reports whether key (whose precomputed hash is h) is
// monitored, without touching the key bytes except for the single
// equality check on a full hash match. A hit is remembered for
// UpdateMaxHashed — the probe-then-update shape of every HeavyKeeper packet.
func (s *Summary) ContainsHashed(key []byte, h uint64) bool {
	n := s.findHashed(h, key)
	s.cursor = n
	return n != nil
}

// Probe is an opaque handle to a monitored entry returned by ProbeHashed.
// It stays valid only until the next operation that can unmonitor a key
// (EvictMin, Remove); UpdateMaxProbe rejects a handle whose entry has been
// detached, but a caller that evicts between probe and update must re-probe.
type Probe struct{ n *node }

// ProbeHashed is ContainsHashed returning the entry handle alongside the
// verdict, so the caller's follow-up update needs no second index probe and
// no re-verification — the fused batch loop's probe-then-update pair costs
// exactly one key comparison total. It does not touch the cursor: the handle
// replaces it, and a previously remembered cursor stays subject to the same
// invalidation rules.
func (s *Summary) ProbeHashed(key []byte, h uint64) (Probe, bool) {
	n := s.findHashed(h, key)
	return Probe{n: n}, n != nil
}

// UpdateMaxProbe raises the probed entry's count to max(current, count).
// Empty and detached (evicted since the probe) handles are ignored.
func (s *Summary) UpdateMaxProbe(p Probe, count uint64) {
	n := p.n
	if n == nil || n.b == nil {
		return
	}
	if n.b.count >= count {
		return
	}
	s.moveTo(n, count)
}

// UpdateMaxKey raises key's count to max(current, count); keys that are not
// monitored are ignored.
func (s *Summary) UpdateMaxKey(key []byte, count uint64) {
	s.UpdateMaxHashed(key, s.Hash(key), count)
}

// UpdateMaxHashed raises key's count to max(current, count) without
// allocating; unmonitored keys are ignored. When the preceding
// ContainsHashed probed the same key (the per-packet pattern), the index
// probe is skipped entirely; the cursor is trusted only after its stored
// hash and key match, so interleaved probes and evictions of other keys
// stay correct.
func (s *Summary) UpdateMaxHashed(key []byte, h uint64, count uint64) {
	n := s.cursor
	if n == nil || n.hash != h || n.key != string(key) {
		if n = s.findHashed(h, key); n == nil {
			return
		}
	}
	if n.b.count >= count {
		return
	}
	s.moveTo(n, count)
}

// InsertKey is Insert for a byte-slice key; the string is materialized here,
// on admission, rather than once per packet.
func (s *Summary) InsertKey(key []byte, count, errVal uint64) {
	s.InsertHashed(key, s.Hash(key), count, errVal)
}

// InsertHashed admits key (whose precomputed hash is h) with the given count
// and error. Like Insert it panics on a duplicate key or a full summary;
// callers evict first.
func (s *Summary) InsertHashed(key []byte, h uint64, count, errVal uint64) {
	if s.findHashed(h, key) != nil {
		panic("streamsummary: Insert of monitored key " + string(key))
	}
	s.insertNew(&node{key: string(key), hash: h, err: errVal}, count)
}

// Count returns the recorded count of key.
func (s *Summary) Count(key string) (uint64, bool) {
	n := s.findString(s.hashString(key), key)
	if n == nil {
		return 0, false
	}
	return n.b.count, true
}

// CountHashed is Count from the key's precomputed hash, with no string
// conversion and no re-hash.
func (s *Summary) CountHashed(key []byte, h uint64) (uint64, bool) {
	n := s.findHashed(h, key)
	if n == nil {
		return 0, false
	}
	return n.b.count, true
}

// Error returns the over-estimation error recorded for key (the minimum
// count at the time key was admitted, for Space-Saving semantics). It is 0
// for keys inserted with no error and for unknown keys.
func (s *Summary) Error(key string) uint64 {
	if n := s.findString(s.hashString(key), key); n != nil {
		return n.err
	}
	return 0
}

// Min returns the key and count of one minimum-count entry. ok is false when
// the summary is empty.
func (s *Summary) Min() (key string, count uint64, ok bool) {
	if s.head == nil {
		return "", 0, false
	}
	return s.head.first.key, s.head.count, true
}

// MinCount returns the smallest monitored count, or 0 when empty. This is
// the paper's n_min.
func (s *Summary) MinCount() uint64 {
	if s.head == nil {
		return 0
	}
	return s.head.count
}

// Incr increments key's count by one in O(1). The key must already be
// monitored; Incr panics otherwise (callers decide admission policy).
// It returns the new count.
func (s *Summary) Incr(key string) uint64 {
	n := s.findString(s.hashString(key), key)
	if n == nil {
		panic("streamsummary: Incr on unmonitored key " + key)
	}
	s.moveTo(n, n.b.count+1)
	return n.b.count
}

// IncrHashed adds delta to key's count from the key's precomputed hash, with
// no string conversion and no re-hash. Unlike Incr it tolerates unmonitored
// keys: ok reports whether the key was found (and incremented), which is the
// contains-then-increment shape of Space-Saving's hot path collapsed into a
// single index probe.
func (s *Summary) IncrHashed(key []byte, h uint64, delta uint64) (count uint64, ok bool) {
	n := s.findHashed(h, key)
	if n == nil {
		return 0, false
	}
	s.moveTo(n, n.b.count+delta)
	return n.b.count, true
}

// Insert adds a new key with the given count and error. It panics if the key
// is already monitored or the summary is full; callers evict first.
func (s *Summary) Insert(key string, count, errVal uint64) {
	h := s.hashString(key)
	if s.findString(h, key) != nil {
		panic("streamsummary: Insert of monitored key " + key)
	}
	s.insertNew(&node{key: key, hash: h, err: errVal}, count)
}

// insertNew indexes a freshly built node and places it in its count bucket.
func (s *Summary) insertNew(n *node, count uint64) {
	if s.Full() {
		panic("streamsummary: Insert into full summary")
	}
	s.indexInsert(n)
	s.count++
	s.placeFrom(n, s.head, count)
}

// EvictMin removes and returns one minimum-count entry. ok is false when the
// summary is empty.
func (s *Summary) EvictMin() (key string, count uint64, ok bool) {
	if s.head == nil {
		return "", 0, false
	}
	n := s.head.first
	key, count = n.key, n.b.count
	s.unmonitor(n)
	return key, count, true
}

// Remove deletes key if monitored and reports whether it was present.
func (s *Summary) Remove(key string) bool {
	n := s.findString(s.hashString(key), key)
	if n == nil {
		return false
	}
	s.unmonitor(n)
	return true
}

// unmonitor removes n from the index, the bucket lists and — when it is the
// remembered probe — the cursor. Every path that unmonitors a key funnels
// through here, so cursor invalidation cannot be forgotten case by case.
func (s *Summary) unmonitor(n *node) {
	s.indexDelete(n)
	s.count--
	s.detach(n)
	if s.cursor == n {
		s.cursor = nil
	}
}

// Set changes key's count to count, relocating its bucket. Unlike Incr this
// may walk several buckets (O(#distinct counts) worst case); HeavyKeeper's
// top-k stage uses it for the occasional "update with max" (§III-C), which
// moves entries by small deltas in practice.
func (s *Summary) Set(key string, count uint64) {
	n := s.findString(s.hashString(key), key)
	if n == nil {
		panic("streamsummary: Set on unmonitored key " + key)
	}
	if n.b.count == count {
		return
	}
	s.moveTo(n, count)
}

// Entry is a monitored (key, count, error) triple.
type Entry struct {
	Key   string
	Count uint64
	Err   uint64
}

// All returns an iterator over the monitored entries in descending count
// order (ties in bucket-list order, unspecified but deterministic), walking
// the bucket list directly instead of materializing a slice the way Items
// does. The summary must not be mutated while the iterator is consumed.
func (s *Summary) All() iter.Seq[Entry] {
	return func(yield func(Entry) bool) {
		// Find the tail (largest) bucket, then walk backwards.
		var tail *bucket
		for b := s.head; b != nil; b = b.next {
			tail = b
		}
		for b := tail; b != nil; b = b.prev {
			for n := b.first; n != nil; n = n.next {
				if !yield(Entry{Key: n.key, Count: b.count, Err: n.err}) {
					return
				}
			}
		}
	}
}

// Items returns all monitored entries in descending count order. Ties are
// returned in bucket-list order (unspecified but deterministic).
func (s *Summary) Items() []Entry {
	out := make([]Entry, 0, s.count)
	for e := range s.All() {
		out = append(out, e)
	}
	return out
}

// Top returns the k largest entries in descending count order (fewer if the
// summary holds fewer).
func (s *Summary) Top(k int) []Entry {
	items := s.Items()
	if len(items) > k {
		items = items[:k]
	}
	return items
}

// IndexStats describes the open-addressed index at a point in time; hkbench
// reports it so table pressure and probe lengths stay observable.
type IndexStats struct {
	// Capacity is the summary's entry capacity; TableSize the index size.
	Capacity  int `json:"capacity"`
	TableSize int `json:"table_size"`
	// Occupied is the number of live slots (== Len()).
	Occupied int `json:"occupied"`
	// MaxProbe is the largest current displacement of any entry from its
	// home slot, i.e. the worst-case probe length minus one.
	MaxProbe int `json:"max_probe"`
	// ProbeHist[d] is the number of entries displaced exactly d slots from
	// home; displacements beyond the last bin are clamped into it.
	ProbeHist []int `json:"probe_hist"`
}

// IndexStats computes the current index occupancy and probe-length
// histogram. It is a diagnostic walk over the table, not a hot-path method.
func (s *Summary) IndexStats() IndexStats {
	st := IndexStats{
		Capacity:  s.capacity,
		TableSize: len(s.table),
		Occupied:  s.count,
		ProbeHist: make([]int, 8),
	}
	for j, sl := range s.table {
		if sl.n == nil {
			continue
		}
		d := int((uint64(j) - sl.h&s.mask) & s.mask)
		if d > st.MaxProbe {
			st.MaxProbe = d
		}
		bin := d
		if bin >= len(st.ProbeHist) {
			bin = len(st.ProbeHist) - 1
		}
		st.ProbeHist[bin]++
	}
	return st
}

// moveTo re-places n at newCount. When n is alone in its bucket and the new
// count still fits strictly between the neighbor buckets, the bucket's count
// is bumped in place — no unlinking, no bucket retire/create. That is the
// elephant fast path: a resident heavy flow's +1 increment almost always has
// a private bucket (heavy counts are distinct) and lands here, replacing a
// dozen pointer writes per packet with one store. The resulting structure is
// indistinguishable from detach-and-replace: same entries, same bucket
// order, same tie layout. Otherwise n detaches and re-places, starting the
// bucket search from its old position (O(1) for ±1 moves).
func (s *Summary) moveTo(n *node, newCount uint64) {
	old := n.b
	if n.prev == nil && n.next == nil &&
		(old.prev == nil || old.prev.count < newCount) &&
		(old.next == nil || old.next.count > newCount) {
		old.count = newCount
		return
	}
	start := old
	// Unlink n from old bucket's node list but keep old in the bucket list
	// until we have found the new home, so the search can start from it.
	s.unlinkNode(n)
	s.placeFrom(n, start, newCount)
	if old.first == nil {
		s.removeBucket(old)
	}
}

// detach fully removes n from the bucket lists and cleans up an emptied
// bucket.
func (s *Summary) detach(n *node) {
	b := n.b
	s.unlinkNode(n)
	if b.first == nil {
		s.removeBucket(b)
	}
	n.b = nil
}

// unlinkNode removes n from its bucket's node list (bucket stays).
func (s *Summary) unlinkNode(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		n.b.first = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
}

// placeFrom inserts n into the bucket with count, creating the bucket if
// needed. start is a position hint; nil means search from head.
func (s *Summary) placeFrom(n *node, start *bucket, count uint64) {
	if start == nil {
		start = s.head
	}
	var at *bucket
	switch {
	case start == nil:
		at = s.newBucket(count, nil, nil)
	case start.count == count && start.first != nil:
		at = start
	case start.count < count:
		b := start
		for b.next != nil && b.next.count <= count {
			b = b.next
		}
		if b.count == count && b.first != nil {
			at = b
		} else if b.count < count {
			at = s.newBucket(count, b, b.next)
		} else {
			// b.count > count can only happen if start bucket emptied and
			// we walked past; insert before b.
			at = s.newBucket(count, b.prev, b)
		}
	default: // start.count > count, walk backwards
		b := start
		for b.prev != nil && b.prev.count >= count {
			b = b.prev
		}
		if b.prev != nil && b.prev.count == count {
			at = b.prev
		} else if b.count == count && b.first != nil {
			at = b
		} else {
			at = s.newBucket(count, b.prev, b)
		}
	}
	// Prepend n to at's node list.
	n.b = at
	n.prev = nil
	n.next = at.first
	if at.first != nil {
		at.first.prev = n
	}
	at.first = n
}

// newBucket links a bucket with count between prev and next and returns it,
// recycling a retired bucket when one is available: count increments retire
// and create buckets constantly (every elephant packet moves its node up one
// count), so pooling removes a steady per-packet allocation.
func (s *Summary) newBucket(count uint64, prev, next *bucket) *bucket {
	b := s.free
	if b != nil {
		s.free = b.next
		b.count, b.first, b.prev, b.next = count, nil, prev, next
	} else {
		b = &bucket{count: count, prev: prev, next: next}
	}
	if prev != nil {
		prev.next = b
	} else {
		s.head = b
	}
	if next != nil {
		next.prev = b
	}
	return b
}

// removeBucket unlinks an empty bucket from the bucket list and retires it
// to the free-list.
func (s *Summary) removeBucket(b *bucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, s.free
	s.free = b
}

// checkInvariants walks the structure and panics on corruption. Exported to
// the test package through export_test.go; production code never calls it.
func (s *Summary) checkInvariants() {
	seen := 0
	var prevCount uint64
	first := true
	for b := s.head; b != nil; b = b.next {
		if !first && b.count <= prevCount {
			panic("streamsummary: bucket counts not strictly increasing")
		}
		first = false
		prevCount = b.count
		if b.first == nil {
			panic("streamsummary: empty bucket retained")
		}
		for n := b.first; n != nil; n = n.next {
			if n.b != b {
				panic("streamsummary: node back-pointer mismatch")
			}
			if n.next != nil && n.next.prev != n {
				panic("streamsummary: node list corrupted")
			}
			if n.hash != s.hashString(n.key) {
				panic("streamsummary: stored hash mismatch for " + n.key)
			}
			if s.findString(n.hash, n.key) != n {
				panic("streamsummary: index/list mismatch for " + n.key)
			}
			seen++
		}
		if b.next != nil && b.next.prev != b {
			panic("streamsummary: bucket list corrupted")
		}
	}
	if seen != s.count {
		panic("streamsummary: node count mismatch")
	}
	// Index-side checks: every occupied slot holds a monitored node with a
	// consistent hash, occupancy matches, and no probe chain is split by an
	// empty slot (the backward-shift invariant findHashed relies on).
	occupied := 0
	for j, sl := range s.table {
		if sl.n == nil {
			continue
		}
		occupied++
		if sl.h != sl.n.hash {
			panic("streamsummary: slot hash disagrees with node hash for " + sl.n.key)
		}
		if sl.n.b == nil {
			panic("streamsummary: index references detached node " + sl.n.key)
		}
		for i := sl.h & s.mask; i != uint64(j); i = (i + 1) & s.mask {
			if s.table[i].n == nil {
				panic("streamsummary: probe chain split by empty slot for " + sl.n.key)
			}
		}
	}
	if occupied != s.count {
		panic("streamsummary: index occupancy mismatch")
	}
	if s.cursor != nil && s.cursor.b == nil {
		panic("streamsummary: cursor points at detached node")
	}
}

// BytesPerEntry estimates the memory cost of one monitored entry, used by
// the experiment harness to convert a byte budget into a capacity the same
// way the paper sizes Space-Saving's m from the memory size (§VI-A). The
// constant models a C-style implementation (key pointer, hash, count, error,
// links plus two index-slot words ≈ 6 words; the paper's accounting is
// comparable).
const BytesPerEntry = 48
