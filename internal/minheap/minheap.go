// Package minheap implements a keyed binary min-heap of (flow, size) pairs.
//
// It keeps the k largest flows seen so far, supports membership queries,
// "update size with max", and "expel root, insert new flow" — the top-k
// structure the HeavyKeeper paper uses for exposition (§III-C). All
// operations are O(log k) except membership, which is O(1) via the key
// index. HeavyKeeper itself keeps its top-k in Stream-Summary (as the
// paper's implementation does); this heap backs the Count-Min baseline's
// top-k (internal/cmsketch, §II-B).
//
// Like internal/streamsummary, membership is resolved through a flat
// open-addressed table keyed by a 64-bit key hash rather than a Go map.
// Each slot stores the entry's full hash plus its heap position; sift swaps
// re-point the two affected slots by (hash, old position), which identifies
// them exactly even under full 64-bit hash collisions. Deletion backward-shifts
// the probe chain, so the table stays tombstone-free across any number of
// expel/insert cycles.
//
// The probing machinery (power-of-two sizing, linear probe, backward-shift
// delete, chain-integrity checks) is a deliberate twin of the one in
// internal/streamsummary — the slot payloads differ (heap position here,
// node pointer there) and both sit on per-packet paths, so they are kept
// concrete rather than shared through an abstraction. A fix to either
// copy's probe or shift logic must be mirrored in the other; each package's
// invariant checker and randomized tests police its own copy.
package minheap

import "repro/internal/hash"

// Heap is a keyed min-heap with fixed capacity.
type Heap struct {
	capacity int
	items    []entry
	table    []slot // open-addressed key index, power-of-two sized
	mask     uint64 // len(table) - 1
}

type entry struct {
	key string
	// hash is the heap's 64-bit hash of key, computed once on admission and
	// reused by every index fix-up.
	hash  uint64
	count uint64
}

// slot maps one entry's hash to its heap position. pos is the items index
// plus one; 0 marks the slot empty, so the zero value is an empty table.
type slot struct {
	h   uint64
	pos int32
}

// New returns an empty heap holding at most capacity entries. It panics if
// capacity < 1.
func New(capacity int) *Heap {
	if capacity < 1 {
		panic("minheap: capacity must be >= 1")
	}
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	return &Heap{
		capacity: capacity,
		items:    make([]entry, 0, capacity),
		table:    make([]slot, size),
		mask:     uint64(size - 1),
	}
}

// hashString returns the heap's 64-bit hash of key; the []byte view does
// not escape into the hash, so the conversion stays on the stack.
func (h *Heap) hashString(key string) uint64 { return hash.Sum64(0, []byte(key)) }

// Full reports whether the heap is at capacity.
func (h *Heap) Full() bool { return len(h.items) >= h.capacity }

// find returns the heap position of key (whose hash is hk), or -1. Probing
// stops at the first empty slot; backward-shift deletion keeps chains
// gapless.
func (h *Heap) find(hk uint64, key string) int {
	i := hk & h.mask
	for {
		sl := h.table[i]
		if sl.pos == 0 {
			return -1
		}
		if sl.h == hk {
			if p := int(sl.pos - 1); h.items[p].key == key {
				return p
			}
		}
		i = (i + 1) & h.mask
	}
}

// slotOf returns the table index of the slot holding (hk, pos). The pair is
// unique — two live entries can share a 64-bit hash, but not a heap
// position — so no key bytes are consulted.
func (h *Heap) slotOf(hk uint64, pos int) uint64 {
	i := hk & h.mask
	want := int32(pos + 1)
	for {
		if sl := h.table[i]; sl.h == hk && sl.pos == want {
			return i
		}
		i = (i + 1) & h.mask
	}
}

// indexInsert records that the entry with hash hk sits at heap position pos.
func (h *Heap) indexInsert(hk uint64, pos int) {
	i := hk & h.mask
	for h.table[i].pos != 0 {
		i = (i + 1) & h.mask
	}
	h.table[i] = slot{h: hk, pos: int32(pos + 1)}
}

// indexDelete removes the slot for (hk, pos) and backward-shifts the tail of
// its probe chain (same tombstone-free scheme as streamsummary).
func (h *Heap) indexDelete(hk uint64, pos int) {
	i := h.slotOf(hk, pos)
	for {
		h.table[i] = slot{}
		j := i
		for {
			j = (j + 1) & h.mask
			sl := h.table[j]
			if sl.pos == 0 {
				return
			}
			home := sl.h & h.mask
			if (j-home)&h.mask >= (j-i)&h.mask {
				h.table[i] = sl
				i = j
				break
			}
		}
	}
}

// Contains reports whether key is in the heap.
func (h *Heap) Contains(key string) bool {
	return h.find(h.hashString(key), key) >= 0
}

// MinCount returns the smallest recorded size (the paper's n_min), or 0 when
// the heap is empty.
func (h *Heap) MinCount() uint64 {
	if len(h.items) == 0 {
		return 0
	}
	return h.items[0].count
}

// Insert adds key with size count. If the heap is full it evicts the root
// first and returns it with evicted=true. Inserting an existing key panics;
// use UpdateMax.
func (h *Heap) Insert(key string, count uint64) (evictedKey string, evictedCount uint64, evicted bool) {
	hk := h.hashString(key)
	if h.find(hk, key) >= 0 {
		panic("minheap: Insert of existing key " + key)
	}
	return h.insertNew(entry{key: key, hash: hk, count: count})
}

// insertNew admits an already-hashed entry, evicting the root when full.
func (h *Heap) insertNew(e entry) (evictedKey string, evictedCount uint64, evicted bool) {
	if h.Full() {
		root := h.items[0]
		h.indexDelete(root.hash, 0)
		h.items[0] = e
		h.indexInsert(e.hash, 0)
		h.siftDown(0)
		return root.key, root.count, true
	}
	h.items = append(h.items, e)
	i := len(h.items) - 1
	h.indexInsert(e.hash, i)
	h.siftUp(i)
	return "", 0, false
}

// UpdateMax sets key's size to max(current, count); this is the §III-C
// min-heap update rule. It panics if key is absent.
func (h *Heap) UpdateMax(key string, count uint64) {
	i := h.find(h.hashString(key), key)
	if i < 0 {
		panic("minheap: UpdateMax of absent key " + key)
	}
	if count > h.items[i].count {
		h.items[i].count = count
		h.siftDown(i)
	}
}

// Entry is a (key, count) pair returned by Items.
type Entry struct {
	Key   string
	Count uint64
}

// Items returns all entries in descending count order.
func (h *Heap) Items() []Entry {
	out := make([]Entry, len(h.items))
	for i, e := range h.items {
		out[i] = Entry{Key: e.key, Count: e.count}
	}
	// Simple insertion-free sort: heaps are small (k entries), use stdlib.
	sortEntriesDesc(out)
	return out
}

// Top returns the k largest entries in descending order.
func (h *Heap) Top(k int) []Entry {
	items := h.Items()
	if len(items) > k {
		items = items[:k]
	}
	return items
}

func sortEntriesDesc(es []Entry) {
	// Shell sort keeps the package dependency-free and is plenty for k ≤ a
	// few thousand entries; called only at query time, never per packet.
	for gap := len(es) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(es); i++ {
			e := es[i]
			j := i
			for ; j >= gap && less(es[j-gap], e); j -= gap {
				es[j] = es[j-gap]
			}
			es[j] = e
		}
	}
}

// less orders descending by count, ascending by key for determinism.
func less(a, b Entry) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Key > b.Key
}

// swap exchanges heap positions i and j, re-pointing their index slots
// first: each slot is located by its (hash, pre-swap position) pair, which
// stays unambiguous even if the two keys collide on the full 64-bit hash.
func (h *Heap) swap(i, j int) {
	if i == j {
		return
	}
	si := h.slotOf(h.items[i].hash, i)
	sj := h.slotOf(h.items[j].hash, j)
	h.table[si].pos = int32(j + 1)
	h.table[sj].pos = int32(i + 1)
	h.items[i], h.items[j] = h.items[j], h.items[i]
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].count <= h.items[i].count {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		smallest := i
		if l := 2*i + 1; l < n && h.items[l].count < h.items[smallest].count {
			smallest = l
		}
		if r := 2*i + 2; r < n && h.items[r].count < h.items[smallest].count {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// checkInvariants panics if the heap property or the key index is violated.
func (h *Heap) checkInvariants() {
	for i := range h.items {
		if l := 2*i + 1; l < len(h.items) && h.items[l].count < h.items[i].count {
			panic("minheap: heap property violated (left child)")
		}
		if r := 2*i + 2; r < len(h.items) && h.items[r].count < h.items[i].count {
			panic("minheap: heap property violated (right child)")
		}
		e := h.items[i]
		if e.hash != h.hashString(e.key) {
			panic("minheap: stored hash mismatch for " + e.key)
		}
		if h.find(e.hash, e.key) != i {
			panic("minheap: index out of sync for " + e.key)
		}
	}
	occupied := 0
	for j, sl := range h.table {
		if sl.pos == 0 {
			continue
		}
		occupied++
		p := int(sl.pos - 1)
		if p >= len(h.items) {
			panic("minheap: index slot points past the heap")
		}
		if h.items[p].hash != sl.h {
			panic("minheap: slot hash disagrees with entry hash for " + h.items[p].key)
		}
		for i := sl.h & h.mask; i != uint64(j); i = (i + 1) & h.mask {
			if h.table[i].pos == 0 {
				panic("minheap: probe chain split by empty slot for " + h.items[p].key)
			}
		}
	}
	if occupied != len(h.items) {
		panic("minheap: index size mismatch")
	}
}

// BytesPerEntry estimates per-entry memory for the harness's byte budgeting,
// mirroring streamsummary.BytesPerEntry.
const BytesPerEntry = 32
