// RefSummary is the retained map-indexed Stream-Summary implementation, kept
// as test code: the differential reference for the open-addressed Summary.
// It is bit-for-bit the pre-rewrite structure: same bucket-list logic, same
// tie-breaking, same cursor discipline — only the key index differs (a Go
// map here, the flat hash table in Summary). FuzzStoreEquivalence drives both
// with one op stream and asserts identical observable state.

package streamsummary

// refNode is one monitored flow in the reference implementation.
type refNode struct {
	key        string
	err        uint64
	b          *refBucket
	prev, next *refNode
}

// refBucket groups all reference nodes with the same count.
type refBucket struct {
	count      uint64
	first      *refNode
	prev, next *refBucket
}

// RefSummary is a map-indexed Stream-Summary with fixed capacity.
type RefSummary struct {
	capacity int
	nodes    map[string]*refNode
	head     *refBucket
	free     *refBucket
	cursor   *refNode
}

// NewRef returns an empty reference Stream-Summary that monitors at most
// capacity keys. It panics if capacity < 1.
func NewRef(capacity int) *RefSummary {
	if capacity < 1 {
		panic("streamsummary: capacity must be >= 1")
	}
	return &RefSummary{
		capacity: capacity,
		nodes:    make(map[string]*refNode, capacity),
	}
}

// Len returns the number of monitored keys.
func (s *RefSummary) Len() int { return len(s.nodes) }

// Capacity returns the maximum number of monitored keys.
func (s *RefSummary) Capacity() int { return s.capacity }

// Full reports whether the summary is at capacity.
func (s *RefSummary) Full() bool { return len(s.nodes) >= s.capacity }

// Contains reports whether key is monitored.
func (s *RefSummary) Contains(key string) bool {
	_, ok := s.nodes[key]
	return ok
}

// ContainsKey is Contains for a byte-slice key. A hit is remembered for
// UpdateMaxKey, mirroring Summary's cursor discipline.
func (s *RefSummary) ContainsKey(key []byte) bool {
	n := s.nodes[string(key)]
	s.cursor = n
	return n != nil
}

// UpdateMaxKey raises key's count to max(current, count); keys that are not
// monitored are ignored.
func (s *RefSummary) UpdateMaxKey(key []byte, count uint64) {
	n := s.cursor
	if n == nil || n.key != string(key) {
		var ok bool
		n, ok = s.nodes[string(key)]
		if !ok {
			return
		}
	}
	if n.b.count >= count {
		return
	}
	s.moveTo(n, count)
}

// InsertKey is Insert for a byte-slice key.
func (s *RefSummary) InsertKey(key []byte, count, errVal uint64) {
	s.Insert(string(key), count, errVal)
}

// Count returns the recorded count of key.
func (s *RefSummary) Count(key string) (uint64, bool) {
	n, ok := s.nodes[key]
	if !ok {
		return 0, false
	}
	return n.b.count, true
}

// Error returns the over-estimation error recorded for key.
func (s *RefSummary) Error(key string) uint64 {
	if n, ok := s.nodes[key]; ok {
		return n.err
	}
	return 0
}

// Min returns the key and count of one minimum-count entry.
func (s *RefSummary) Min() (key string, count uint64, ok bool) {
	if s.head == nil {
		return "", 0, false
	}
	return s.head.first.key, s.head.count, true
}

// MinCount returns the smallest monitored count, or 0 when empty.
func (s *RefSummary) MinCount() uint64 {
	if s.head == nil {
		return 0
	}
	return s.head.count
}

// Incr increments key's count by one; the key must already be monitored.
func (s *RefSummary) Incr(key string) uint64 {
	n, ok := s.nodes[key]
	if !ok {
		panic("streamsummary: Incr on unmonitored key " + key)
	}
	s.moveTo(n, n.b.count+1)
	return n.b.count
}

// Insert adds a new key with the given count and error. It panics if the key
// is already monitored or the summary is full.
func (s *RefSummary) Insert(key string, count, errVal uint64) {
	if _, ok := s.nodes[key]; ok {
		panic("streamsummary: Insert of monitored key " + key)
	}
	if s.Full() {
		panic("streamsummary: Insert into full summary")
	}
	n := &refNode{key: key, err: errVal}
	s.nodes[key] = n
	s.placeFrom(n, s.head, count)
}

// EvictMin removes and returns one minimum-count entry.
func (s *RefSummary) EvictMin() (key string, count uint64, ok bool) {
	if s.head == nil {
		return "", 0, false
	}
	n := s.head.first
	key, count = n.key, n.b.count
	s.detach(n)
	delete(s.nodes, key)
	if s.cursor == n {
		s.cursor = nil
	}
	return key, count, true
}

// Remove deletes key if monitored and reports whether it was present.
func (s *RefSummary) Remove(key string) bool {
	n, ok := s.nodes[key]
	if !ok {
		return false
	}
	s.detach(n)
	delete(s.nodes, key)
	if s.cursor == n {
		s.cursor = nil
	}
	return true
}

// Set changes key's count to count, relocating its bucket.
func (s *RefSummary) Set(key string, count uint64) {
	n, ok := s.nodes[key]
	if !ok {
		panic("streamsummary: Set on unmonitored key " + key)
	}
	if n.b.count == count {
		return
	}
	s.moveTo(n, count)
}

// Items returns all monitored entries in descending count order.
func (s *RefSummary) Items() []Entry {
	out := make([]Entry, 0, len(s.nodes))
	var tail *refBucket
	for b := s.head; b != nil; b = b.next {
		tail = b
	}
	for b := tail; b != nil; b = b.prev {
		for n := b.first; n != nil; n = n.next {
			out = append(out, Entry{Key: n.key, Count: b.count, Err: n.err})
		}
	}
	return out
}

// Top returns the k largest entries in descending count order.
func (s *RefSummary) Top(k int) []Entry {
	items := s.Items()
	if len(items) > k {
		items = items[:k]
	}
	return items
}

func (s *RefSummary) moveTo(n *refNode, newCount uint64) {
	old := n.b
	start := old
	s.unlinkNode(n)
	s.placeFrom(n, start, newCount)
	if old.first == nil {
		s.removeBucket(old)
	}
}

func (s *RefSummary) detach(n *refNode) {
	b := n.b
	s.unlinkNode(n)
	if b.first == nil {
		s.removeBucket(b)
	}
	n.b = nil
}

func (s *RefSummary) unlinkNode(n *refNode) {
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

func (s *RefSummary) placeFrom(n *refNode, start *refBucket, count uint64) {
	if start == nil {
		start = s.head
	}
	var at *refBucket
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
	n.b = at
	n.prev = nil
	n.next = at.first
	if at.first != nil {
		at.first.prev = n
	}
	at.first = n
}

func (s *RefSummary) newBucket(count uint64, prev, next *refBucket) *refBucket {
	b := s.free
	if b != nil {
		s.free = b.next
		b.count, b.first, b.prev, b.next = count, nil, prev, next
	} else {
		b = &refBucket{count: count, prev: prev, next: next}
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

func (s *RefSummary) removeBucket(b *refBucket) {
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

// checkInvariants walks the structure and panics on corruption.
func (s *RefSummary) checkInvariants() {
	seen := 0
	var prevCount uint64
	first := true
	for b := s.head; b != nil; b = b.next {
		if !first && b.count <= prevCount {
			panic("streamsummary: ref bucket counts not strictly increasing")
		}
		first = false
		prevCount = b.count
		if b.first == nil {
			panic("streamsummary: ref empty bucket retained")
		}
		for n := b.first; n != nil; n = n.next {
			if n.b != b {
				panic("streamsummary: ref node back-pointer mismatch")
			}
			if n.next != nil && n.next.prev != n {
				panic("streamsummary: ref node list corrupted")
			}
			if s.nodes[n.key] != n {
				panic("streamsummary: ref map/list mismatch for " + n.key)
			}
			seen++
		}
		if b.next != nil && b.next.prev != b {
			panic("streamsummary: ref bucket list corrupted")
		}
	}
	if seen != len(s.nodes) {
		panic("streamsummary: ref node count mismatch")
	}
}
