package streamsummary

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSeeded(%d, 0) did not panic", c)
				}
			}()
			NewSeeded(c, 0)
		}()
	}
}

func TestInsertAndCount(t *testing.T) {
	s := NewSeeded(4, 0)
	s.Insert("a", 3, 0)
	s.Insert("b", 1, 0)
	s.Insert("c", 3, 2)
	if got, ok := s.Count("a"); !ok || got != 3 {
		t.Errorf("Count(a) = %d,%v want 3,true", got, ok)
	}
	if got, ok := s.Count("b"); !ok || got != 1 {
		t.Errorf("Count(b) = %d,%v want 1,true", got, ok)
	}
	if got := s.Error("c"); got != 2 {
		t.Errorf("Error(c) = %d want 2", got)
	}
	if _, ok := s.Count("zzz"); ok {
		t.Error("Count of unknown key reported present")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d want 3", s.Len())
	}
	s.CheckInvariants()
}

func TestMinTracksSmallest(t *testing.T) {
	s := NewSeeded(8, 0)
	s.Insert("big", 100, 0)
	s.Insert("small", 2, 0)
	s.Insert("mid", 50, 0)
	if got := s.MinCount(); got != 2 {
		t.Fatalf("MinCount = %d want 2", got)
	}
	s.Insert("tiny", 1, 0)
	if got := s.MinCount(); got != 1 {
		t.Fatalf("MinCount after smaller insert = %d want 1", got)
	}
}

func TestMinOnEmpty(t *testing.T) {
	s := NewSeeded(2, 0)
	if got := s.MinCount(); got != 0 {
		t.Errorf("MinCount on empty = %d want 0", got)
	}
	if _, _, ok := s.EvictMin(); ok {
		t.Error("EvictMin on empty summary reported ok")
	}
}

// incr is IncrHashed for a string key.
func incr(s *Summary, key string, delta uint64) (uint64, bool) {
	kb := []byte(key)
	return s.IncrHashed(kb, s.Hash(kb), delta)
}

func TestIncrMovesBuckets(t *testing.T) {
	s := NewSeeded(4, 0)
	s.Insert("a", 1, 0)
	s.Insert("b", 1, 0)
	if got, ok := incr(s, "a", 1); !ok || got != 2 {
		t.Fatalf("IncrHashed(a) = %d,%v want 2,true", got, ok)
	}
	s.CheckInvariants()
	if got, _ := s.Count("a"); got != 2 {
		t.Errorf("Count(a) = %d want 2", got)
	}
	if got, _ := s.Count("b"); got != 1 {
		t.Errorf("Count(b) = %d want 1 (must not move with a)", got)
	}
	if got := s.MinCount(); got != 1 {
		t.Errorf("MinCount = %d want 1", got)
	}
}

func TestIncrHashedIgnoresUnknown(t *testing.T) {
	s := NewSeeded(2, 0)
	s.Insert("a", 3, 0)
	if got, ok := incr(s, "ghost", 1); ok || got != 0 {
		t.Fatalf("IncrHashed(ghost) = %d,%v want 0,false", got, ok)
	}
	if s.Len() != 1 || s.Contains("ghost") {
		t.Fatal("IncrHashed admitted an unmonitored key")
	}
	s.CheckInvariants()
}

func TestInsertPanicsWhenFull(t *testing.T) {
	s := NewSeeded(1, 0)
	s.Insert("a", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert into full summary did not panic")
		}
	}()
	s.Insert("b", 1, 0)
}

func TestInsertPanicsOnDuplicate(t *testing.T) {
	s := NewSeeded(2, 0)
	s.Insert("a", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	s.Insert("a", 2, 0)
}

func TestEvictMinRemovesSmallest(t *testing.T) {
	s := NewSeeded(4, 0)
	s.Insert("x", 10, 0)
	s.Insert("y", 1, 0)
	s.Insert("z", 5, 0)
	key, count, ok := s.EvictMin()
	if !ok || key != "y" || count != 1 {
		t.Fatalf("EvictMin = %q,%d,%v want y,1,true", key, count, ok)
	}
	if s.Contains("y") {
		t.Error("evicted key still monitored")
	}
	if got := s.MinCount(); got != 5 {
		t.Errorf("MinCount after evict = %d want 5", got)
	}
	s.CheckInvariants()
}

// update is ProbeHashed followed by UpdateMaxProbe, the tracker's pair.
func update(s *Summary, key string, count uint64) {
	if p, ok := probe(s, key); ok {
		s.UpdateMaxProbe(p, count)
	}
}

func TestUpdateMaxProbeMovesUp(t *testing.T) {
	s := NewSeeded(4, 0)
	s.Insert("a", 5, 0)
	s.Insert("b", 10, 0)
	s.Insert("c", 15, 0)
	update(s, "a", 12) // move up past b
	if got, _ := s.Count("a"); got != 12 {
		t.Fatalf("Count(a) = %d want 12", got)
	}
	if got := s.MinCount(); got != 10 {
		t.Fatalf("MinCount = %d want 10", got)
	}
	s.CheckInvariants()
	update(s, "c", 1) // max rule: never moves down
	if got, _ := s.Count("c"); got != 15 {
		t.Fatalf("Count(c) = %d want 15", got)
	}
	update(s, "b", 40) // move up past everything
	if top := s.Top(1); top[0].Key != "b" || top[0].Count != 40 {
		t.Fatalf("Top(1) = %v want b at 40", top)
	}
	s.CheckInvariants()
}

func TestUpdateMaxProbeJoinsExistingBucket(t *testing.T) {
	s := NewSeeded(4, 0)
	s.Insert("a", 5, 0)
	s.Insert("b", 9, 0)
	update(s, "a", 9)
	if got, _ := s.Count("a"); got != 9 {
		t.Fatalf("Count(a) = %d want 9", got)
	}
	s.CheckInvariants()
	items := s.Items()
	if len(items) != 2 || items[0].Count != 9 || items[1].Count != 9 {
		t.Fatalf("Items = %v, want both at count 9", items)
	}
}

func TestItemsDescending(t *testing.T) {
	s := NewSeeded(8, 0)
	counts := []uint64{7, 3, 9, 1, 5, 9}
	for i, c := range counts {
		s.Insert(fmt.Sprintf("k%d", i), c, 0)
	}
	items := s.Items()
	if len(items) != len(counts) {
		t.Fatalf("Items returned %d entries want %d", len(items), len(counts))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Count > items[i-1].Count {
			t.Fatalf("Items not descending at %d: %v", i, items)
		}
	}
}

func TestTopTruncates(t *testing.T) {
	s := NewSeeded(8, 0)
	for i := 0; i < 6; i++ {
		s.Insert(fmt.Sprintf("k%d", i), uint64(i+1), 0)
	}
	top := s.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d entries", len(top))
	}
	if top[0].Count != 6 || top[1].Count != 5 || top[2].Count != 4 {
		t.Fatalf("Top(3) = %v", top)
	}
	if got := len(s.Top(100)); got != 6 {
		t.Errorf("Top(100) returned %d entries want 6", got)
	}
}

// TestSpaceSavingUsagePattern drives the summary exactly as Space-Saving
// does and cross-checks counts against a reference map on a skewed stream.
func TestSpaceSavingUsagePattern(t *testing.T) {
	const m = 32
	s := NewSeeded(m, 0)
	rng := xrand.NewXorshift64Star(2024)
	exact := map[string]uint64{}
	for i := 0; i < 20000; i++ {
		// Skewed keyspace: low ids much more frequent.
		id := rng.Uint64n(rng.Uint64n(200) + 1)
		key := fmt.Sprintf("f%d", id)
		exact[key]++
		kb := []byte(key)
		h := s.Hash(kb)
		if _, ok := s.IncrHashed(kb, h, 1); !ok {
			if !s.Full() {
				s.InsertHashed(kb, h, 1, 0)
			} else {
				_, minC, _ := s.EvictMin()
				s.InsertHashed(kb, h, minC+1, minC)
			}
		}
		if i%997 == 0 {
			s.CheckInvariants()
		}
	}
	s.CheckInvariants()
	// Space-Saving guarantee: recorded count >= true count for monitored keys,
	// and recorded - err <= true.
	for _, e := range s.Items() {
		truth := exact[e.Key]
		if e.Count < truth {
			t.Errorf("key %s: recorded %d < true %d (Space-Saving never underestimates)", e.Key, e.Count, truth)
		}
		if e.Count-e.Err > truth {
			t.Errorf("key %s: count-err %d > true %d", e.Key, e.Count-e.Err, truth)
		}
	}
	// The heaviest true key must be monitored (property of Space-Saving when
	// m is comfortably larger than the heavy set).
	type kv struct {
		k string
		v uint64
	}
	var all []kv
	for k, v := range exact {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if !s.Contains(all[0].k) {
		t.Errorf("heaviest key %s (count %d) not monitored", all[0].k, all[0].v)
	}
}

// TestRandomizedInvariants fuzzes the full operation mix and validates
// structural invariants throughout.
func TestRandomizedInvariants(t *testing.T) {
	rng := xrand.NewXorshift64Star(7)
	s := NewSeeded(16, 0)
	live := map[string]bool{}
	keyOf := func(i uint64) string { return fmt.Sprintf("k%d", i) }
	for step := 0; step < 30000; step++ {
		op := rng.Uint64n(100)
		switch {
		case op < 40: // insert or incr
			key := keyOf(rng.Uint64n(40))
			if live[key] {
				incr(s, key, 1)
			} else if !s.Full() {
				s.Insert(key, rng.Uint64n(20)+1, 0)
				live[key] = true
			}
		case op < 60: // evict min
			if key, _, ok := s.EvictMin(); ok {
				delete(live, key)
			}
		case op < 80: // update-max a random key, monitored or not
			update(s, keyOf(rng.Uint64n(40)), rng.Uint64n(50)+1)
		default: // probe, evict the minimum, then update through the handle
			p, _ := probe(s, keyOf(rng.Uint64n(40)))
			if key, _, ok := s.EvictMin(); ok {
				delete(live, key)
			}
			s.UpdateMaxProbe(p, rng.Uint64n(50)+1)
		}
		if s.Len() != len(live) {
			t.Fatalf("step %d: Len=%d live=%d", step, s.Len(), len(live))
		}
		if step%500 == 0 {
			s.CheckInvariants()
		}
	}
	s.CheckInvariants()
}

func BenchmarkIncrHot(b *testing.B) {
	s := NewSeeded(1024, 0)
	for i := 0; i < 1024; i++ {
		s.Insert(fmt.Sprintf("k%d", i), 1, 0)
	}
	kb := []byte("k512")
	h := s.Hash(kb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncrHashed(kb, h, 1)
	}
}

func BenchmarkEvictInsertCycle(b *testing.B) {
	s := NewSeeded(256, 0)
	for i := 0; i < 256; i++ {
		s.Insert(fmt.Sprintf("k%d", i), uint64(i+1), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, c, _ := s.EvictMin()
		s.Insert(key, c+1, c)
	}
}
