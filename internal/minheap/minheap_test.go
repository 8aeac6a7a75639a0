package minheap

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

func (h *Heap) mustCheck(t *testing.T) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("invariant violation: %v", r)
		}
	}()
	h.checkInvariants()
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestInsertBelowCapacity(t *testing.T) {
	h := New(4)
	for i, c := range []uint64{5, 3, 8, 1} {
		if _, _, ev := h.Insert(fmt.Sprintf("k%d", i), c); ev {
			t.Fatalf("unexpected eviction inserting below capacity")
		}
	}
	h.mustCheck(t)
	if h.MinCount() != 1 {
		t.Errorf("MinCount = %d want 1", h.MinCount())
	}
	if !h.Full() {
		t.Error("heap should be full")
	}
}

func TestInsertEvictsRootWhenFull(t *testing.T) {
	h := New(2)
	h.Insert("a", 10)
	h.Insert("b", 20)
	k, c, ev := h.Insert("c", 15)
	if !ev || k != "a" || c != 10 {
		t.Fatalf("Insert evicted %q,%d,%v want a,10,true", k, c, ev)
	}
	if h.Contains("a") {
		t.Error("evicted key still present")
	}
	if h.MinCount() != 15 {
		t.Errorf("MinCount = %d want 15", h.MinCount())
	}
	h.mustCheck(t)
}

func TestInsertDuplicatePanics(t *testing.T) {
	h := New(2)
	h.Insert("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	h.Insert("a", 2)
}

func TestUpdateBothDirections(t *testing.T) {
	h := New(4)
	h.Insert("a", 10)
	h.Insert("b", 20)
	h.Insert("c", 30)
	h.Update("c", 5)
	if h.MinCount() != 5 {
		t.Errorf("MinCount after decrease = %d want 5", h.MinCount())
	}
	h.Update("c", 40)
	if h.MinCount() != 10 {
		t.Errorf("MinCount after increase = %d want 10", h.MinCount())
	}
	h.mustCheck(t)
}

func TestUpdateMaxOnlyIncreases(t *testing.T) {
	h := New(2)
	h.Insert("a", 10)
	h.UpdateMax("a", 5)
	if c, _ := h.Count("a"); c != 10 {
		t.Errorf("UpdateMax decreased count to %d", c)
	}
	h.UpdateMax("a", 50)
	if c, _ := h.Count("a"); c != 50 {
		t.Errorf("UpdateMax did not increase count, got %d", c)
	}
	h.mustCheck(t)
}

func TestUpdateAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Update of absent key did not panic")
		}
	}()
	New(2).Update("ghost", 1)
}

func TestRemove(t *testing.T) {
	h := New(8)
	for i := 0; i < 8; i++ {
		h.Insert(fmt.Sprintf("k%d", i), uint64(i*3+1))
	}
	if !h.Remove("k3") {
		t.Fatal("Remove(k3) = false")
	}
	if h.Remove("k3") {
		t.Fatal("second Remove(k3) = true")
	}
	if h.Len() != 7 {
		t.Errorf("Len = %d want 7", h.Len())
	}
	h.mustCheck(t)
	// Remove the root.
	if !h.Remove("k0") {
		t.Fatal("Remove(k0) = false")
	}
	h.mustCheck(t)
}

func TestMinOnEmpty(t *testing.T) {
	h := New(2)
	if _, _, ok := h.Min(); ok {
		t.Error("Min on empty heap reported ok")
	}
	if h.MinCount() != 0 {
		t.Errorf("MinCount on empty = %d want 0", h.MinCount())
	}
}

func TestItemsDescendingAndComplete(t *testing.T) {
	h := New(16)
	want := map[string]uint64{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%d", i)
		c := uint64((i * 37) % 11)
		h.Insert(k, c)
		want[k] = c
	}
	items := h.Items()
	if len(items) != 16 {
		t.Fatalf("Items len = %d want 16", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Count > items[i-1].Count {
			t.Fatalf("Items not descending at %d", i)
		}
	}
	for _, e := range items {
		if want[e.Key] != e.Count {
			t.Errorf("item %s count %d want %d", e.Key, e.Count, want[e.Key])
		}
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	h := New(4)
	h.Insert("b", 5)
	h.Insert("a", 5)
	h.Insert("c", 5)
	items := h.Items()
	if items[0].Key != "a" || items[1].Key != "b" || items[2].Key != "c" {
		t.Errorf("ties not broken by key: %v", items)
	}
}

func TestTopKMatchesSortedTruth(t *testing.T) {
	// Insert a stream with evictions; the heap must end up holding exactly
	// the capacity largest values when values arrive in random order and we
	// only insert when count > min (the top-k usage pattern).
	const cap = 10
	h := New(cap)
	rng := xrand.NewXorshift64Star(5)
	var all []uint64
	for i := 0; i < 500; i++ {
		c := rng.Uint64n(100000)
		all = append(all, c)
		key := fmt.Sprintf("k%d", i)
		if !h.Full() {
			h.Insert(key, c)
		} else if c > h.MinCount() {
			h.Insert(key, c)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	items := h.Items()
	for i := 0; i < cap; i++ {
		if items[i].Count != all[i] {
			t.Fatalf("top-%d count = %d want %d", i, items[i].Count, all[i])
		}
	}
}

func TestRandomizedInvariants(t *testing.T) {
	rng := xrand.NewXorshift64Star(99)
	h := New(32)
	live := map[string]bool{}
	for step := 0; step < 20000; step++ {
		key := fmt.Sprintf("k%d", rng.Uint64n(64))
		switch rng.Uint64n(4) {
		case 0:
			if !live[key] {
				ek, _, ev := h.Insert(key, rng.Uint64n(1000))
				live[key] = true
				if ev {
					delete(live, ek)
				}
			}
		case 1:
			if live[key] {
				h.Update(key, rng.Uint64n(1000))
			}
		case 2:
			if live[key] {
				h.UpdateMax(key, rng.Uint64n(1000))
			}
		case 3:
			if h.Remove(key) {
				delete(live, key)
			}
		}
		if h.Len() != len(live) {
			t.Fatalf("step %d: Len=%d live=%d", step, h.Len(), len(live))
		}
		if step%500 == 0 {
			h.mustCheck(t)
		}
	}
	h.mustCheck(t)
}

func BenchmarkInsertEvict(b *testing.B) {
	h := New(100)
	for i := 0; i < 100; i++ {
		h.Insert(fmt.Sprintf("k%d", i), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(fmt.Sprintf("n%d", i), uint64(i%1000)+100)
	}
}

func BenchmarkUpdateMax(b *testing.B) {
	h := New(100)
	for i := 0; i < 100; i++ {
		h.Insert(fmt.Sprintf("k%d", i), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.UpdateMax("k50", uint64(i%200))
	}
}
