package streamsummary

import (
	"fmt"
	"testing"
)

// FuzzStoreEquivalence drives the open-addressed Summary and the map-backed
// RefSummary with one fuzzer-chosen op stream and asserts identical
// observable state after every op: Len, MinCount and (periodically plus at
// the end) the full Items listing. The ops are the store operations the
// tracker, the snapshot reader and the Space-Saving/CSS engines call. The
// key space is kept tiny (32 keys on an 8-entry summary) so evict/insert
// cycles and probe-chain churn — the paths where a linear-probing or
// backward-shift bug would hide — happen constantly. Structural invariants
// of both sides are validated at the end of every input.
func FuzzStoreEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 16, 3, 24, 4, 1, 0, 9, 1, 17, 2, 25, 3})
	f.Add([]byte{8, 0, 8, 1, 8, 2, 8, 3, 8, 4, 8, 5, 8, 6, 8, 7, 24, 0, 24, 1})
	f.Add([]byte{16, 5, 16, 5, 16, 5, 33, 5, 40, 0, 16, 5})
	f.Add([]byte{3, 1, 3, 2, 7, 1, 7, 30, 7, 2, 5, 0, 7, 1, 3, 9, 7, 9})
	// Probe the minimum, evict it, then update through the stale handle.
	f.Add([]byte{3, 1, 3, 2, 3, 3, 7, 1, 7, 3, 6, 2, 4, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 8
		open := NewSeeded(capacity, 0x5EED)
		ref := NewRef(capacity)
		keyOf := func(b byte) string { return fmt.Sprintf("k%d", b%32) }

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := keyOf(arg)
			kb := []byte(key)
			switch op % 8 {
			case 0: // membership probe (string form)
				if open.Contains(key) != ref.Contains(key) {
					t.Fatalf("op %d: Contains(%s) diverged", i, key)
				}
			case 1: // count lookup from the precomputed hash
				c1, ok1 := open.CountHashed(kb, open.Hash(kb))
				c2, ok2 := ref.Count(key)
				if c1 != c2 || ok1 != ok2 {
					t.Fatalf("op %d: CountHashed(%s) diverged: (%d,%v) vs (%d,%v)", i, key, c1, ok1, c2, ok2)
				}
			case 2: // admit by string key (snapshot restore) when absent and not full
				if !open.Contains(key) && !open.Full() {
					c := uint64(arg%11) + 1
					open.Insert(key, c, 0)
					ref.Insert(key, c, 0)
				}
			case 3: // admit from the precomputed hash when absent and not full
				if !open.Contains(key) && !open.Full() {
					c := uint64(arg%13) + 1
					e := uint64(arg % 3)
					open.InsertHashed(kb, open.Hash(kb), c, e)
					ref.Insert(key, c, e)
				}
			case 4: // Space-Saving's increment, monitored or not
				d := uint64(arg%4) + 1
				c1, ok1 := open.IncrHashed(kb, open.Hash(kb), d)
				c2, ok2 := ref.Incr(key, d)
				if c1 != c2 || ok1 != ok2 {
					t.Fatalf("op %d: IncrHashed(%s) diverged: (%d,%v) vs (%d,%v)", i, key, c1, ok1, c2, ok2)
				}
			case 5: // evict the minimum
				k1, c1, ok1 := open.EvictMin()
				k2, c2, ok2 := ref.EvictMin()
				if k1 != k2 || c1 != c2 || ok1 != ok2 {
					t.Fatalf("op %d: EvictMin diverged: (%q,%d,%v) vs (%q,%d,%v)",
						i, k1, c1, ok1, k2, c2, ok2)
				}
			case 6: // the tracker's probe pair: ProbeHashed, then UpdateMaxProbe on a hit
				v := uint64(arg)%29 + 1
				p, ok := open.ProbeHashed(kb, open.Hash(kb))
				if ok != ref.Contains(key) {
					t.Fatalf("op %d: ProbeHashed(%s) diverged", i, key)
				}
				if ok {
					open.UpdateMaxProbe(p, v)
					ref.UpdateMax(key, v)
				}
			default: // an eviction between probe and update: a detached handle is ignored
				v := uint64(arg)%29 + 1
				p, ok := open.ProbeHashed(kb, open.Hash(kb))
				if ok != ref.Contains(key) {
					t.Fatalf("op %d: ProbeHashed(%s) diverged", i, key)
				}
				open.EvictMin()
				ref.EvictMin()
				open.UpdateMaxProbe(p, v)
				ref.UpdateMax(key, v)
			}
			if open.Len() != ref.Len() {
				t.Fatalf("op %d: Len diverged: %d vs %d", i, open.Len(), ref.Len())
			}
			if open.MinCount() != ref.MinCount() {
				t.Fatalf("op %d: MinCount diverged: %d vs %d", i, open.MinCount(), ref.MinCount())
			}
			if i%64 == 0 {
				assertSameItems(t, open.Items(), ref.Items())
			}
		}
		open.CheckInvariants()
		ref.CheckInvariants()
		assertSameItems(t, open.Items(), ref.Items())
		for _, e := range open.Items() {
			if got := ref.Error(e.Key); got != e.Err {
				t.Fatalf("Error(%s) diverged: %d vs %d", e.Key, e.Err, got)
			}
			if c1, ok1 := open.Count(e.Key); !ok1 || c1 != e.Count {
				t.Fatalf("Count(%s) = %d,%v disagrees with Items %d", e.Key, c1, ok1, e.Count)
			}
		}
	})
}

// assertSameItems fails unless both summaries report identical entries in
// identical order.
func assertSameItems(t *testing.T, a, b []Entry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("Items length diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Items[%d] diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
