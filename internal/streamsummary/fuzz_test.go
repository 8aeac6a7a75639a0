package streamsummary

import (
	"fmt"
	"testing"
)

// FuzzStoreEquivalence drives the open-addressed Summary and the map-backed
// RefSummary with one fuzzer-chosen op stream and asserts identical
// observable state after every op: Len, MinCount, Min, and (periodically plus
// at the end) the full Items listing. The key space is kept tiny (32 keys on
// an 8-entry summary) so evict/insert cycles and probe-chain churn — the
// paths where a linear-probing or backward-shift bug would hide — happen
// constantly. Structural invariants of both sides are validated at the end
// of every input.
func FuzzStoreEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 16, 3, 24, 4, 1, 0, 9, 1, 17, 2, 25, 3})
	f.Add([]byte{8, 0, 8, 1, 8, 2, 8, 3, 8, 4, 8, 5, 8, 6, 8, 7, 24, 0, 24, 1})
	f.Add([]byte{16, 5, 16, 5, 16, 5, 33, 5, 40, 0, 16, 5})
	f.Add([]byte{3, 1, 3, 2, 7, 1, 7, 30, 7, 2, 5, 0, 7, 1, 3, 9, 7, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 8
		open := NewSeeded(capacity, 0x5EED)
		ref := NewRef(capacity)
		keyOf := func(b byte) string { return fmt.Sprintf("k%d", b%32) }

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := keyOf(arg)
			kb := []byte(key)
			switch op % 9 {
			case 0: // membership probe (string form)
				if open.Contains(key) != ref.Contains(key) {
					t.Fatalf("op %d: Contains(%s) diverged", i, key)
				}
			case 1: // probe via byte key (sets both cursors)
				if open.ContainsKey(kb) != ref.ContainsKey(kb) {
					t.Fatalf("op %d: ContainsKey(%s) diverged", i, key)
				}
			case 2: // probe via precomputed hash on the open side only
				if open.ContainsHashed(kb, open.Hash(kb)) != ref.ContainsKey(kb) {
					t.Fatalf("op %d: ContainsHashed(%s) diverged", i, key)
				}
			case 3: // admit when absent and not full
				if !open.Contains(key) && !open.Full() {
					c := uint64(arg%13) + 1
					e := uint64(arg % 3)
					open.InsertHashed(kb, open.Hash(kb), c, e)
					ref.Insert(key, c, e)
				}
			case 4: // update-max (hashed vs map path)
				v := uint64(arg)%29 + 1
				open.UpdateMaxHashed(kb, open.Hash(kb), v)
				ref.UpdateMaxKey(kb, v)
			case 5: // evict the minimum
				k1, c1, ok1 := open.EvictMin()
				k2, c2, ok2 := ref.EvictMin()
				if k1 != k2 || c1 != c2 || ok1 != ok2 {
					t.Fatalf("op %d: EvictMin diverged: (%q,%d,%v) vs (%q,%d,%v)",
						i, k1, c1, ok1, k2, c2, ok2)
				}
			case 6: // remove a specific key
				if open.Remove(key) != ref.Remove(key) {
					t.Fatalf("op %d: Remove(%s) diverged", i, key)
				}
			case 7: // the tracker's probe pair: ProbeHashed, then UpdateMaxProbe on a hit
				v := uint64(arg)%29 + 1
				p, ok := open.ProbeHashed(kb, open.Hash(kb))
				if ok != ref.ContainsKey(kb) {
					t.Fatalf("op %d: ProbeHashed(%s) diverged", i, key)
				}
				if ok {
					open.UpdateMaxProbe(p, v)
					ref.UpdateMaxKey(kb, v)
				}
			default: // set / incr on monitored keys
				if open.Contains(key) {
					if arg%2 == 0 {
						if open.Incr(key) != ref.Incr(key) {
							t.Fatalf("op %d: Incr(%s) diverged", i, key)
						}
					} else {
						v := uint64(arg)%17 + 1
						open.Set(key, v)
						ref.Set(key, v)
					}
				}
			}
			if open.Len() != ref.Len() {
				t.Fatalf("op %d: Len diverged: %d vs %d", i, open.Len(), ref.Len())
			}
			if open.MinCount() != ref.MinCount() {
				t.Fatalf("op %d: MinCount diverged: %d vs %d", i, open.MinCount(), ref.MinCount())
			}
			k1, c1, ok1 := open.Min()
			k2, c2, ok2 := ref.Min()
			if k1 != k2 || c1 != c2 || ok1 != ok2 {
				t.Fatalf("op %d: Min diverged: (%q,%d,%v) vs (%q,%d,%v)", i, k1, c1, ok1, k2, c2, ok2)
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
