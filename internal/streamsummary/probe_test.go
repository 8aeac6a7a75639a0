package streamsummary

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// A Probe handle is a bare *node that EvictMin can unmonitor between the
// probe and the update. These tests enumerate the interleavings that could
// make a stale handle receive an update and prove none does.

// probe returns the handle ProbeHashed gives for key.
func probe(s *Summary, key string) (Probe, bool) {
	kb := []byte(key)
	return s.ProbeHashed(kb, s.Hash(kb))
}

// TestProbeDetachedByEvict: probe a key, evict it (it is the minimum), then
// update through the handle. The update must be a silent no-op — not a
// write through the detached node, which would resurrect it into the bucket
// lists.
func TestProbeDetachedByEvict(t *testing.T) {
	s := NewSeeded(4, 0)
	s.Insert("victim", 1, 0)
	s.Insert("other", 9, 0)

	p, ok := probe(s, "victim")
	if !ok {
		t.Fatal("victim not monitored")
	}
	if key, _, _ := s.EvictMin(); key != "victim" {
		t.Fatalf("evicted %q, want victim", key)
	}
	s.UpdateMaxProbe(p, 100)
	if s.Contains("victim") {
		t.Fatal("stale-handle update resurrected an evicted key")
	}
	if s.Len() != 1 || s.MinCount() != 9 {
		t.Fatalf("Len = %d, MinCount = %d; want 1, 9", s.Len(), s.MinCount())
	}
	s.CheckInvariants()
}

// TestProbeAfterReinsertion: evict a probed key and re-admit the same key (a
// fresh node). The old handle must not reach the new node, and a new probe
// must.
func TestProbeAfterReinsertion(t *testing.T) {
	s := NewSeeded(2, 0)
	s.Insert("flow", 1, 0)
	s.Insert("big", 9, 0)
	stale, _ := probe(s, "flow")
	s.EvictMin() // removes flow
	s.Insert("flow", 2, 1)
	s.UpdateMaxProbe(stale, 6)
	if got, _ := s.Count("flow"); got != 2 {
		t.Fatalf("Count(flow) = %d, want 2 (the stale handle must not update the readmitted node)", got)
	}
	p, ok := probe(s, "flow")
	if !ok {
		t.Fatal("readmitted flow not monitored")
	}
	s.UpdateMaxProbe(p, 6)
	if got, _ := s.Count("flow"); got != 6 {
		t.Fatalf("Count(flow) = %d, want 6", got)
	}
	if got := s.Error("flow"); got != 1 {
		t.Fatalf("Error(flow) = %d, want 1 (update must hit the readmitted node)", got)
	}
	s.CheckInvariants()
}

// TestProbeSurvivesUnrelatedEvict: evicting another key between probe and
// update leaves the handle valid, and the update must land on it.
func TestProbeSurvivesUnrelatedEvict(t *testing.T) {
	s := NewSeeded(3, 0)
	s.Insert("hot", 5, 0)
	s.Insert("cold", 1, 0)
	s.Insert("warm", 3, 0)

	p, ok := probe(s, "hot")
	if !ok {
		t.Fatal("hot not monitored")
	}
	s.EvictMin() // evicts cold, not the probed node
	s.UpdateMaxProbe(p, 8)
	if got, _ := s.Count("hot"); got != 8 {
		t.Fatalf("Count(hot) = %d, want 8", got)
	}
	s.CheckInvariants()
}

// TestProbeInterleavingMatchesReference hammers randomized
// probe/evict/update/insert interleavings against the map-backed
// reference. The test tracks on its own whether the held handle's entry
// is still the one it probed; the reference is updated only then, so any
// stale-handle write on the open-addressed side diverges the two.
func TestProbeInterleavingMatchesReference(t *testing.T) {
	const cap = 8
	open := NewSeeded(cap, 0)
	ref := NewRef(cap)
	rng := xrand.NewXorshift64Star(99)
	key := func() string { return fmt.Sprintf("k%d", rng.Uint64n(24)) }
	var held Probe
	var heldKey string
	heldLive := false // the held handle's entry has not been evicted since the probe

	for step := 0; step < 50000; step++ {
		switch rng.Uint64n(10) {
		case 0, 1, 2: // probe, holding the handle for a later update
			k := key()
			p, ok := probe(open, k)
			if ok != ref.Contains(k) {
				t.Fatalf("step %d: ProbeHashed(%s) diverged", step, k)
			}
			held, heldKey, heldLive = p, k, ok
		case 3, 4, 5: // update-max through the held handle
			v := rng.Uint64n(50) + 1
			open.UpdateMaxProbe(held, v)
			if heldLive {
				ref.UpdateMax(heldKey, v)
			}
		case 6, 7: // evict the minimum
			k1, c1, ok1 := open.EvictMin()
			k2, c2, ok2 := ref.EvictMin()
			if k1 != k2 || c1 != c2 || ok1 != ok2 {
				t.Fatalf("step %d: EvictMin diverged: (%q,%d,%v) vs (%q,%d,%v)",
					step, k1, c1, ok1, k2, c2, ok2)
			}
			if ok1 && k1 == heldKey {
				heldLive = false
			}
		default: // admit when there is room
			k := key()
			if !open.Contains(k) && !open.Full() {
				c := rng.Uint64n(20) + 1
				kb := []byte(k)
				open.InsertHashed(kb, open.Hash(kb), c, 0)
				ref.Insert(k, c, 0)
			}
		}
		if open.Len() != ref.Len() || open.MinCount() != ref.MinCount() {
			t.Fatalf("step %d: state diverged: Len %d vs %d, MinCount %d vs %d",
				step, open.Len(), ref.Len(), open.MinCount(), ref.MinCount())
		}
		if step%1000 == 0 {
			open.CheckInvariants()
			ref.CheckInvariants()
		}
	}
	open.CheckInvariants()
	ref.CheckInvariants()
	assertSameItems(t, open.Items(), ref.Items())
}
