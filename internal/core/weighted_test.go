package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestWeightedEquivalentToUnitWhenOwned(t *testing.T) {
	a := MustNew(Config{W: 64, Seed: 1})
	b := MustNew(Config{W: 64, Seed: 1})
	k := key(5)
	for i := 0; i < 100; i++ {
		a.InsertBasic(k)
	}
	b.InsertBasicNHashed(k, b.KeyHash(k), 100)
	if qa, qb := a.Query(k), b.Query(k); qa != qb {
		t.Errorf("unit loop %d != weighted %d for sole flow", qa, qb)
	}
}

func TestWeightedZeroIsQuery(t *testing.T) {
	s := MustNew(Config{W: 64, Seed: 2})
	k := key(1)
	s.InsertBasicNHashed(k, s.KeyHash(k), 7)
	if got := s.InsertBasicNHashed(k, s.KeyHash(k), 0); got != 7 {
		t.Errorf("weight-0 insert returned %d want 7", got)
	}
	if s.Stats().Packets != 1 {
		t.Errorf("weight-0 insert counted as a packet")
	}
}

func TestWeightedNoOverestimation(t *testing.T) {
	for _, version := range []string{"basic", "parallel", "minimum"} {
		s := MustNew(Config{W: 32, Seed: 7, FingerprintBits: 32})
		truth := map[int]uint64{}
		rng := xrand.NewXorshift64Star(3)
		for i := 0; i < 5000; i++ {
			f := int(rng.Uint64n(rng.Uint64n(200) + 1))
			w := rng.Uint64n(20) + 1
			truth[f] += w
			k := key(f)
			switch version {
			case "basic":
				s.InsertBasicNHashed(k, s.KeyHash(k), w)
			case "parallel":
				s.InsertParallelNHashed(k, s.KeyHash(k), false, math.MaxUint32, w)
			case "minimum":
				s.InsertMinimumNHashed(k, s.KeyHash(k), false, math.MaxUint32, w)
			}
		}
		for f, n := range truth {
			if got := uint64(s.Query(key(f))); got > n {
				t.Errorf("%s: flow %d estimate %d > true %d", version, f, got, n)
			}
		}
	}
}

func TestWeightedElephantSurvives(t *testing.T) {
	s := MustNew(Config{W: 16, Seed: 9})
	rng := xrand.NewXorshift64Star(4)
	var truth uint64
	elephant := key(0)
	for i := 0; i < 5000; i++ {
		if i%2 == 0 {
			w := rng.Uint64n(10) + 1
			truth += w
			s.InsertBasicNHashed(elephant, s.KeyHash(elephant), w)
		} else {
			k := key(1 + int(rng.Uint64n(2000)))
			s.InsertBasicNHashed(k, s.KeyHash(k), rng.Uint64n(3)+1)
		}
	}
	got := uint64(s.Query(key(0)))
	if float64(got) < 0.95*float64(truth) {
		t.Errorf("weighted elephant estimate %d < 95%% of %d", got, truth)
	}
}

func TestWeightedTakeoverKeepsRemainder(t *testing.T) {
	// One bucket with a weak resident (C=1): a huge weighted arrival must
	// take it over and bank nearly all of its weight.
	s := MustNew(Config{W: 1, D: 1, Seed: 11})
	k1, k2 := key(1), key(2)
	s.InsertBasicNHashed(k1, s.KeyHash(k1), 1)
	s.InsertBasicNHashed(k2, s.KeyHash(k2), 1000)
	got := uint64(s.Query(key(2)))
	// The takeover consumes a handful of trials (P(decay at C=1) ≈ 0.926),
	// so at least 900 of the 1000 units must survive.
	if got < 900 || got > 1000 {
		t.Errorf("takeover kept %d of 1000 units", got)
	}
}

func TestWeightedContestEarlyExit(t *testing.T) {
	// A resident beyond the decay table's cutoff cannot be decayed; the
	// trial loop must exit immediately rather than run `weight` iterations.
	s := MustNew(Config{W: 1, D: 1, Seed: 12, B: 4.0}) // tiny table (~32 entries)
	k1 := key(1)
	s.InsertBasicNHashed(k1, s.KeyHash(k1), 100) // resident C=100, beyond b=4 cutoff
	before := s.Stats().DecayProbes
	k2 := key(2)
	s.InsertBasicNHashed(k2, s.KeyHash(k2), 1<<40) // absurd weight must return promptly
	if probes := s.Stats().DecayProbes - before; probes != 0 {
		t.Errorf("early exit failed: %d probes for an undecayable bucket", probes)
	}
	if got := s.Query(k1); got != 100 {
		t.Errorf("resident disturbed: %d", got)
	}
}

func TestWeightedSaturation(t *testing.T) {
	s := MustNew(Config{W: 8, CounterBits: 8, Seed: 1})
	k := key(1)
	s.InsertBasicNHashed(k, s.KeyHash(k), 1_000_000)
	if got := s.Query(key(1)); got != 255 {
		t.Errorf("saturated counter = %d want 255", got)
	}
}

func TestWeightedParallelGate(t *testing.T) {
	s := MustNew(Config{W: 8, Seed: 3})
	k := key(1)
	s.InsertParallelNHashed(k, s.KeyHash(k), true, 0, 5) // owned, C=5
	// Unmonitored with nmin=3: C=5 > 3 ⇒ frozen even for weighted adds.
	s.InsertParallelNHashed(k, s.KeyHash(k), false, 3, 100)
	if got := s.Query(k); got != 5 {
		t.Errorf("gate bypassed: C = %d want 5", got)
	}
	// Monitored: the whole weight lands.
	s.InsertParallelNHashed(k, s.KeyHash(k), true, 3, 100)
	if got := s.Query(k); got != 105 {
		t.Errorf("monitored weighted add: C = %d want 105", got)
	}
}

func TestWeightedMinimumSingleBucket(t *testing.T) {
	s := MustNew(Config{W: 64, D: 4, Seed: 21})
	rng := xrand.NewXorshift64Star(5)
	for i := 0; i < 2000; i++ {
		k := key(int(rng.Uint64n(300)))
		s.InsertMinimumNHashed(k, s.KeyHash(k), true, 0, rng.Uint64n(5)+1)
	}
	for trial := 0; trial < 500; trial++ {
		k := key(int(rng.Uint64n(600)))
		before := s.snapshotBuckets()
		s.InsertMinimumNHashed(k, s.KeyHash(k), true, 0, rng.Uint64n(10)+1)
		after := s.snapshotBuckets()
		changed := 0
		for i := range before {
			if before[i] != after[i] {
				changed++
			}
		}
		if changed > 1 {
			t.Fatalf("InsertMinimumNHashed changed %d buckets", changed)
		}
	}
}

func BenchmarkInsertBasicWeighted(b *testing.B) {
	s := MustNew(Config{W: 4096, Seed: 1})
	keys := makeKeys(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		s.InsertBasicNHashed(k, s.KeyHash(k), 64)
	}
}
