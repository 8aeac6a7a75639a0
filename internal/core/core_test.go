package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

func key(i int) []byte { return []byte(fmt.Sprintf("flow-%d", i)) }

func TestConfigDefaults(t *testing.T) {
	s := MustNew(Config{W: 100})
	cfg := s.Config()
	if cfg.D != DefaultD || cfg.B != DefaultB ||
		cfg.FingerprintBits != DefaultFingerprintBits ||
		cfg.CounterBits != DefaultCounterBits || cfg.LargeC != DefaultLargeC {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{W: 0},
		{W: 10, D: -1},
		{W: 10, B: 0.9},
		{W: 10, B: 1.0},
		{W: 10, FingerprintBits: 33},
		{W: 10, CounterBits: 40},
		{W: 10, D: 4, MaxArrays: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted invalid config", i, cfg)
		}
	}
}

func TestSingleFlowCountsExactly(t *testing.T) {
	// One flow alone in the sketch is never decayed, so every version must
	// count it exactly.
	for _, version := range []string{"basic", "parallel", "minimum"} {
		s := MustNew(Config{W: 64, Seed: 1})
		k := key(7)
		const n = 1000
		for i := 0; i < n; i++ {
			switch version {
			case "basic":
				s.InsertBasic(k)
			case "parallel":
				s.InsertParallelHashed(k, s.KeyHash(k), true, 0)
			case "minimum":
				s.InsertMinimumHashed(k, s.KeyHash(k), true, 0)
			}
		}
		got := s.Query(k)
		switch version {
		case "basic", "parallel":
			if got != n {
				t.Errorf("%s: Query = %d want %d", version, got, n)
			}
		case "minimum":
			// Minimum touches one bucket only; still exact.
			if got != n {
				t.Errorf("%s: Query = %d want %d", version, got, n)
			}
		}
	}
}

func TestQueryUnknownFlowIsZero(t *testing.T) {
	s := MustNew(Config{W: 64, Seed: 1})
	s.InsertBasic(key(1))
	if got := s.Query(key(999)); got != 0 {
		t.Errorf("Query(unknown) = %d want 0 (mouse-flow report)", got)
	}
}

// TestNoOverestimation verifies Theorem 2: with no fingerprint collision,
// the reported size never exceeds the true size. We use 32-bit fingerprints
// over a tiny keyspace so collisions are (with overwhelming probability)
// absent, and check all three disciplines.
func TestNoOverestimation(t *testing.T) {
	for _, version := range []string{"basic", "parallel", "minimum"} {
		t.Run(version, func(t *testing.T) {
			s := MustNew(Config{W: 32, Seed: 42, FingerprintBits: 32})
			truth := map[int]uint32{}
			rng := xrand.NewXorshift64Star(7)
			for i := 0; i < 50000; i++ {
				f := int(rng.Uint64n(rng.Uint64n(300) + 1)) // skewed
				truth[uint32OK(f)]++
				k := key(f)
				switch version {
				case "basic":
					s.InsertBasic(k)
				case "parallel":
					s.InsertParallelHashed(k, s.KeyHash(k), false, math.MaxUint32)
				case "minimum":
					s.InsertMinimumHashed(k, s.KeyHash(k), false, math.MaxUint32)
				}
			}
			for f, n := range truth {
				if got := s.Query(key(f)); got > n {
					t.Errorf("flow %d: estimate %d > true %d (Theorem 2 violated)", f, got, n)
				}
			}
		})
	}
}

func uint32OK(f int) int { return f }

// TestElephantSurvivesMice is the paper's core behavioural claim (§III-B
// Analysis): an elephant flow stays resident and nearly exact even when many
// mouse flows share its buckets.
func TestElephantSurvivesMice(t *testing.T) {
	s := MustNew(Config{W: 16, Seed: 3}) // tiny: heavy collisions guaranteed
	rng := xrand.NewXorshift64Star(11)
	elephant := key(0)
	const n = 20000
	mice := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s.InsertBasic(elephant)
		} else {
			// Each mouse appears about once.
			s.InsertBasic(key(1 + int(rng.Uint64n(5000))))
			mice++
		}
	}
	got := s.Query(elephant)
	want := uint32(n / 2)
	if got == 0 {
		t.Fatal("elephant was evicted entirely")
	}
	if float64(got) < 0.95*float64(want) {
		t.Errorf("elephant estimate %d < 95%% of true %d", got, want)
	}
	if got > want {
		t.Errorf("elephant estimate %d > true %d", got, want)
	}
}

// TestMouseDecaysAway: a flow with one packet mapped to a contested bucket
// should be replaced quickly — the count-with-exponential-decay strategy.
func TestMouseDecaysAway(t *testing.T) {
	s := MustNew(Config{W: 1, D: 1, Seed: 5}) // one bucket: maximal contention
	s.InsertBasic(key(1))
	if got := s.Query(key(1)); got != 1 {
		t.Fatalf("mouse not recorded, Query = %d", got)
	}
	// A stream of a different flow decays the mouse (P = b^-1 ≈ 0.926 per
	// probe) and takes over.
	for i := 0; i < 100; i++ {
		s.InsertBasic(key(2))
	}
	if got := s.Query(key(1)); got != 0 {
		t.Errorf("mouse still resident with count %d after takeover", got)
	}
	if got := s.Query(key(2)); got == 0 {
		t.Error("replacement flow not resident")
	}
}

func TestCounterNeverZeroOnceMapped(t *testing.T) {
	// §III-B: "as long as flows are mapped to a bucket, its counter field
	// will never be 0" — a decay to zero immediately rebinds with C=1.
	s := MustNew(Config{W: 4, D: 1, Seed: 9})
	rng := xrand.NewXorshift64Star(2)
	for i := 0; i < 20000; i++ {
		s.InsertBasic(key(int(rng.Uint64n(50))))
	}
	touched := 0
	for _, cell := range s.slab[:s.cfg.W] {
		if cellFP(cell) != 0 {
			touched++
			if cellC(cell) == 0 {
				t.Error("bucket holds a fingerprint with zero counter")
			}
		}
	}
	if touched == 0 {
		t.Fatal("no buckets were ever occupied")
	}
}

func TestParallelSelectiveIncrement(t *testing.T) {
	// Optimization II: an unmonitored flow's matching counter may grow to
	// exactly nmin+1 and is then frozen.
	s := MustNew(Config{W: 8, Seed: 1})
	k := key(3)
	s.InsertParallelHashed(k, s.KeyHash(k), true, 0) // establish with C=1
	for i := 0; i < 10; i++ {
		s.InsertParallelHashed(k, s.KeyHash(k), false, 1) // gate: C <= 1 allows one increment to 2
	}
	if got := s.Query(k); got != 2 {
		t.Errorf("counter = %d, want frozen at nmin+1 = 2", got)
	}
	// Monitored flows are never gated.
	s.InsertParallelHashed(k, s.KeyHash(k), true, 1)
	if got := s.Query(k); got != 3 {
		t.Errorf("monitored increment failed: counter = %d want 3", got)
	}
	// With a generous nmin the increment proceeds too.
	s.InsertParallelHashed(k, s.KeyHash(k), false, 100)
	if got := s.Query(k); got != 4 {
		t.Errorf("increment under nmin failed: counter = %d want 4", got)
	}
}

func TestMinimumTouchesAtMostOneBucket(t *testing.T) {
	s := MustNew(Config{W: 64, D: 4, Seed: 21})
	rng := xrand.NewXorshift64Star(3)
	// Preload some state.
	for i := 0; i < 5000; i++ {
		k := key(int(rng.Uint64n(500)))
		s.InsertMinimumHashed(k, s.KeyHash(k), true, 0)
	}
	for trial := 0; trial < 2000; trial++ {
		k := key(int(rng.Uint64n(1000)))
		before := s.snapshotBuckets()
		s.InsertMinimumHashed(k, s.KeyHash(k), true, 0)
		changed := 0
		after := s.snapshotBuckets()
		for i := range before {
			if before[i] != after[i] {
				changed++
			}
		}
		if changed > 1 {
			t.Fatalf("InsertMinimumHashed changed %d buckets, want <= 1", changed)
		}
	}
}

func (s *Sketch) snapshotBuckets() []uint64 {
	return append([]uint64(nil), s.slab...)
}

// indexOf returns key's bucket index within array j, for tests that need to
// steer keys onto specific buckets.
func (s *Sketch) indexOf(j int, key []byte) int {
	pos, _ := s.locateHash(s.KeyHash(key))
	return pos[j] - j*s.cfg.W
}

func TestMinimumPrefersEmptyBucket(t *testing.T) {
	// Situation 2: when a mapped bucket is empty the flow must take it
	// rather than decaying anyone.
	s := MustNew(Config{W: 256, D: 2, Seed: 8})
	k := key(1)
	v := s.InsertMinimumHashed(k, s.KeyHash(k), true, 0)
	if v != 1 {
		t.Fatalf("InsertMinimumHashed returned %d want 1", v)
	}
	st := s.Stats()
	if st.EmptyTakes != 1 || st.Decays != 0 {
		t.Errorf("stats = %+v, want exactly one empty take and no decay", st)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := MustNew(Config{W: 2, D: 1, Seed: 4})
	for i := 0; i < 1000; i++ {
		s.InsertBasic(key(i % 50))
	}
	st := s.Stats()
	if st.Packets != 1000 {
		t.Errorf("Packets = %d want 1000", st.Packets)
	}
	if st.DecayProbes == 0 || st.Decays == 0 || st.Replacements == 0 {
		t.Errorf("expected decay activity on a contended sketch, got %+v", st)
	}
}

func TestExpansion(t *testing.T) {
	s := MustNew(Config{
		W: 2, D: 1, Seed: 6,
		ExpandThreshold: 10,
		MaxArrays:       3,
		LargeC:          5,
	})
	// Fill both buckets of the single array with large counters.
	heavyA, heavyB := 0, 0
	for i := 0; i < 1000 && (heavyA == 0 || heavyB == 0); i++ {
		if s.indexOf(0, key(i)) == 0 && heavyA == 0 {
			heavyA = i + 1 // avoid key(0) colliding with sentinel 0
		}
		if s.indexOf(0, key(i)) == 1 && heavyB == 0 {
			heavyB = i + 1
		}
	}
	for i := 0; i < 100; i++ {
		s.InsertBasic(key(heavyA - 1))
		s.InsertBasic(key(heavyB - 1))
	}
	if s.D() != 1 {
		t.Fatalf("premature expansion to %d arrays", s.D())
	}
	// Now hammer with new flows that find only large counters.
	for i := 10000; i < 10400; i++ {
		s.InsertBasic(key(i))
	}
	if s.D() < 2 {
		t.Errorf("expected expansion, still %d arrays (overflows=%d)", s.D(), s.Stats().Overflows)
	}
	if s.D() > 3 {
		t.Errorf("expansion exceeded MaxArrays: %d", s.D())
	}
	if s.Stats().Expansions == 0 {
		t.Error("Expansions stat not recorded")
	}
}

func TestExpansionDisabledByDefault(t *testing.T) {
	s := MustNew(Config{W: 1, D: 1, Seed: 6, LargeC: 2})
	for i := 0; i < 10000; i++ {
		s.InsertBasic(key(i % 3))
	}
	if s.D() != 1 {
		t.Errorf("sketch expanded without ExpandThreshold: D = %d", s.D())
	}
	if s.Stats().Overflows != 0 {
		t.Errorf("overflow counted while expansion disabled: %d", s.Stats().Overflows)
	}
}

func TestCounterSaturation(t *testing.T) {
	s := MustNew(Config{W: 8, CounterBits: 4, Seed: 1}) // max count 15
	k := key(1)
	for i := 0; i < 100; i++ {
		s.InsertBasic(k)
	}
	if got := s.Query(k); got != 15 {
		t.Errorf("saturated counter = %d want 15", got)
	}
}

func TestMemoryBytes(t *testing.T) {
	s := MustNew(Config{W: 1000, D: 2, FingerprintBits: 16, CounterBits: 16})
	if got := s.MemoryBytes(); got != 8000 {
		t.Errorf("MemoryBytes = %d want 8000 (2 arrays × 1000 × 4B)", got)
	}
	if got := BucketBytes(16, 16); got != 4 {
		t.Errorf("BucketBytes(16,16) = %v want 4", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() uint32 {
		s := MustNew(Config{W: 32, Seed: 1234})
		rng := xrand.NewXorshift64Star(99)
		for i := 0; i < 10000; i++ {
			s.InsertBasic(key(int(rng.Uint64n(200))))
		}
		return s.Query(key(5))
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different sketches: %d vs %d", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) *Sketch {
		s := MustNew(Config{W: 32, Seed: seed})
		for i := 0; i < 1000; i++ {
			s.InsertBasic(key(i % 100))
		}
		return s
	}
	a, b := mk(1), mk(2)
	same := true
	for i := 0; i < 100; i++ {
		if a.Query(key(i)) != b.Query(key(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical estimates for 100 flows")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := MustNew(Config{W: 64, Seed: 77})
	rng := xrand.NewXorshift64Star(5)
	for i := 0; i < 20000; i++ {
		s.InsertBasic(key(int(rng.Uint64n(300))))
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	restored := MustNew(Config{W: 64, Seed: 0}) // different seed on purpose
	if _, err := restored.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	for i := 0; i < 300; i++ {
		if a, b := s.Query(key(i)), restored.Query(key(i)); a != b {
			t.Fatalf("flow %d: original %d, restored %d", i, a, b)
		}
	}
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	s := MustNew(Config{W: 8, Seed: 1})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0xff // clobber version
	r := MustNew(Config{W: 8, Seed: 1})
	if _, err := r.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	// Truncated stream.
	r2 := MustNew(Config{W: 8, Seed: 1})
	if _, err := r2.ReadFrom(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Mismatched W.
	r3 := MustNew(Config{W: 16, Seed: 1})
	if _, err := r3.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("snapshot with wrong W accepted")
	}
}

func TestFingerprintStability(t *testing.T) {
	s := MustNew(Config{W: 8, Seed: 1})
	k := key(42)
	fp := s.fingerprint(k)
	if fp == 0 {
		t.Fatal("zero fingerprint emitted")
	}
	for i := 0; i < 100; i++ {
		if s.fingerprint(k) != fp {
			t.Fatal("fingerprint not stable")
		}
	}
	if fp > 0xffff {
		t.Errorf("16-bit fingerprint out of range: %#x", fp)
	}
}

// fingerprint is the sketch's fingerprint for key, as every insert and
// query path derives it.
func (s *Sketch) fingerprint(key []byte) uint32 { return s.fingerprintOf(s.KeyHash(key)) }

func TestFingerprintNeverZero(t *testing.T) {
	s := MustNew(Config{W: 8, Seed: 3})
	for i := 0; i < 100000; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if s.fingerprint(k) == 0 {
			t.Fatalf("fingerprint of %q is zero; zero is reserved for empty buckets", k)
		}
	}
}

func TestFingerprintWidth(t *testing.T) {
	for _, width := range []uint{1, 8, 12, 16, 24, 32} {
		s := MustNew(Config{W: 8, Seed: 3, FingerprintBits: width})
		limit := uint32(1<<width - 1)
		for i := 0; i < 1000; i++ {
			k := []byte(fmt.Sprintf("k%d", i))
			if fp := s.fingerprint(k); fp > limit {
				t.Fatalf("fingerprint %#x exceeds %d-bit width", fp, width)
			}
		}
	}
}

func TestFingerprintCollisionRate(t *testing.T) {
	// With 16-bit fingerprints, two random distinct keys collide with
	// probability ~2^-16. Over 200k pairs we expect ~3; allow up to 20.
	s := MustNew(Config{W: 8, Seed: 77})
	collisions := 0
	const pairs = 200000
	for i := 0; i < pairs; i++ {
		a := s.fingerprint([]byte(fmt.Sprintf("a%d", i)))
		b := s.fingerprint([]byte(fmt.Sprintf("b%d", i)))
		if a == b {
			collisions++
		}
	}
	if collisions > 20 {
		t.Errorf("%d fingerprint collisions in %d pairs; expected ~%d", collisions, pairs, pairs/65536)
	}
}

func BenchmarkInsertBasic(b *testing.B) {
	s := MustNew(Config{W: 4096, Seed: 1})
	keys := makeKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InsertBasic(keys[i&(len(keys)-1)])
	}
}

func BenchmarkInsertParallel(b *testing.B) {
	s := MustNew(Config{W: 4096, Seed: 1})
	keys := makeKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		s.InsertParallelHashed(k, s.KeyHash(k), false, 10)
	}
}

// BenchmarkInsertParallelHit isolates the fingerprint-hit path: one resident
// flow incremented repeatedly, the steady state of a zipfian stream's
// elephants. BenchmarkInsertParallel above is its contested complement
// (uniform keys over a small slab, decay-probe dominated).
func BenchmarkInsertParallelHit(b *testing.B) {
	s := MustNew(Config{W: 4096, Seed: 1})
	k := []byte("elephant-flow")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InsertParallelHashed(k, s.KeyHash(k), true, 10)
	}
}

func BenchmarkInsertMinimum(b *testing.B) {
	s := MustNew(Config{W: 4096, Seed: 1})
	keys := makeKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		s.InsertMinimumHashed(k, s.KeyHash(k), false, 10)
	}
}

func BenchmarkQuery(b *testing.B) {
	s := MustNew(Config{W: 4096, Seed: 1})
	keys := makeKeys(1 << 16)
	for _, k := range keys {
		s.InsertBasic(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(keys[i&(len(keys)-1)])
	}
}

func makeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}
