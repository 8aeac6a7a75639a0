package hash

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// TestSum64KnownVectors checks the implementation against the published
// xxHash64 test vectors.
func TestSum64KnownVectors(t *testing.T) {
	cases := []struct {
		seed uint64
		data string
		want uint64
	}{
		{0, "", 0xef46db3751d8e999},
		{0, "a", 0xd24ec4f1a98c6e5b},
		{0, "abc", 0x44bc2cf5ad770999},
		{0, "Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	}
	for _, c := range cases {
		if got := Sum64(c.seed, []byte(c.data)); got != c.want {
			t.Errorf("Sum64(%d, %q) = %#x, want %#x", c.seed, c.data, got, c.want)
		}
	}
}

func TestSum64LongInput(t *testing.T) {
	// Exercise the 32-byte block loop plus every tail length.
	base := make([]byte, 0, 128)
	for i := 0; i < 128; i++ {
		base = append(base, byte(i*7+3))
	}
	seen := make(map[uint64]int)
	for n := 0; n <= 128; n++ {
		h := Sum64(1, base[:n])
		if prev, dup := seen[h]; dup {
			t.Fatalf("lengths %d and %d collide", prev, n)
		}
		seen[h] = n
	}
}

func TestSum64Deterministic(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		return Sum64(seed, data) == Sum64(seed, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSum64SeedSeparation(t *testing.T) {
	// Different seeds should behave like independent functions: over many
	// keys, the fraction mapping to the same bucket under two seeds should
	// be ~1/w.
	const w = 64
	const keys = 20000
	same := 0
	var buf [8]byte
	for i := 0; i < keys; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		a := Sum64(111, buf[:]) % w
		b := Sum64(222, buf[:]) % w
		if a == b {
			same++
		}
	}
	frac := float64(same) / keys
	if math.Abs(frac-1.0/w) > 0.01 {
		t.Errorf("same-bucket fraction = %v, want ~%v", frac, 1.0/w)
	}
}

func TestSum64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 of the 64 output bits.
	var buf [8]byte
	var totalFlips, trials int
	for i := 0; i < 500; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(i)*0x12345)
		h0 := Sum64(7, buf[:])
		for bit := 0; bit < 64; bit++ {
			buf2 := buf
			buf2[bit/8] ^= 1 << (bit % 8)
			h1 := Sum64(7, buf2[:])
			totalFlips += popcount(h0 ^ h1)
			trials++
		}
	}
	mean := float64(totalFlips) / float64(trials)
	if mean < 30 || mean > 34 {
		t.Errorf("avalanche mean = %v output-bit flips, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestSum64Uint64MatchesDistribution(t *testing.T) {
	// Sum64Uint64 is a distinct fast path, not required to equal Sum64 on
	// the encoded bytes, but it must be deterministic and well distributed.
	const w = 32
	counts := make([]int, w)
	for i := 0; i < 32000; i++ {
		counts[Sum64Uint64(5, uint64(i))%w]++
	}
	expected := 32000.0 / w
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 31 dof, 99.9th percentile ~61.1
	if chi2 > 61.1 {
		t.Errorf("chi-squared = %v, fast-path distribution looks non-uniform", chi2)
	}
}

func TestSum64Uint64SeedSeparation(t *testing.T) {
	f := func(key uint64) bool {
		return Sum64Uint64(1, key) != Sum64Uint64(2, key) || key == 0x7fffffffffffffff
	}
	// Not literally impossible to collide, but over quick's default 100
	// samples a collision would indicate broken seed mixing.
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFamilyIndexInRange(t *testing.T) {
	fam := NewFamily(42, 4)
	for w := 1; w <= 100; w += 7 {
		for j := 0; j < 4; j++ {
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("key-%d", i))
				if idx := fam.Index(j, key, w); idx < 0 || idx >= w {
					t.Fatalf("Index(%d, %q, %d) = %d out of range", j, key, w, idx)
				}
			}
		}
	}
}

func TestFamilyArraysIndependent(t *testing.T) {
	fam := NewFamily(9, 2)
	const w = 128
	same := 0
	const keys = 20000
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("flow-%d", i))
		if fam.Index(0, key, w) == fam.Index(1, key, w) {
			same++
		}
	}
	frac := float64(same) / keys
	if math.Abs(frac-1.0/w) > 0.005 {
		t.Errorf("arrays collide on %v of keys, want ~%v", frac, 1.0/w)
	}
}

func TestNewFamilyPanicsOnBadD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFamily(seed, 0) did not panic")
		}
	}()
	NewFamily(1, 0)
}

func TestFamilyDeterministicAcrossConstruction(t *testing.T) {
	a := NewFamily(123, 3)
	b := NewFamily(123, 3)
	key := []byte("determinism")
	for j := 0; j < 3; j++ {
		if a.Index(j, key, 997) != b.Index(j, key, 997) {
			t.Fatalf("family not deterministic for array %d", j)
		}
	}
}

func BenchmarkSum64_8B(b *testing.B) {
	data := []byte("12345678")
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		Sum64(1, data)
	}
}

func BenchmarkSum64_13B(b *testing.B) {
	data := []byte("5-tuple-flow!") // typical 13-byte 5-tuple key
	b.SetBytes(13)
	for i := 0; i < b.N; i++ {
		Sum64(1, data)
	}
}

func BenchmarkSum64Uint64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Sum64Uint64(1, uint64(i))
	}
}
