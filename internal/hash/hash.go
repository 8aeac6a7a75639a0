// Package hash implements the seeded 64-bit hash family shared by every
// sketch in this repository.
//
// The HeavyKeeper paper (§III-B) requires d hash functions h1..hd that are
// 2-way independent, plus a separate fingerprint hash hf. We provide one
// xxHash64-style function parameterized by a 64-bit seed; the HeavyKeeper
// sketch hashes each key once with Sum64 and derives the d array indexes
// and the fingerprint from that value with Mix under distinct seeds.
// xxHash64 passes SMHasher's avalanche and independence tests, which is
// the practical standard the paper's C++ implementation (BOB hash) also
// relies on.
//
// The package deliberately exposes a tiny surface: Sum64 for one-shot
// hashing, Mix and Reduce for the derive steps, and Family for the "one
// seed in, d independent functions out" pattern.
package hash

import (
	"math/bits"

	"repro/internal/xrand"
)

// xxHash64 prime constants, from the reference specification.
const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
	prime4 uint64 = 0x85ebca77c2b2ae63
	prime5 uint64 = 0x27d4eb2f165667c5
)

// keyHashCount, when non-nil, is incremented on every Sum64 call. It backs
// the one-hash-per-packet regression tests; see CountCalls.
var keyHashCount *uint64

// CountCalls directs Sum64 to increment *c on every invocation until called
// again with nil. It exists so tests can prove hot paths traverse the key
// bytes exactly once per packet. Counting is not synchronized; enable it only
// around single-goroutine sections. The production cost is one load of a
// cached global and a perfectly-predicted branch per call — measured as noise
// next to the hash itself, and accepted so the one-hash invariant stays
// testable from ordinary `go test` without build tags.
func CountCalls(c *uint64) { keyHashCount = c }

// Sum64 returns the 64-bit xxHash64 of data under seed.
func Sum64(seed uint64, data []byte) uint64 {
	if c := keyHashCount; c != nil {
		*c++
	}
	n := len(data)
	var h uint64

	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(data) >= 32 {
			v1 = round(v1, le64(data[0:8]))
			v2 = round(v2, le64(data[8:16]))
			v3 = round(v3, le64(data[16:24]))
			v4 = round(v4, le64(data[24:32]))
			data = data[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}

	h += uint64(n)

	for len(data) >= 8 {
		h ^= round(0, le64(data[0:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
		data = data[8:]
	}
	if len(data) >= 4 {
		h ^= uint64(le32(data[0:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		data = data[4:]
	}
	for _, b := range data {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}

	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Sum64Uint64 hashes a single 64-bit key. It is the fast path for workloads
// whose flow IDs already fit in a word (the synthetic Zipf traces); it mixes
// the key and seed through the xxHash64 finalizer twice, which is enough to
// decorrelate distinct seeds.
func Sum64Uint64(seed, key uint64) uint64 {
	h := seed + prime5 + 8
	h ^= round(0, key)
	h = bits.RotateLeft64(h, 27)*prime1 + prime4
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Mix derives a new 64-bit value from an already well-mixed hash h and a
// seed, via the xxHash64 avalanche finalizer. It is the one-hash hot path's
// derive step: a sketch hashes the key bytes once (Sum64) and then Mixes the
// result under per-purpose seeds to obtain the fingerprint and the
// Kirsch–Mitzenmacher double-hashing increments, instead of re-walking the
// key once per array. Mix is a bijection of h for fixed seed, so it preserves
// the full entropy of the underlying hash.
func Mix(seed, h uint64) uint64 {
	h ^= seed
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Reduce maps a 64-bit hash uniformly onto [0, n) via the high word of the
// 128-bit product (Lemire's fastrange), avoiding the hardware divide a %
// would cost on every packet.
func Reduce(h, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}

func round(acc, input uint64) uint64 {
	acc += input * prime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime1
}

func mergeRound(acc, val uint64) uint64 {
	val = round(0, val)
	acc ^= val
	return acc*prime1 + prime4
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Family is a set of d independently seeded array hash functions, all
// derived from a single master seed, so that experiment seeds propagate
// deterministically (the Cold Filter baseline indexes its counter layers
// through two Families).
type Family struct {
	arraySeeds []uint64
}

// NewFamily derives d array-hash seeds from seed.
func NewFamily(seed uint64, d int) *Family {
	if d < 1 {
		panic("hash: family size must be >= 1")
	}
	sm := xrand.NewSplitMix64(seed)
	f := &Family{arraySeeds: make([]uint64, d)}
	for i := range f.arraySeeds {
		f.arraySeeds[i] = sm.Next()
	}
	return f
}

// Index returns h_j(key) mod w: the bucket index of key in array j.
func (f *Family) Index(j int, key []byte, w int) int {
	return int(Sum64(f.arraySeeds[j], key) % uint64(w))
}
