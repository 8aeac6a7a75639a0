package core

import (
	"testing"

	"repro/internal/hash"
)

// countHashes returns how many key-bytes hashes (hash.Sum64 calls) fn makes.
func countHashes(fn func()) uint64 {
	var n uint64
	hash.CountCalls(&n)
	defer hash.CountCalls(nil)
	fn()
	return n
}

// TestOneHashPerInsert pins the tentpole invariant: every insert discipline,
// the query path and the weighted variants traverse the key bytes exactly
// once. The fingerprint and all d bucket indexes derive from that single
// 64-bit hash.
func TestOneHashPerInsert(t *testing.T) {
	s := MustNew(Config{W: 256, D: 3, Seed: 1})
	k := key(42)
	cases := map[string]func(){
		"InsertBasic":    func() { s.InsertBasic(k) },
		"InsertParallel": func() { s.InsertParallel(k, false, 10) },
		"InsertMinimum":  func() { s.InsertMinimum(k, false, 10) },
		"Query":          func() { s.Query(k) },
		"InsertBasicN":   func() { s.InsertBasicN(k, 3) },
		"InsertParallelN": func() {
			s.InsertParallelN(k, true, 0, 3)
		},
		"InsertMinimumN": func() { s.InsertMinimumN(k, true, 0, 3) },
		"Fingerprint":    func() { s.Fingerprint(k) },
		"KeyHash":        func() { s.KeyHash(k) },
	}
	for name, fn := range cases {
		if got := countHashes(fn); got != 1 {
			t.Errorf("%s: %d key hashes, want exactly 1", name, got)
		}
	}
}

// TestOneHashPerBatchKey: a batch of n keys hashes exactly n times, and the
// *Hashed entry points hash zero times.
func TestOneHashPerBatchKey(t *testing.T) {
	s := MustNew(Config{W: 256, Seed: 2})
	stream := batchStream(1000, 100, 5)
	if got := countHashes(func() { s.AddBatch(stream) }); got != uint64(len(stream)) {
		t.Errorf("AddBatch(%d keys): %d key hashes, want %d", len(stream), got, len(stream))
	}
	k := key(7)
	h := s.KeyHash(k)
	for name, fn := range map[string]func(){
		"InsertBasicHashed":    func() { s.InsertBasicHashed(k, h) },
		"InsertParallelHashed": func() { s.InsertParallelHashed(k, h, true, 0) },
		"InsertMinimumHashed":  func() { s.InsertMinimumHashed(k, h, true, 0) },
		"QueryHashed":          func() { s.QueryHashed(k, h) },
		"InsertBasicNHashed":   func() { s.InsertBasicNHashed(k, h, 2) },
	} {
		if got := countHashes(fn); got != 0 {
			t.Errorf("%s: %d key hashes, want 0 (hash was precomputed)", name, got)
		}
	}
}
