package core

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// batchStream returns a deterministic stream with heavy repetition so every
// insert case (empty take, increment, decay, replacement) is exercised.
func batchStream(npkts, nflows int, seed uint64) [][]byte {
	rng := xrand.NewXorshift64Star(seed)
	stream := make([][]byte, npkts)
	for p := range stream {
		// Square the draw to skew toward low flow indexes.
		i := rng.Uint64n(uint64(nflows))
		i = i * i / uint64(nflows)
		stream[p] = []byte(fmt.Sprintf("flow-%d", i))
	}
	return stream
}

func requireEqualState(t *testing.T, seq, bat *Sketch, keys [][]byte) {
	t.Helper()
	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverge:\nsequential %+v\nbatch      %+v", seq.Stats(), bat.Stats())
	}
	if seq.D() != bat.D() {
		t.Fatalf("array count diverges: %d vs %d", seq.D(), bat.D())
	}
	for _, k := range keys {
		if a, b := seq.Query(k), bat.Query(k); a != b {
			t.Fatalf("Query(%q) diverges: sequential %d, batch %d", k, a, b)
		}
	}
}

// TestAddBatchMatchesSequential verifies the batch path is bit-for-bit
// equivalent to a loop over InsertBasic, across ragged batch sizes that
// straddle the chunk boundary.
func TestAddBatchMatchesSequential(t *testing.T) {
	cfg := Config{W: 64, Seed: 1}
	seq := MustNew(cfg)
	bat := MustNew(cfg)
	stream := batchStream(20_000, 500, 42)

	for _, k := range stream {
		seq.InsertBasic(k)
	}
	for off := 0; off < len(stream); {
		n := 1 + (off*7)%(2*BatchChunk+5) // ragged sizes, some > BatchChunk
		if off+n > len(stream) {
			n = len(stream) - off
		}
		bat.AddBatch(stream[off : off+n])
		off += n
	}
	requireEqualState(t, seq, bat, stream)
}

// TestInsertBasicBatchReportsEstimates verifies the per-key estimates match
// the sequential return values.
func TestInsertBasicBatchReportsEstimates(t *testing.T) {
	cfg := Config{W: 32, Seed: 3}
	seq := MustNew(cfg)
	bat := MustNew(cfg)
	stream := batchStream(5_000, 200, 7)

	want := make([]uint32, len(stream))
	for i, k := range stream {
		want[i] = seq.InsertBasic(k)
	}
	got := make([]uint32, len(stream))
	bat.InsertBasicBatch(stream, func(i int, est uint32) { got[i] = est })
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("estimate %d diverges: sequential %d, batch %d", i, want[i], got[i])
		}
	}
}

// TestInsertParallelBatchMatchesSequential drives both paths with the
// Optimization II gate open and checks full equivalence.
func TestInsertParallelBatchMatchesSequential(t *testing.T) {
	cfg := Config{W: 64, Seed: 9}
	seq := MustNew(cfg)
	bat := MustNew(cfg)
	stream := batchStream(20_000, 500, 1234)

	want := make([]uint32, len(stream))
	for i, k := range stream {
		want[i] = seq.InsertParallel(k, true, 0xffffffff)
	}
	got := make([]uint32, len(stream))
	bat.InsertParallelBatch(stream, nil, func(i int, _ uint64, est uint32) { got[i] = est })
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("estimate %d diverges: sequential %d, batch %d", i, want[i], got[i])
		}
	}
	requireEqualState(t, seq, bat, stream)
}

// TestInsertParallelBatchPrehashed: a caller that already computed KeyHash
// per key (the sharded router) passes the hashes through and gets the exact
// same result as the self-hashing batch.
func TestInsertParallelBatchPrehashed(t *testing.T) {
	cfg := Config{W: 64, Seed: 13}
	self := MustNew(cfg)
	pre := MustNew(cfg)
	stream := batchStream(20_000, 500, 321)

	hashes := make([]uint64, len(stream))
	for i, k := range stream {
		hashes[i] = pre.KeyHash(k)
	}
	self.InsertParallelBatch(stream, nil, nil)
	pre.InsertParallelBatch(stream, hashes, nil)
	requireEqualState(t, self, pre, stream)
}

// TestAddBatchMatchesSequentialPow2 is the batch-equivalence contract over
// the table-free power-of-two decay path: the RNG stream must line up draw
// for draw there too, since the decay cutoff (and therefore which probes
// consume a word) comes from the closed form instead of the table.
func TestAddBatchMatchesSequentialPow2(t *testing.T) {
	cfg := Config{W: 64, Seed: 17, B: 2}
	seq := MustNew(cfg)
	bat := MustNew(cfg)
	stream := batchStream(20_000, 500, 271)

	for _, k := range stream {
		seq.InsertBasic(k)
	}
	bat.AddBatch(stream)
	if seq.Stats().Decays == 0 {
		t.Fatal("stream produced no decays; the pow2 RNG path went unexercised")
	}
	requireEqualState(t, seq, bat, stream)
}

// TestBatchExpansionMidChunk forces §III-F auto-expansion while a batch is
// in flight: arrays appended mid-chunk must be hashed on demand and the
// result must still match the sequential path.
func TestBatchExpansionMidChunk(t *testing.T) {
	cfg := Config{W: 2, Seed: 5, LargeC: 1, ExpandThreshold: 3, MaxArrays: 6}
	seq := MustNew(cfg)
	bat := MustNew(cfg)
	stream := batchStream(10_000, 300, 99)

	for _, k := range stream {
		seq.InsertBasic(k)
	}
	bat.AddBatch(stream)
	if seq.Stats().Expansions == 0 {
		t.Fatalf("test did not trigger expansion; tighten the config")
	}
	requireEqualState(t, seq, bat, stream)
}
