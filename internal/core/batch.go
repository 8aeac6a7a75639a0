package core

import "repro/internal/hash"

// BatchChunk is the number of keys whose hashes are precomputed at a time by
// the batch insert path. It bounds the scratch footprint — one 64-bit key
// hash per key under the one-hash scheme, so 256 keys is 2 KB, well inside
// L1 — while staying large enough to amortize per-loop setup. Callers
// driving HashBatch themselves chunk by this size.
const BatchChunk = 256

// batchScratch holds the precomputed key hashes for one chunk of keys. It
// lives on the Sketch (which is single-writer by contract) so steady-state
// batch ingestion allocates nothing. Fingerprints and bucket indexes are not
// staged here: both derive from the key hash in registers at apply time,
// which measured faster than staging them through memory (see ROADMAP's
// PR 3 entry), so the scratch is 8 bytes per key.
type batchScratch struct {
	hashes []uint64
}

// HashBatch hashes every key once into the sketch's scratch and returns the
// hash slice, valid until the next HashBatch call. The tight loop loads the
// seed once for the whole batch; this is the batch path's only pass over key
// bytes. Callers pass hashes[i] to the *Hashed entry points.
func (s *Sketch) HashBatch(keys [][]byte) []uint64 {
	b := &s.scratch
	n := len(keys)
	if cap(b.hashes) < n {
		b.hashes = make([]uint64, n)
	}
	hs := b.hashes[:n]
	seed := s.keySeed
	for i, key := range keys {
		hs[i] = hash.Sum64(seed, key)
	}
	b.hashes = hs
	return hs
}

// InsertParallelBatch is InsertParallelHashed over a batch of keys with the
// Optimization II gate open (inHeap = true), which is the basic discipline.
// hashes, when non-nil, must hold KeyHash(keys[i]) for every i (a caller
// that already hashed each key passes them through so nothing is hashed
// twice); when nil the batch hashes each key once itself. report, when
// non-nil, is invoked per key in stream order immediately after that key's
// buckets change. Only hashing is done ahead of time, and hashing depends on
// no mutable state, so the batch is bit-for-bit equivalent to the
// sequential path (including the decay RNG stream, which is consumed lazily
// in probe order either way; pre-generating it per chunk was measured
// slower — see doc/performance.md).
func (s *Sketch) InsertParallelBatch(keys [][]byte, hashes []uint64, report func(i int, h uint64, est uint32)) {
	for off := 0; off < len(keys); off += BatchChunk {
		end := off + BatchChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		var hs []uint64
		if hashes != nil {
			hs = hashes[off:end]
		} else {
			hs = s.HashBatch(chunk)
		}
		for ci, key := range chunk {
			h := hs[ci]
			est := s.InsertParallelHashed(key, h, true, 0xffffffff)
			if report != nil {
				report(off+ci, h, est)
			}
		}
	}
}

// InsertBasicBatch is InsertBasic over a batch of keys, reporting each key's
// post-insertion estimate to report when non-nil.
func (s *Sketch) InsertBasicBatch(keys [][]byte, report func(i int, est uint32)) {
	var rep func(i int, h uint64, est uint32)
	if report != nil {
		rep = func(i int, _ uint64, est uint32) { report(i, est) }
	}
	s.InsertParallelBatch(keys, nil, rep)
}

// AddBatch records one basic-discipline packet per key. It is the
// fire-and-forget batch entry point for callers that use the sketch without
// a top-k structure on top.
func (s *Sketch) AddBatch(keys [][]byte) {
	s.InsertBasicBatch(keys, nil)
}
