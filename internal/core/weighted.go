package core

// Weighted insertion. The paper notes (§III-F) that HeavyKeeper "cannot
// support weighted updates"; this file implements the natural extension
// used by follow-on systems: a weight-w arrival behaves like w unit
// arrivals of the same flow. Owned and empty buckets take the whole weight
// in O(1); a contested bucket runs per-unit decay trials, with an early
// exit once the counter is large enough that the decay probability is
// exactly zero (the same §III-B cutoff as the unit path), so the worst case
// is O(min(w, C)) trials rather than O(w).
//
// Theorem 1 does not survive weighting — a newly admitted flow's estimate
// can exceed n_min+1 by up to w — so the weighted top-k path in
// internal/topk admits on n̂ > n_min instead of Optimization I's equality
// rule.

// addSaturating adds w to c with saturation at the configured counter max.
func (s *Sketch) addSaturating(c uint32, w uint64) uint32 {
	nv := uint64(c) + w
	if nv > uint64(s.maxC) {
		return s.maxC
	}
	return uint32(nv)
}

// contested runs weight decay trials against the foreign cell at flat
// position p. It returns the weight remaining after the cell (possibly)
// reaches zero and is taken over; taken reports whether the takeover
// happened (the cell then holds fp with counter 0, for the caller to top
// up).
func (s *Sketch) contested(p int, fp uint32, weight uint64) (remaining uint64, taken bool) {
	cell := s.slab[p]
	for u := uint64(0); u < weight; u++ {
		th := s.decay.threshold(cellC(cell))
		if th == 0 {
			// Decay probability is exactly zero and the counter can only
			// grow from here; no further trial can change anything.
			s.slab[p] = cell
			return 0, false
		}
		s.stats.DecayProbes++
		if s.rng.Next() < th {
			cell--
			s.stats.Decays++
			if cellC(cell) == 0 {
				s.slab[p] = packCell(fp, 0)
				s.stats.Replacements++
				return weight - u - 1, true
			}
		}
	}
	s.slab[p] = cell
	return 0, false
}

// InsertBasicN records a weight-n arrival of flow key with the basic
// discipline and returns the post-insertion estimate. InsertBasicN(key, 1)
// is equivalent to InsertBasic(key).
func (s *Sketch) InsertBasicN(key []byte, n uint64) uint32 {
	return s.InsertBasicNHashed(key, s.KeyHash(key), n)
}

// InsertBasicNHashed is InsertBasicN for a caller that precomputed KeyHash.
func (s *Sketch) InsertBasicNHashed(key []byte, h uint64, n uint64) uint32 {
	if n == 0 {
		return s.QueryHashed(key, h)
	}
	pos, fp := s.locateHash(h)
	return s.insertBasicNAt(pos, fp, n)
}

func (s *Sketch) insertBasicNAt(pos []int, fp uint32, n uint64) uint32 {
	s.stats.Packets++
	var est uint32
	blocked := true
	for _, p := range pos {
		cell := s.slab[p]
		c := cellC(cell)
		switch {
		case c == 0:
			s.slab[p] = packCell(fp, s.addSaturating(0, n))
			s.stats.EmptyTakes++
			blocked = false
		case cellFP(cell) == fp:
			s.slab[p] = packCell(fp, s.addSaturating(c, n))
			s.stats.Increments++
			blocked = false
		default:
			if c < s.cfg.LargeC {
				blocked = false
			}
			if rem, taken := s.contested(p, fp, n); taken {
				s.slab[p] = packCell(fp, s.addSaturating(1, rem))
			}
		}
		cell = s.slab[p]
		if cellFP(cell) == fp && cellC(cell) > est {
			est = cellC(cell)
		}
	}
	s.noteBlocked(blocked)
	return est
}

// InsertParallelN is the weighted Hardware Parallel insertion. The
// selective-increment gate applies as in the unit path: an unmonitored
// flow's matching counter grows only while at or below nmin, and then by at
// most the weight.
func (s *Sketch) InsertParallelN(key []byte, inHeap bool, nmin uint32, n uint64) uint32 {
	return s.InsertParallelNHashed(key, s.KeyHash(key), inHeap, nmin, n)
}

// InsertParallelNHashed is InsertParallelN for a caller that precomputed
// KeyHash.
func (s *Sketch) InsertParallelNHashed(key []byte, h uint64, inHeap bool, nmin uint32, n uint64) uint32 {
	if n == 0 {
		return s.QueryHashed(key, h)
	}
	pos, fp := s.locateHash(h)
	return s.insertParallelNAt(pos, fp, inHeap, nmin, n)
}

func (s *Sketch) insertParallelNAt(pos []int, fp uint32, inHeap bool, nmin uint32, n uint64) uint32 {
	s.stats.Packets++
	var est uint32
	blocked := true
	for _, p := range pos {
		cell := s.slab[p]
		c := cellC(cell)
		switch {
		case c == 0:
			nc := s.addSaturating(0, n)
			s.slab[p] = packCell(fp, nc)
			s.stats.EmptyTakes++
			blocked = false
			if nc > est {
				est = nc
			}
		case cellFP(cell) == fp:
			blocked = false
			if inHeap || c <= nmin {
				nc := s.addSaturating(c, n)
				s.slab[p] = packCell(fp, nc)
				s.stats.Increments++
				if nc > est {
					est = nc
				}
			}
		default:
			if c < s.cfg.LargeC {
				blocked = false
			}
			if rem, taken := s.contested(p, fp, n); taken {
				nc := s.addSaturating(1, rem)
				s.slab[p] = packCell(fp, nc)
				if nc > est {
					est = nc
				}
			}
		}
	}
	s.noteBlocked(blocked)
	return est
}

// InsertMinimumN is the weighted Software Minimum insertion: at most one
// bucket changes, as in the unit path.
func (s *Sketch) InsertMinimumN(key []byte, inHeap bool, nmin uint32, n uint64) uint32 {
	return s.InsertMinimumNHashed(key, s.KeyHash(key), inHeap, nmin, n)
}

// InsertMinimumNHashed is InsertMinimumN for a caller that precomputed
// KeyHash.
func (s *Sketch) InsertMinimumNHashed(key []byte, h uint64, inHeap bool, nmin uint32, n uint64) uint32 {
	if n == 0 {
		return s.QueryHashed(key, h)
	}
	pos, fp := s.locateHash(h)
	return s.insertMinimumNAt(pos, fp, inHeap, nmin, n)
}

func (s *Sketch) insertMinimumNAt(pos []int, fp uint32, inHeap bool, nmin uint32, n uint64) uint32 {
	s.stats.Packets++

	firstEmpty := -1
	minPos := -1
	var minCount uint32
	matched := false

	for _, p := range pos {
		cell := s.slab[p]
		c := cellC(cell)
		if c != 0 && cellFP(cell) == fp {
			matched = true
			if inHeap || c <= nmin {
				nc := s.addSaturating(c, n)
				s.slab[p] = packCell(fp, nc)
				s.stats.Increments++
				return nc
			}
			continue
		}
		if c == 0 {
			if firstEmpty < 0 {
				firstEmpty = p
			}
			continue
		}
		if minPos < 0 || c < minCount {
			minPos, minCount = p, c
		}
	}

	if firstEmpty >= 0 {
		nc := s.addSaturating(0, n)
		s.slab[firstEmpty] = packCell(fp, nc)
		s.stats.EmptyTakes++
		return nc
	}
	if minPos < 0 {
		return 0
	}
	if !matched {
		s.noteBlocked(minCount >= s.cfg.LargeC)
	}
	if rem, taken := s.contested(minPos, fp, n); taken {
		nc := s.addSaturating(1, rem)
		s.slab[minPos] = packCell(fp, nc)
		return nc
	}
	return 0
}
