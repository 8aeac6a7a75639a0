package core

import "fmt"

// hashCompatible reports whether two sketches place flows identically and
// encode cells the same way: same derivation seeds, and same fingerprint
// and counter widths (a fingerprint masked to another width never matches,
// and a wider counter would land above the receiver's saturation value).
func (s *Sketch) hashCompatible(other *Sketch) bool {
	return s.keySeed == other.keySeed && s.h1Seed == other.h1Seed &&
		s.h2Seed == other.h2Seed && s.fpSeed == other.fpSeed &&
		s.cfg.FingerprintBits == other.cfg.FingerprintBits &&
		s.cfg.CounterBits == other.cfg.CounterBits
}

// Merge folds other into s, bucket by bucket. Both sketches must share the
// same configuration and seeds (i.e. be constructed with identical Config
// including Seed, or restored from snapshots of such sketches) so that a
// flow maps to the same buckets in both; Merge returns an error otherwise.
//
// Merging is the network-wide pattern of the paper's footnote 2: each
// switch runs its own HeavyKeeper over its share of the traffic and a
// collector folds them per epoch. The merge rule per bucket pair:
//
//   - both empty → empty;
//   - one occupied → copy it;
//   - same fingerprint → counters add (the flow's packets were split
//     across the two measurement points), saturating;
//   - different fingerprints → the larger counter wins and the smaller is
//     subtracted from it, mirroring what exponential decay would have done
//     had the two streams been interleaved (the standard merge rule for
//     majority-style counters).
//
// The result is an over-approximation-free summary of the combined stream:
// a merged counter never exceeds the flow's total count across both inputs
// (each input obeys Theorem 2 and both rules only add counts attributed to
// the same fingerprint or shrink them).
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("core: merge with nil sketch")
	}
	if s.d != other.d || s.cfg.W != other.cfg.W {
		return fmt.Errorf("core: merge shape mismatch: %dx%d vs %dx%d",
			s.d, s.cfg.W, other.d, other.cfg.W)
	}
	if !s.hashCompatible(other) {
		return fmt.Errorf("core: merge hash-seed or cell-width mismatch")
	}
	for i, b := range other.slab {
		a := s.slab[i]
		ac, bc := cellC(a), cellC(b)
		switch {
		case bc == 0:
			// Nothing to fold in.
		case ac == 0:
			s.slab[i] = b
		case cellFP(a) == cellFP(b):
			s.slab[i] = packCell(cellFP(a), s.addSaturating(ac, uint64(bc)))
		case bc > ac:
			s.slab[i] = packCell(cellFP(b), bc-ac)
		default:
			ac -= bc
			if ac == 0 {
				// Contest ended in a tie; the bucket returns to empty.
				s.slab[i] = 0
			} else {
				s.slab[i] = packCell(cellFP(a), ac)
			}
		}
	}
	return nil
}
