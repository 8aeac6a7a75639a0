package core

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// insertParallelAtReference is the three-way case switch (empty-take /
// fingerprint-hit / decay-probe) that insertParallelAt replaced with its
// predicated form, kept verbatim as the behavioral oracle. Any change to the
// hot path must stay bit-identical to this — state, statistics, return value
// and RNG consumption.
func insertParallelAtReference(s *Sketch, pos []int, fp uint32, inHeap bool, nmin uint32) uint32 {
	s.stats.Packets++
	var est uint32
	blocked := true
	for _, p := range pos {
		cell := s.slab[p]
		c := cellC(cell)
		switch {
		case c == 0:
			s.slab[p] = packCell(fp, 1)
			s.stats.EmptyTakes++
			blocked = false
			if est < 1 {
				est = 1
			}
		case cellFP(cell) == fp:
			blocked = false
			if inHeap || c <= nmin {
				if c < s.maxC {
					c++
					s.slab[p] = cell + 1
				}
				s.stats.Increments++
				if est < c {
					est = c
				}
			}
		default:
			if c < s.cfg.LargeC {
				blocked = false
			}
			if s.shouldDecay(c) {
				cell--
				s.stats.Decays++
				if cellC(cell) == 0 {
					cell = packCell(fp, 1)
					s.stats.Replacements++
					if est < 1 {
						est = 1
					}
				}
				s.slab[p] = cell
			}
		}
	}
	s.noteBlocked(blocked)
	return est
}

// TestInsertParallelAtMatchesReference drives the predicated insertParallelAt
// and the reference switch over identical streams on twin sketches and
// requires bit-identical slabs, statistics, estimates and RNG positions. The
// configs cover the default base, a table-free power-of-two base, a custom
// decay function, counter saturation (CounterBits: 4 saturates fast) and
// §III-F expansion (which exercises the blocked bookkeeping).
func TestInsertParallelAtMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"default":    {W: 16, Seed: 7},
		"pow2-base":  {W: 16, Seed: 7, B: 2},
		"poly-decay": {W: 16, Seed: 7, Decay: PolyDecay(1.08)},
		"saturating": {W: 8, Seed: 11, CounterBits: 4},
		"expanding":  {W: 4, Seed: 3, LargeC: 2, ExpandThreshold: 5, MaxArrays: 5},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			got := MustNew(cfg)
			want := MustNew(cfg)
			gen := xrand.NewXorshift64Star(99)
			const packets = 30_000
			for i := 0; i < packets; i++ {
				r := gen.Next()
				k := []byte(fmt.Sprintf("flow-%d", r%97))
				inHeap := r&(1<<40) != 0
				nmin := uint32(r>>41) % 19
				g := got.InsertParallel(k, inHeap, nmin)
				pos, fp := want.locateHash(want.KeyHash(k))
				w := insertParallelAtReference(want, pos, fp, inHeap, nmin)
				if g != w {
					t.Fatalf("packet %d (%s): estimate %d, reference %d", i, k, g, w)
				}
			}
			requireEqualState(t, want, got, nil)
			for i := 0; i < len(want.slab); i++ {
				if want.slab[i] != got.slab[i] {
					t.Fatalf("slab[%d] diverges: reference %x, predicated %x", i, want.slab[i], got.slab[i])
				}
			}
			// Equal RNG positions after the fact prove the predicated form
			// consumed exactly one draw per live contested probe, no more.
			if want.rng.Next() != got.rng.Next() {
				t.Fatal("RNG streams diverged: decay draw count differs")
			}
			if cfg.ExpandThreshold != 0 && got.Stats().Expansions == 0 {
				t.Fatal("expanding config did not expand; tighten it")
			}
			if cfg.CounterBits == 4 && got.Stats().Increments < packets/97 {
				t.Fatal("saturating config did not saturate counters")
			}
		})
	}
}
