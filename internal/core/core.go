// Package core implements the HeavyKeeper sketch from Yang et al.,
// "HeavyKeeper: An Accurate Algorithm for Finding Top-k Elephant Flows"
// (USENIX ATC 2018; extended in IEEE/ACM ToN).
//
// HeavyKeeper is d arrays of w buckets; each bucket stores a flow
// fingerprint and a counter (§III-B). A packet of flow f maps to one bucket
// per array. If the bucket is empty the flow takes it; if the bucket's
// fingerprint matches, the counter increments; otherwise the counter is
// decayed by one with probability b^-C (count-with-exponential-decay), and a
// counter that reaches zero hands its bucket to the new flow. Mouse flows
// decay away quickly; elephant flows, once resident, are nearly immune
// because b^-C vanishes as C grows.
//
// Three insertion disciplines are provided, matching the paper:
//
//   - Basic (§III-C): every mapped bucket is processed, no top-k feedback.
//   - Parallel (§III-E, Algorithm 1): every mapped bucket is processed
//     independently — implementable in parallel hardware — with
//     Optimization II (selective increment) gated by the caller-supplied
//     min-heap state.
//   - Minimum (§IV, Algorithm 2): at most one bucket is modified per packet
//     (minimum decay), trading the parallel property for accuracy.
//
// # One hash per packet
//
// The hot path hashes the key bytes exactly once (KeyHash). The fingerprint
// and every array index derive from that single 64-bit value by cheap
// register mixing: fp = Mix(fpSeed, h) and, Kirsch–Mitzenmacher style,
// idx_j = reduce(h1 + j·h2, W) with h1 = Mix(h1Seed, h), h2 = Mix(h2Seed, h)|1.
// This matches the paper's hardware variants, which assume a single hash
// unit feeding all d arrays, and removes d of the d+1 key traversals the
// textbook formulation pays. Callers that already hold the key's hash (the
// batch scratch, the sharded router) pass it to the *Hashed entry points so
// nothing is hashed twice.
//
// Buckets live in one contiguous packed []uint64 slab (fingerprint in the
// high 32 bits, counter in the low 32, row-major by array), so each probe is
// a single aligned load with no outer-slice indirection.
//
// The sketch is deliberately single-writer (the paper's model); wrap it for
// concurrent use at a higher layer.
package core

import (
	"errors"
	"fmt"

	"repro/internal/hash"
	"repro/internal/xrand"
)

// Default parameter values, chosen to match the paper's evaluation setup
// (§VI-A): d = 2 arrays, decay base b = 1.08, 16-bit fingerprints.
const (
	DefaultD               = 2
	DefaultB               = 1.08
	DefaultFingerprintBits = 16
	DefaultCounterBits     = 32
	DefaultLargeC          = 50 // §III-F: counter value treated as "too large to decay"
)

// Config parameterizes a Sketch.
type Config struct {
	// D is the number of bucket arrays (hash functions). Default 2.
	D int
	// W is the number of buckets per array. Required, >= 1.
	W int
	// B is the exponential decay base (> 1). Default 1.08.
	B float64
	// Decay optionally overrides the decay probability function. When nil,
	// exponential decay b^-C is used. See decay.go for alternatives
	// (§III-B discusses C^-b and sigmoid-style functions).
	Decay DecayFunc
	// FingerprintBits is the fingerprint width in bits (1..32). Default 16.
	FingerprintBits uint
	// CounterBits is the counter width in bits (1..32) used for saturation
	// and for memory accounting. Default 32.
	CounterBits uint
	// Seed makes all hashing and decay coin flips deterministic.
	Seed uint64
	// ExpandThreshold, when > 0, enables the §III-F auto-expansion: a global
	// counter tracks arrivals that found every mapped bucket occupied by a
	// large counter (>= LargeC); when the counter exceeds the threshold a
	// (d+1)-th array is appended and the counter resets.
	ExpandThreshold uint64
	// MaxArrays caps expansion. 0 means no cap beyond memory.
	MaxArrays int
	// LargeC is the counter value beyond which decay is considered futile
	// for the purpose of the expansion trigger. Default 50.
	LargeC uint32
}

func (c *Config) setDefaults() error {
	if c.D == 0 {
		c.D = DefaultD
	}
	if c.D < 1 {
		return fmt.Errorf("core: D = %d, must be >= 1", c.D)
	}
	if c.W < 1 {
		return fmt.Errorf("core: W = %d, must be >= 1", c.W)
	}
	if c.B == 0 {
		c.B = DefaultB
	}
	if c.B <= 1 {
		return fmt.Errorf("core: B = %v, must be > 1", c.B)
	}
	if c.FingerprintBits == 0 {
		c.FingerprintBits = DefaultFingerprintBits
	}
	if c.FingerprintBits > 32 {
		return fmt.Errorf("core: FingerprintBits = %d, must be <= 32", c.FingerprintBits)
	}
	if c.CounterBits == 0 {
		c.CounterBits = DefaultCounterBits
	}
	if c.CounterBits > 32 {
		return fmt.Errorf("core: CounterBits = %d, must be <= 32", c.CounterBits)
	}
	if c.LargeC == 0 {
		c.LargeC = DefaultLargeC
	}
	if c.MaxArrays != 0 && c.MaxArrays < c.D {
		return fmt.Errorf("core: MaxArrays = %d < D = %d", c.MaxArrays, c.D)
	}
	return nil
}

// A cell is one packed (fingerprint, counter) bucket: fingerprint in the
// high 32 bits, counter in the low 32. A zero counter means empty, so a
// matching increment below saturation is a bare cell+1. Fingerprints are
// remapped away from 0 on creation, but an all-zero cell is the canonical
// empty state.
func packCell(fp, c uint32) uint64 { return uint64(fp)<<32 | uint64(c) }

func cellFP(cell uint64) uint32 { return uint32(cell >> 32) }
func cellC(cell uint64) uint32  { return uint32(cell) }

// Stats counts the sketch's internal events; useful in tests, ablations and
// the EXPERIMENTS write-up.
type Stats struct {
	Packets      uint64 // insertions processed
	Increments   uint64 // case-2 counter increments
	EmptyTakes   uint64 // case-1 takeovers of an empty bucket
	DecayProbes  uint64 // case-3 coin flips attempted
	Decays       uint64 // counters actually decremented
	Replacements uint64 // counters decayed to zero and rebound to a new flow
	Overflows    uint64 // arrivals blocked by d large counters (§III-F)
	Expansions   uint64 // arrays added by auto-expansion
}

// Sketch is a HeavyKeeper. Create one with New.
type Sketch struct {
	cfg  Config
	d    int      // current number of arrays (>= cfg.D; expansion grows it)
	w    uint64   // cfg.W, pre-widened for index reduction
	slab []uint64 // packed cells, row-major: cell (j,i) at slab[j*cfg.W+i]

	// One-hash derivation seeds: the key bytes are hashed once under
	// keySeed; fingerprint and double-hashing increments mix that value
	// under fpSeed / h1Seed / h2Seed.
	keySeed uint64
	h1Seed  uint64
	h2Seed  uint64
	fpSeed  uint64

	rng    *xrand.Xorshift64Star
	decay  decayTable
	maxC   uint32 // counter saturation value
	fpMask uint32
	stats  Stats
	// overflow is the §III-F global counter since the last expansion.
	overflow uint64
	// pos is the per-insert scratch of flat cell positions, one per array;
	// single-writer like the rest of the sketch.
	pos []int
	// scratch backs the batch insert path (batch.go).
	scratch batchScratch
}

// New returns a HeavyKeeper for the given configuration.
func New(cfg Config) (*Sketch, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	decay := tableFor(&cfg)
	sm := xrand.NewSplitMix64(cfg.Seed)
	s := &Sketch{
		cfg:     cfg,
		d:       cfg.D,
		w:       uint64(cfg.W),
		slab:    make([]uint64, cfg.D*cfg.W),
		keySeed: sm.Next(),
		h1Seed:  sm.Next(),
		h2Seed:  sm.Next(),
		fpSeed:  sm.Next(),
		decay:   decay,
		maxC:    uint32((uint64(1) << cfg.CounterBits) - 1),
		fpMask:  uint32((uint64(1) << cfg.FingerprintBits) - 1),
		pos:     make([]int, cfg.D),
	}
	s.rng = xrand.NewXorshift64Star(sm.Next())
	return s, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config) *Sketch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// D returns the current number of arrays (may grow via expansion).
func (s *Sketch) D() int { return s.d }

// W returns the number of buckets per array.
func (s *Sketch) W() int { return s.cfg.W }

// Stats returns a copy of the event counters.
func (s *Sketch) Stats() Stats { return s.stats }

// Config returns the sketch's (defaulted) configuration.
func (s *Sketch) Config() Config { return s.cfg }

// MemoryBytes returns the sketch's logical memory footprint: buckets times
// (fingerprint + counter) bits, the accounting the paper uses in §VI-A.
func (s *Sketch) MemoryBytes() int {
	bits := int(s.cfg.FingerprintBits+s.cfg.CounterBits) * s.cfg.W * s.d
	return (bits + 7) / 8
}

// BucketBytes returns the logical size of one bucket in bytes for the given
// fingerprint/counter widths; the harness uses it to convert byte budgets
// into W.
func BucketBytes(fingerprintBits, counterBits uint) float64 {
	if fingerprintBits == 0 {
		fingerprintBits = DefaultFingerprintBits
	}
	if counterBits == 0 {
		counterBits = DefaultCounterBits
	}
	return float64(fingerprintBits+counterBits) / 8
}

// KeyHash returns the sketch's single 64-bit hash of key, the one pass over
// the key bytes from which the fingerprint and every bucket index derive.
// Callers that route or batch keys compute it once and hand it to the
// *Hashed entry points, keeping the whole stack at one hash per packet.
func (s *Sketch) KeyHash(key []byte) uint64 { return hash.Sum64(s.keySeed, key) }

// KeySeed returns the seed under which KeyHash hashes key bytes. The top-k
// store layer (internal/topk) builds its open-addressed key index with this
// seed so KeyHash values computed here index the store directly — one hash
// per packet across sketch, router and store. The seed is fixed for the
// sketch's lifetime except by snapshot restore (ReadFrom), after which any
// external structure keyed by old KeyHash values must be rebuilt.
func (s *Sketch) KeySeed() uint64 { return s.keySeed }

// locateHash fills s.pos with key's flat cell position in every array,
// derived from the single key hash h, and returns the positions and the
// fingerprint. Indexes follow Kirsch–Mitzenmacher double hashing
// (idx_j = reduce(h1 + j·h2, W)); h2 is forced odd so consecutive arrays
// never collapse onto one stride.
func (s *Sketch) locateHash(h uint64) ([]int, uint32) {
	d := s.d
	if cap(s.pos) < d {
		s.pos = make([]int, d)
	}
	pos := s.pos[:d]
	h1 := hash.Mix(s.h1Seed, h)
	h2 := hash.Mix(s.h2Seed, h) | 1
	base := 0
	for j := range pos {
		pos[j] = base + int(hash.Reduce(h1, s.w))
		h1 += h2
		base += s.cfg.W
	}
	return pos, s.fingerprintOf(h)
}

// fingerprintOf derives the fingerprint from key hash h, remapped away from
// 0, which marks an empty cell.
func (s *Sketch) fingerprintOf(h uint64) uint32 {
	if fp := uint32(hash.Mix(s.fpSeed, h)) & s.fpMask; fp != 0 {
		return fp
	}
	return 1
}

// shouldDecay performs one exponential-decay coin flip for counter value c.
// The zero-probability region — the paper's "regard the probability as 0"
// acceleration — is a single compare against the table's cutoff, with no
// table load and no RNG draw; live counters compare an RNG word against the
// fixed-point threshold (table-free for power-of-two bases).
//
// The draw is deliberately lazy, one rng.Next() per live probe: a
// refill-ahead buffer of pre-generated words was built and measured here
// and came out ~30% slower on the contested-insert microbenchmark — the
// xorshift chain is six register ops the out-of-order core hides under the
// slab cell loads, while a buffer adds L1 traffic, a cursor store-load
// dependency and a bounds check per draw (see doc/performance.md, negative
// results).
func (s *Sketch) shouldDecay(c uint32) bool {
	s.stats.DecayProbes++
	if c == 0 || c >= s.decay.cut {
		return false
	}
	return s.rng.Next() < s.decay.thresholdLive(c)
}

// InsertBasic records one packet of flow key using the basic discipline
// (§III-B/C): all d mapped buckets are processed with no top-k feedback.
// It returns the sketch's estimate for key after the insertion.
func (s *Sketch) InsertBasic(key []byte) uint32 {
	return s.InsertBasicHashed(key, s.KeyHash(key))
}

// InsertBasicHashed is InsertBasic for a caller that precomputed KeyHash.
func (s *Sketch) InsertBasicHashed(key []byte, h uint64) uint32 {
	pos, fp := s.locateHash(h)
	return s.insertBasicAt(pos, fp)
}

// insertBasicAt is the basic discipline: the same case analysis as the
// Parallel discipline with the Optimization II gate permanently open (the
// relationship InsertBasicBatch already exploits), so it delegates rather
// than duplicating the packed-cell switch.
func (s *Sketch) insertBasicAt(pos []int, fp uint32) uint32 {
	return s.insertParallelAt(pos, fp, true, 0)
}

// InsertParallelHashed records one packet of flow key, whose KeyHash is h,
// using the Hardware Parallel discipline (§III-E, Algorithm 1 lines 4–22).
// inHeap and nmin carry the top-k structure's state for Optimization II
// (selective increment): a matching counter is incremented only when the
// flow is already monitored (inHeap) or its counter is still below nmin.
// The return value is Algorithm 1's HeavyK_V: the estimate established by
// this insertion, and 0 if no bucket accepted the flow. The common shape —
// a sketch at the default d = 2 — is located by Locate2 and enters the
// two-cell update body directly.
func (s *Sketch) InsertParallelHashed(key []byte, h uint64, inHeap bool, nmin uint32) uint32 {
	if l, ok := s.Locate2(h); ok {
		return s.insertParallel2At(l.p0, l.p1, l.fp, inHeap, nmin)
	}
	pos, fp := s.locateHash(h)
	return s.insertParallelAt(pos, fp, inHeap, nmin)
}

// Loc2 is a key's placement in a two-array sketch: both flat cell positions
// and the fingerprint, derived once from the KeyHash by Locate2.
type Loc2 struct {
	p0, p1 int
	fp     uint32
}

// Locate2 derives key hash h's placement on the default shape, a sketch
// with d = 2, in registers: the same positions and fingerprint locateHash
// would produce, without the s.pos scratch round-trip. ok is false for
// expanded (d != 2) sketches; their callers take the general locate path.
// The placement stays valid until the next insert, which may expand the
// sketch.
func (s *Sketch) Locate2(h uint64) (l Loc2, ok bool) {
	if s.d != 2 {
		return Loc2{}, false
	}
	h1 := hash.Mix(s.h1Seed, h)
	h2 := hash.Mix(s.h2Seed, h) | 1
	return Loc2{
		p0: int(hash.Reduce(h1, s.w)),
		p1: s.cfg.W + int(hash.Reduce(h1+h2, s.w)),
		fp: s.fingerprintOf(h),
	}, true
}

// Match2 returns the larger counter among l's two cells that hold l's
// fingerprint, or 0 when neither does: the estimate Query would report,
// read without changing anything. A fingerprint is never 0, so an empty
// cell never matches.
func (s *Sketch) Match2(l Loc2) uint32 {
	var c uint32
	if cell := s.slab[l.p0]; cellFP(cell) == l.fp {
		c = cellC(cell)
	}
	if cell := s.slab[l.p1]; cellFP(cell) == l.fp && cellC(cell) > c {
		c = cellC(cell)
	}
	return c
}

// InsertParallel2 is InsertParallelHashed at a placement from Locate2, for a
// caller that inspected the cells (Match2) before deciding the gate.
func (s *Sketch) InsertParallel2(l Loc2, inHeap bool, nmin uint32) uint32 {
	return s.insertParallel2At(l.p0, l.p1, l.fp, inHeap, nmin)
}

// decayContested runs the contested-arm case for the foreign live cell at
// flat position p: one exponential-decay coin flip (§III-B
// count-with-exponential-decay), the decrement, and the takeover when the
// counter reaches zero. It returns this arm's estimate contribution: 1 on a
// takeover, 0 otherwise. The zero-probability region is a single compare
// against the compiled cutoff — no table load, no RNG draw — so a resident
// elephant's bucket costs one branch here; live counters draw exactly one
// RNG word (batch.go's bit-for-bit contract pins the stream, so the draw
// cannot be hoisted or batched; a refill-ahead buffer of pre-generated words
// was also measured ~30% slower than the lazy draw — the xorshift chain is
// six register ops the out-of-order core hides under the slab loads, while
// a buffer adds L1 traffic, a cursor store-load dependency and a bounds
// check per draw; see doc/performance.md, negative results).
func (s *Sketch) decayContested(p int, cell uint64, fp uint32) uint32 {
	c := cellC(cell)
	s.stats.DecayProbes++
	if c < s.decay.cut && s.rng.Next() < s.decay.thresholdLive(c) {
		cell--
		s.stats.Decays++
		if cellC(cell) == 0 {
			cell = packCell(fp, 1)
			s.stats.Replacements++
			s.slab[p] = cell
			return 1
		}
		s.slab[p] = cell
	}
	return 0
}

// insertParallelAt is the Parallel-discipline cell update: the three-way case
// analysis (empty-take / fingerprint-hit / decay-probe) per mapped cell. The
// common shape — the default d = 2 — takes insertParallel2At, which hoists
// both slab loads ahead of the case analysis; d != 2 (expanded sketches)
// walks the general loop. Semantics, statistics and RNG consumption are
// identical between the two shapes and to the single fused switch they
// replace; TestInsertParallelAtMatchesReference pins that.
func (s *Sketch) insertParallelAt(pos []int, fp uint32, inHeap bool, nmin uint32) uint32 {
	if len(pos) == 2 {
		return s.insertParallel2At(pos[0], pos[1], fp, inHeap, nmin)
	}
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
			// Optimization II: if the flow is not monitored and this counter
			// already exceeds nmin, it cannot legitimately belong to the
			// flow (Theorem 1) — leave it untouched. The gate admits
			// C <= nmin so a legitimate flow can reach exactly nmin+1, the
			// value Optimization I's admission rule requires.
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
			if r := s.decayContested(p, cell, fp); est < r {
				est = r
			}
		}
	}
	s.noteBlocked(blocked)
	return est
}

// insertParallel2At is insertParallelAt for the default two-array shape. The
// two flat positions live in disjoint slab rows (locateHash offsets each
// array by W), so the loads are independent and neither case body's store
// can alias the other cell; issuing both loads before any case analysis lets
// them overlap their cache latency instead of serializing behind the first
// cell's branches. The per-cell bodies are the same case analysis as the
// general loop, in the same order, so statistics and the decay RNG stream
// are consumed identically.
func (s *Sketch) insertParallel2At(p0, p1 int, fp uint32, inHeap bool, nmin uint32) uint32 {
	s.stats.Packets++
	cell0 := s.slab[p0]
	cell1 := s.slab[p1]
	var est uint32
	blocked := true

	c := cellC(cell0)
	switch {
	case c == 0:
		s.slab[p0] = packCell(fp, 1)
		s.stats.EmptyTakes++
		blocked = false
		est = 1
	case cellFP(cell0) == fp:
		blocked = false
		if inHeap || c <= nmin {
			if c < s.maxC {
				c++
				s.slab[p0] = cell0 + 1
			}
			s.stats.Increments++
			est = c
		}
	default:
		blocked = c >= s.cfg.LargeC
		s.stats.DecayProbes++
		if c < s.decay.cut && s.rng.Next() < s.decay.thresholdLive(c) {
			cell0--
			s.stats.Decays++
			if cellC(cell0) == 0 {
				cell0 = packCell(fp, 1)
				s.stats.Replacements++
				est = 1
			}
			s.slab[p0] = cell0
		}
	}

	c = cellC(cell1)
	switch {
	case c == 0:
		s.slab[p1] = packCell(fp, 1)
		s.stats.EmptyTakes++
		blocked = false
		if est < 1 {
			est = 1
		}
	case cellFP(cell1) == fp:
		blocked = false
		if inHeap || c <= nmin {
			if c < s.maxC {
				c++
				s.slab[p1] = cell1 + 1
			}
			s.stats.Increments++
			if est < c {
				est = c
			}
		}
	default:
		blocked = blocked && c >= s.cfg.LargeC
		s.stats.DecayProbes++
		if c < s.decay.cut && s.rng.Next() < s.decay.thresholdLive(c) {
			cell1--
			s.stats.Decays++
			if cellC(cell1) == 0 {
				cell1 = packCell(fp, 1)
				s.stats.Replacements++
				if est < 1 {
					est = 1
				}
			}
			s.slab[p1] = cell1
		}
	}

	s.noteBlocked(blocked)
	return est
}

// InsertMinimumHashed records one packet of flow key, whose KeyHash is h,
// using the Software Minimum discipline (§IV, Algorithm 2): at most one
// mapped bucket changes.
//
// Situation 1: a mapped bucket already holds key's fingerprint — increment
// it (subject to Optimization II gating). Situation 2: no match but an empty
// bucket exists — take the first one. Situation 3: all full, no match —
// decay only the smallest mapped counter.
//
// The return value is Algorithm 2's HeavyK_V (0 when nothing was updated).
func (s *Sketch) InsertMinimumHashed(key []byte, h uint64, inHeap bool, nmin uint32) uint32 {
	pos, fp := s.locateHash(h)
	return s.insertMinimumAt(pos, fp, inHeap, nmin)
}

func (s *Sketch) insertMinimumAt(pos []int, fp uint32, inHeap bool, nmin uint32) uint32 {
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
			// Situation 1 (with Optimization II gating as in Algorithm 2
			// line 11): increment only when monitored or not yet past nmin,
			// so an unmonitored flow can reach exactly nmin+1 and qualify
			// for Optimization I's admission rule.
			if inHeap || c <= nmin {
				if c < s.maxC {
					c++
					s.slab[p] = cell + 1
				}
				s.stats.Increments++
				return c
			}
			// Matching but frozen: Algorithm 2 leaves this bucket alone and
			// keeps scanning; the flow may still claim an empty bucket or
			// decay a minimum elsewhere.
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
		// Situation 2: claim the first empty bucket.
		s.slab[firstEmpty] = packCell(fp, 1)
		s.stats.EmptyTakes++
		return 1
	}
	if minPos < 0 {
		// Every mapped bucket matched but was frozen; nothing to do.
		return 0
	}

	// Situation 3: decay the single smallest mapped counter.
	if !matched {
		s.noteBlocked(minCount >= s.cfg.LargeC)
	}
	cell := s.slab[minPos]
	if s.shouldDecay(cellC(cell)) {
		cell--
		s.stats.Decays++
		if cellC(cell) == 0 {
			s.slab[minPos] = packCell(fp, 1)
			s.stats.Replacements++
			return 1
		}
		s.slab[minPos] = cell
	}
	return 0
}

// Query returns the sketch's size estimate for key: the maximum counter
// among mapped buckets whose fingerprint matches (§III-B Query). A flow held
// in no bucket reports 0 — "it is a mouse flow".
func (s *Sketch) Query(key []byte) uint32 {
	return s.QueryHashed(key, s.KeyHash(key))
}

// QueryHashed is Query for a caller that precomputed KeyHash.
func (s *Sketch) QueryHashed(key []byte, h uint64) uint32 {
	pos, fp := s.locateHash(h)
	return s.queryAt(pos, fp)
}

func (s *Sketch) queryAt(pos []int, fp uint32) uint32 {
	var est uint32
	for _, p := range pos {
		cell := s.slab[p]
		if c := cellC(cell); c != 0 && cellFP(cell) == fp && c > est {
			est = c
		}
	}
	return est
}

// noteBlocked implements the §III-F global counter and expansion trigger:
// blocked is true when an arriving flow found every mapped bucket holding a
// foreign fingerprint with a large (>= LargeC) counter.
func (s *Sketch) noteBlocked(blocked bool) {
	if !blocked || s.cfg.ExpandThreshold == 0 {
		return
	}
	s.stats.Overflows++
	s.overflow++
	if s.overflow <= s.cfg.ExpandThreshold {
		return
	}
	if s.cfg.MaxArrays > 0 && s.d >= s.cfg.MaxArrays {
		return
	}
	s.slab = append(s.slab, make([]uint64, s.cfg.W)...)
	s.d++
	s.overflow = 0
	s.stats.Expansions++
}

// ErrCorrupt is returned by decoding when the byte stream is not a valid
// sketch snapshot.
var ErrCorrupt = errors.New("core: corrupt sketch encoding")
