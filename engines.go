package heavykeeper

import (
	"fmt"

	"repro/internal/css"
	"repro/internal/frequent"
	"repro/internal/hash"
	"repro/internal/heavyguardian"
	"repro/internal/lossycounting"
	"repro/internal/spacesaving"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// Built-in algorithm names. The HeavyKeeper paper's evaluation (§VI) pits
// HeavyKeeper against exactly these competitors; registering them makes the
// whole zoo first-class: selectable from every frontend via WithAlgorithm,
// from hktopk/hkbench via -algo, and covered by the conformance suite.
const (
	// AlgorithmHeavyKeeper is the default: the Hardware Parallel version.
	AlgorithmHeavyKeeper = "heavykeeper"
	// AlgorithmHeavyKeeperMinimum is the Software Minimum version (§IV).
	AlgorithmHeavyKeeperMinimum = "heavykeeper-minimum"
	// AlgorithmHeavyKeeperBasic is the unoptimized basic version (§III-C).
	AlgorithmHeavyKeeperBasic = "heavykeeper-basic"
	// AlgorithmSpaceSaving is Space-Saving (Metwally et al., ICDT 2005).
	AlgorithmSpaceSaving = "spacesaving"
	// AlgorithmCSS is Compact Space-Saving (Ben-Basat et al., INFOCOM 2016).
	AlgorithmCSS = "css"
	// AlgorithmHeavyGuardian is HeavyGuardian (Yang et al., KDD 2018).
	AlgorithmHeavyGuardian = "heavyguardian"
	// AlgorithmFrequent is Misra–Gries Frequent (Demaine et al., ESA 2002).
	AlgorithmFrequent = "frequent"
	// AlgorithmLossyCounting is Lossy Counting (Manku & Motwani, VLDB 2002).
	AlgorithmLossyCounting = "lossycounting"
)

func init() {
	for name, v := range hkVersions {
		RegisterAlgorithm(name, func(cfg EngineConfig) (Engine, error) {
			c := defaultConfig()
			c.memoryBytes, c.seed, c.version = cfg.budget(), cfg.Seed, v
			return newHKEngine(cfg.K, c)
		})
	}
	RegisterAlgorithm(AlgorithmSpaceSaving, func(cfg EngineConfig) (Engine, error) {
		s, err := spacesaving.FromBytesSeeded(cfg.budget(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &ssEngine{s: s}, nil
	})
	RegisterAlgorithm(AlgorithmCSS, func(cfg EngineConfig) (Engine, error) {
		c, err := css.FromBytes(cfg.budget(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &cssEngine{c: c}, nil
	})
	RegisterAlgorithm(AlgorithmHeavyGuardian, func(cfg EngineConfig) (Engine, error) {
		g, err := heavyguardian.FromBytes(cfg.budget(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &hgEngine{g: g}, nil
	})
	RegisterAlgorithm(AlgorithmFrequent, func(cfg EngineConfig) (Engine, error) {
		f, err := frequent.FromBytes(cfg.budget())
		if err != nil {
			return nil, err
		}
		return &freqEngine{f: f, seed: routerSeed(cfg.Seed)}, nil
	})
	RegisterAlgorithm(AlgorithmLossyCounting, func(cfg EngineConfig) (Engine, error) {
		l, err := lossycounting.FromBytes(cfg.budget())
		if err != nil {
			return nil, err
		}
		return &lcEngine{l: l, seed: routerSeed(cfg.Seed)}, nil
	})
}

// routerSeed derives a key-hash seed for engines that do not hash
// internally: they still expose KeyHash so the sharded router (and any
// hash-precomputing caller) treats every engine uniformly.
func routerSeed(seed uint64) uint64 { return xrand.NewSplitMix64(seed).Next() }

// mergeUnsupported is the uniform MergeFrom error of unmergeable engines.
func mergeUnsupported(name string) error {
	return fmt.Errorf("%w: %s", ErrMergeUnsupported, name)
}

// toFlows converts an engine report of (string key, count) pairs to Flows.
func toFlows[E any](items []E, at func(E) (string, uint64)) []Flow {
	out := make([]Flow, len(items))
	for i, e := range items {
		k, c := at(e)
		out[i] = Flow{ID: []byte(k), Count: c}
	}
	return out
}

// --- HeavyKeeper ---

// hkEngine is the HeavyKeeper tracker as an Engine: TopK drives it like any
// other algorithm, and the registry hands it to the harness.
type hkEngine struct {
	t *topk.Tracker
}

// newHKEngine builds the HeavyKeeper tracker a parsed config describes. New
// and the registry both size it here, with the paper's §VI-A rule: a
// k-entry summary plus bucket arrays filling the remaining budget.
func newHKEngine(k int, cfg config) (Engine, error) {
	t, err := topk.New(trackerOptions(k, cfg))
	if err != nil {
		return nil, err
	}
	return &hkEngine{t: t}, nil
}

// hkTracker returns the HeavyKeeper tracker behind e, or nil when e runs
// another algorithm: snapshots, store-index statistics and merges reach
// the tracker through it.
func hkTracker(e Engine) *topk.Tracker {
	if h, ok := e.(*hkEngine); ok {
		return h.t
	}
	return nil
}

// Name is the registry name of the tracker's insertion discipline.
func (e *hkEngine) Name() string {
	switch e.t.Options().Version {
	case topk.Minimum:
		return AlgorithmHeavyKeeperMinimum
	case topk.Basic:
		return AlgorithmHeavyKeeperBasic
	}
	return AlgorithmHeavyKeeper
}

func (e *hkEngine) KeyHash(key []byte) uint64               { return e.t.KeyHash(key) }
func (e *hkEngine) Insert(key []byte)                       { e.t.Insert(key) }
func (e *hkEngine) InsertHashed(key []byte, h uint64)       { e.t.InsertHashed(key, h) }
func (e *hkEngine) InsertN(key []byte, n uint64)            { e.t.InsertN(key, n) }
func (e *hkEngine) InsertNHashed(key []byte, h, n uint64)   { e.t.InsertNHashed(key, h, n) }
func (e *hkEngine) Query(key []byte) uint64                 { return e.t.Query(key) }
func (e *hkEngine) QueryHashed(key []byte, h uint64) uint64 { return e.t.QueryHashed(key, h) }
func (e *hkEngine) MemoryBytes() int                        { return e.t.MemoryBytes() }
func (e *hkEngine) Stats() Stats                            { return e.t.Sketch().Stats() }
func (e *hkEngine) Top(k int) []Flow {
	return toFlows(e.t.Top(), func(en topk.Entry) (string, uint64) { return en.Key, en.Count })
}
func (e *hkEngine) MergeFrom(other Engine) error {
	o := hkTracker(other)
	if o == nil {
		return fmt.Errorf("%w: %s vs %s", ErrMergeMismatch, e.Name(), other.Name())
	}
	if err := e.t.MergeFrom(o); err != nil {
		return fmt.Errorf("%w: %v", ErrMergeMismatch, err)
	}
	return nil
}
func (e *hkEngine) InsertBatchHashed(keys [][]byte, hashes []uint64) {
	if hashes == nil {
		e.t.InsertBatch(keys)
		return
	}
	e.t.InsertBatchHashed(keys, hashes)
}

var _ BatchEngine = (*hkEngine)(nil)

// --- Space-Saving ---

type ssEngine struct {
	s       *spacesaving.SpaceSaving
	packets uint64
}

func (e *ssEngine) Name() string                      { return AlgorithmSpaceSaving }
func (e *ssEngine) KeyHash(key []byte) uint64         { return e.s.KeyHash(key) }
func (e *ssEngine) Insert(key []byte)                 { e.packets++; e.s.Insert(key) }
func (e *ssEngine) InsertHashed(key []byte, h uint64) { e.packets++; e.s.InsertHashed(key, h) }
func (e *ssEngine) InsertN(key []byte, n uint64)      { e.packets += n; e.s.InsertN(key, n) }
func (e *ssEngine) InsertNHashed(key []byte, h, n uint64) {
	e.packets += n
	e.s.InsertNHashed(key, h, n)
}
func (e *ssEngine) Query(key []byte) uint64                 { return e.s.Estimate(key) }
func (e *ssEngine) QueryHashed(key []byte, h uint64) uint64 { return e.s.EstimateHashed(key, h) }
func (e *ssEngine) MemoryBytes() int                        { return e.s.MemoryBytes() }
func (e *ssEngine) Stats() Stats                            { return Stats{Packets: e.packets} }
func (e *ssEngine) MergeFrom(Engine) error                  { return mergeUnsupported(AlgorithmSpaceSaving) }
func (e *ssEngine) Top(k int) []Flow {
	return toFlows(e.s.Top(k), func(en spacesaving.Entry) (string, uint64) { return en.Key, en.Count })
}

// InsertBatchHashed routes batches to Space-Saving's grouped-probe batch
// path (hash chunk, prefetch home slots, apply in stream order).
func (e *ssEngine) InsertBatchHashed(keys [][]byte, hashes []uint64) {
	e.packets += uint64(len(keys))
	e.s.InsertBatchHashed(keys, hashes)
}

var _ BatchEngine = (*ssEngine)(nil)

// --- Compact Space-Saving ---

type cssEngine struct {
	c       *css.CSS
	packets uint64
}

func (e *cssEngine) Name() string                      { return AlgorithmCSS }
func (e *cssEngine) KeyHash(key []byte) uint64         { return e.c.KeyHash(key) }
func (e *cssEngine) Insert(key []byte)                 { e.packets++; e.c.Insert(key) }
func (e *cssEngine) InsertHashed(key []byte, h uint64) { e.packets++; e.c.InsertHashed(key, h) }
func (e *cssEngine) InsertN(key []byte, n uint64)      { e.packets += n; e.c.InsertN(key, n) }
func (e *cssEngine) InsertNHashed(key []byte, h, n uint64) {
	e.packets += n
	e.c.InsertNHashed(key, h, n)
}
func (e *cssEngine) Query(key []byte) uint64                 { return e.c.Estimate(key) }
func (e *cssEngine) QueryHashed(key []byte, h uint64) uint64 { return e.c.EstimateHashed(key, h) }
func (e *cssEngine) MemoryBytes() int                        { return e.c.MemoryBytes() }
func (e *cssEngine) Stats() Stats                            { return Stats{Packets: e.packets} }
func (e *cssEngine) MergeFrom(Engine) error                  { return mergeUnsupported(AlgorithmCSS) }
func (e *cssEngine) Top(k int) []Flow {
	return toFlows(e.c.Top(k), func(en css.Entry) (string, uint64) { return en.Key, en.Count })
}

// InsertBatchHashed routes batches to CSS's grouped-probe batch path
// (stage fingerprints per chunk, prefetch home slots, apply in stream order).
func (e *cssEngine) InsertBatchHashed(keys [][]byte, hashes []uint64) {
	e.packets += uint64(len(keys))
	e.c.InsertBatchHashed(keys, hashes)
}

var _ BatchEngine = (*cssEngine)(nil)

// --- HeavyGuardian ---

type hgEngine struct {
	g       *heavyguardian.Guardian
	packets uint64
}

func (e *hgEngine) Name() string                      { return AlgorithmHeavyGuardian }
func (e *hgEngine) KeyHash(key []byte) uint64         { return e.g.KeyHash(key) }
func (e *hgEngine) Insert(key []byte)                 { e.packets++; e.g.Insert(key) }
func (e *hgEngine) InsertHashed(key []byte, h uint64) { e.packets++; e.g.InsertHashed(key, h) }
func (e *hgEngine) InsertN(key []byte, n uint64)      { e.packets += n; e.g.InsertN(key, n) }
func (e *hgEngine) InsertNHashed(key []byte, h, n uint64) {
	e.packets += n
	e.g.InsertNHashed(key, h, n)
}
func (e *hgEngine) Query(key []byte) uint64                 { return e.g.Estimate(key) }
func (e *hgEngine) QueryHashed(key []byte, h uint64) uint64 { return e.g.EstimateHashed(key, h) }
func (e *hgEngine) MemoryBytes() int                        { return e.g.MemoryBytes() }
func (e *hgEngine) Stats() Stats                            { return Stats{Packets: e.packets} }
func (e *hgEngine) MergeFrom(Engine) error                  { return mergeUnsupported(AlgorithmHeavyGuardian) }
func (e *hgEngine) Top(k int) []Flow {
	return toFlows(e.g.Top(k), func(en heavyguardian.Entry) (string, uint64) { return en.Key, en.Count })
}

// InsertBatchHashed routes batches to HeavyGuardian's grouped-probe batch
// path (stage bucket indexes per chunk, apply in stream order).
func (e *hgEngine) InsertBatchHashed(keys [][]byte, hashes []uint64) {
	e.packets += uint64(len(keys))
	e.g.InsertBatchHashed(keys, hashes)
}

var _ BatchEngine = (*hgEngine)(nil)

// --- Frequent (Misra–Gries) ---

// freqEngine tracks by full key in a Go map; KeyHash exists purely for the
// router contract (the engine itself never hashes), so Insert stays
// hash-free and InsertHashed discards the value.
type freqEngine struct {
	f       *frequent.Frequent
	seed    uint64
	packets uint64
}

func (e *freqEngine) Name() string                          { return AlgorithmFrequent }
func (e *freqEngine) KeyHash(key []byte) uint64             { return hash.Sum64(e.seed, key) }
func (e *freqEngine) Insert(key []byte)                     { e.packets++; e.f.Insert(key) }
func (e *freqEngine) InsertHashed(key []byte, _ uint64)     { e.Insert(key) }
func (e *freqEngine) InsertN(key []byte, n uint64)          { e.packets += n; e.f.InsertN(key, n) }
func (e *freqEngine) InsertNHashed(key []byte, _, n uint64) { e.InsertN(key, n) }
func (e *freqEngine) Query(key []byte) uint64               { return e.f.Estimate(key) }
func (e *freqEngine) QueryHashed(key []byte, _ uint64) uint64 {
	return e.f.Estimate(key)
}
func (e *freqEngine) MemoryBytes() int       { return e.f.MemoryBytes() }
func (e *freqEngine) Stats() Stats           { return Stats{Packets: e.packets} }
func (e *freqEngine) MergeFrom(Engine) error { return mergeUnsupported(AlgorithmFrequent) }
func (e *freqEngine) Top(k int) []Flow {
	return toFlows(e.f.Top(k), func(en frequent.Entry) (string, uint64) { return en.Key, en.Count })
}

// --- Lossy Counting ---

type lcEngine struct {
	l       *lossycounting.LossyCounting
	seed    uint64
	packets uint64
}

func (e *lcEngine) Name() string                          { return AlgorithmLossyCounting }
func (e *lcEngine) KeyHash(key []byte) uint64             { return hash.Sum64(e.seed, key) }
func (e *lcEngine) Insert(key []byte)                     { e.packets++; e.l.Insert(key) }
func (e *lcEngine) InsertHashed(key []byte, _ uint64)     { e.Insert(key) }
func (e *lcEngine) InsertN(key []byte, n uint64)          { e.packets += n; e.l.InsertN(key, n) }
func (e *lcEngine) InsertNHashed(key []byte, _, n uint64) { e.InsertN(key, n) }
func (e *lcEngine) Query(key []byte) uint64               { return e.l.Estimate(key) }
func (e *lcEngine) QueryHashed(key []byte, _ uint64) uint64 {
	return e.l.Estimate(key)
}
func (e *lcEngine) MemoryBytes() int {
	// LC's live footprint fluctuates; report the provisioned 1/ε entries,
	// the same accounting the harness used before the registry existed.
	return int(1/e.l.Epsilon()) * lossycounting.BytesPerEntry
}
func (e *lcEngine) Stats() Stats           { return Stats{Packets: e.packets} }
func (e *lcEngine) MergeFrom(Engine) error { return mergeUnsupported(AlgorithmLossyCounting) }
func (e *lcEngine) Top(k int) []Flow {
	return toFlows(e.l.Top(k), func(en lossycounting.Entry) (string, uint64) { return en.Key, en.Count })
}
