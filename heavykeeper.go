// Package heavykeeper finds the top-k elephant flows in a packet or item
// stream using the HeavyKeeper sketch (Yang, Zhang, Li, Gong, Uhlig, Chen,
// Li — USENIX ATC 2018 / IEEE-ACM ToN).
//
// HeavyKeeper keeps d small bucket arrays of (fingerprint, counter) pairs
// and applies count-with-exponential-decay: a packet that collides with a
// resident flow decays the resident's counter with probability b^-C, so
// mouse flows wash out while elephant flows become effectively permanent.
// A k-entry summary on top yields the top-k report. The structure uses a
// fixed, small memory budget (tens of KB for 99%+ precision on
// 10M-packet traces) with constant per-packet work.
//
// Quick start:
//
//	tk, err := heavykeeper.New(100, heavykeeper.WithMemory(64<<10))
//	if err != nil { ... }
//	for _, pkt := range packets {
//	    tk.Add(pkt.FlowID)
//	}
//	for f := range tk.All() {
//	    fmt.Printf("%x %d\n", f.ID, f.Count)
//	}
//
// New returns a Summarizer; every deployment shape implements that one
// interface. A plain *TopK is not safe for concurrent use; WithShards
// fans flows across per-core shards by flow hash, with per-shard locks and
// a batched ingest path (AddBatch), for pipelines that need to scale with
// cores; WithConcurrency is its one-shard form, one structure behind a
// single mutex, for modest multi-goroutine loads.
//
// The backing algorithm is pluggable: WithAlgorithm selects any engine in
// the registry (Space-Saving, CSS, HeavyGuardian, Frequent, Lossy Counting,
// or a user-registered one) behind the same Summarizer surface, with
// HeavyKeeper the default.
package heavykeeper

import (
	"fmt"
	"iter"

	"repro/internal/core"
	"repro/internal/streamsummary"
	"repro/internal/topk"
)

// Version selects the insertion discipline described in the paper.
type Version int

const (
	// VersionParallel is the Hardware Parallel version (paper §III-E):
	// per-array operations are independent, suiting hardware pipelines.
	// This is the default.
	VersionParallel Version = iota
	// VersionMinimum is the Software Minimum version (paper §IV): at most
	// one bucket changes per packet, improving accuracy under tight memory
	// at the cost of the parallel property.
	VersionMinimum
	// VersionBasic is the unoptimized basic version (paper §III-C), kept
	// for completeness and ablations.
	VersionBasic
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case VersionParallel:
		return "parallel"
	case VersionMinimum:
		return "minimum"
	case VersionBasic:
		return "basic"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// Flow is one reported flow.
type Flow struct {
	// ID is the flow identifier as supplied to Add.
	ID []byte
	// Count is the estimated flow size. HeavyKeeper estimates never exceed
	// the true size (paper Theorem 2), barring the rare fingerprint
	// collision, which the admission filter suppresses. Other algorithms
	// carry their own estimate disciplines (Space-Saving never
	// under-estimates, Frequent never over-estimates, ...).
	Count uint64
}

// config collects the options.
type config struct {
	memoryBytes     int
	width           int
	depth           int
	decayBase       float64
	fingerprintBits uint
	version         Version
	versionSet      bool
	seed            uint64
	expandThreshold uint64
	maxArrays       int
	shards          int
	concurrent      bool
	algorithm       string
	// hkOnly names the HeavyKeeper-specific options that were given, so a
	// non-HeavyKeeper WithAlgorithm can reject them instead of silently
	// ignoring knobs that do not exist on the selected engine.
	hkOnly []string
}

// defaultConfig returns the config New starts from before options apply.
func defaultConfig() config {
	return config{
		depth:           core.DefaultD,
		decayBase:       core.DefaultB,
		fingerprintBits: core.DefaultFingerprintBits,
	}
}

// Option configures New.
type Option func(*config) error

// WithMemory sizes the structure from a total byte budget: k summary
// entries plus bucket arrays filling the remainder, the sizing used in the
// paper's evaluation. Mutually exclusive with WithWidth. For registry
// algorithms the budget feeds the engine's own §VI-A sizing rule.
func WithMemory(bytes int) Option {
	return func(c *config) error {
		if bytes < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidMemory, bytes)
		}
		c.memoryBytes = bytes
		return nil
	}
}

// WithWidth sets the bucket count per array directly.
func WithWidth(w int) Option {
	return func(c *config) error {
		if w < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidWidth, w)
		}
		c.width = w
		c.hkOnly = append(c.hkOnly, "WithWidth")
		return nil
	}
}

// WithDepth sets the number of bucket arrays d (default 2).
func WithDepth(d int) Option {
	return func(c *config) error {
		if d < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidDepth, d)
		}
		c.depth = d
		c.hkOnly = append(c.hkOnly, "WithDepth")
		return nil
	}
}

// WithDecayBase sets the exponential decay base b (default 1.08). Larger
// bases evict residents more aggressively.
func WithDecayBase(b float64) Option {
	return func(c *config) error {
		if b <= 1 {
			return fmt.Errorf("%w: got %v", ErrInvalidDecayBase, b)
		}
		c.decayBase = b
		c.hkOnly = append(c.hkOnly, "WithDecayBase")
		return nil
	}
}

// WithFingerprintBits sets the fingerprint width (default 16).
func WithFingerprintBits(bits uint) Option {
	return func(c *config) error {
		if bits == 0 || bits > 32 {
			return fmt.Errorf("%w: got %d", ErrInvalidFingerprintBits, bits)
		}
		c.fingerprintBits = bits
		c.hkOnly = append(c.hkOnly, "WithFingerprintBits")
		return nil
	}
}

// WithVersion selects the insertion discipline (default VersionParallel).
func WithVersion(v Version) Option {
	return func(c *config) error {
		switch v {
		case VersionParallel, VersionMinimum, VersionBasic:
			c.version = v
			c.versionSet = true
			c.hkOnly = append(c.hkOnly, "WithVersion")
			return nil
		default:
			return fmt.Errorf("%w: got %d", ErrInvalidVersion, int(v))
		}
	}
}

// WithSeed makes hashing and decay deterministic for reproducible runs.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithExpansion enables the paper's §III-F auto-expansion: after threshold
// arrivals that found every mapped bucket saturated by a large counter, an
// additional bucket array is appended (up to maxArrays; 0 = unlimited).
func WithExpansion(threshold uint64, maxArrays int) Option {
	return func(c *config) error {
		if threshold == 0 {
			return ErrInvalidExpansion
		}
		c.expandThreshold = threshold
		c.maxArrays = maxArrays
		c.hkOnly = append(c.hkOnly, "WithExpansion")
		return nil
	}
}

// WithShards makes New return a *Sharded with n shards. Mutually exclusive
// with WithConcurrency.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidShards, n)
		}
		c.shards = n
		return nil
	}
}

// WithConcurrency makes New return a one-shard *Sharded: the structure
// behind a single mutex, safe for modest multi-goroutine loads. It is
// WithShards(1), and mutually exclusive with WithShards.
func WithConcurrency() Option {
	return func(c *config) error {
		c.concurrent = true
		return nil
	}
}

// WithAlgorithm selects the backing algorithm by registry name (default
// "heavykeeper"). Any registered engine works under any frontend; see
// Algorithms for the available names and RegisterAlgorithm to add one.
// HeavyKeeper-specific options (WithWidth, WithDepth, WithDecayBase,
// WithFingerprintBits, WithVersion, WithExpansion) conflict with
// non-HeavyKeeper algorithms.
func WithAlgorithm(name string) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("%w: empty name", ErrUnknownAlgorithm)
		}
		c.algorithm = name
		return nil
	}
}

// DefaultMemory is the byte budget used when neither WithMemory nor
// WithWidth is given: 64 KB, comfortably above the paper's highest-accuracy
// operating point for k = 100 on 10M-packet traces.
const DefaultMemory = 64 << 10

// TopK tracks the k largest flows of a stream. It is the single-goroutine
// frontend of the package; New returns one unless WithConcurrency or
// WithShards asks for a synchronized shape. Every algorithm, HeavyKeeper
// included, runs behind its registry Engine.
type TopK struct {
	eng Engine
	k   int
	// seed is the WithSeed value; a one-shard Sharded wrapping this TopK
	// derives its shard seed from it.
	seed uint64
}

// parseConfig validates k and folds the options into a config.
func parseConfig(k int, opts []Option) (config, error) {
	if k < 1 {
		return config{}, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return config{}, err
		}
	}
	if cfg.width != 0 && cfg.memoryBytes != 0 {
		return config{}, fmt.Errorf("%w: WithWidth and WithMemory are mutually exclusive", ErrOptionConflict)
	}
	if cfg.shards != 0 && cfg.concurrent {
		return config{}, fmt.Errorf("%w: WithShards and WithConcurrency are mutually exclusive", ErrOptionConflict)
	}
	if cfg.concurrent {
		cfg.shards = 1
	}
	if !isHeavyKeeperAlgorithm(cfg.algorithm) && len(cfg.hkOnly) > 0 {
		return config{}, fmt.Errorf("%w: %v do not apply to algorithm %q",
			ErrOptionConflict, cfg.hkOnly, cfg.algorithm)
	}
	// The versioned algorithm names carry their discipline; an explicit
	// WithVersion that disagrees is a conflict, never a silent override.
	if v, ok := hkVersions[cfg.algorithm]; ok && cfg.algorithm != AlgorithmHeavyKeeper {
		if cfg.versionSet && v != cfg.version {
			return config{}, fmt.Errorf("%w: WithVersion(%v) vs WithAlgorithm(%q)",
				ErrOptionConflict, cfg.version, cfg.algorithm)
		}
		cfg.version = v
	}
	return cfg, nil
}

// hkVersions maps each HeavyKeeper algorithm name to its insertion
// discipline.
var hkVersions = map[string]Version{
	AlgorithmHeavyKeeper:        VersionParallel,
	AlgorithmHeavyKeeperMinimum: VersionMinimum,
	AlgorithmHeavyKeeperBasic:   VersionBasic,
}

// isHeavyKeeperAlgorithm reports whether name selects the HeavyKeeper
// tracker (the empty name is the default HeavyKeeper).
func isHeavyKeeperAlgorithm(name string) bool {
	_, ok := hkVersions[name]
	return ok || name == ""
}

// sizeWidth converts the config's byte budget into a per-array bucket count:
// k summary entries plus bucket arrays filling the remainder, the sizing
// used in the paper's evaluation.
func sizeWidth(k int, cfg config) int {
	if cfg.width != 0 {
		return cfg.width
	}
	budget := cfg.memoryBytes
	if budget == 0 {
		budget = DefaultMemory
	}
	rest := budget - k*streamsummary.BytesPerEntry
	bucketBytes := core.BucketBytes(cfg.fingerprintBits, core.DefaultCounterBits)
	width := int(float64(rest) / (float64(cfg.depth) * bucketBytes))
	if width < 1 {
		width = 1
	}
	return width
}

// trackerOptions translates a parsed config into the internal tracker
// options; newHKEngine and the windowed wrapper share it so one
// translation rule covers both deployment shapes.
func trackerOptions(k int, cfg config) topk.Options {
	width := sizeWidth(k, cfg)
	var v topk.Version
	switch cfg.version {
	case VersionParallel:
		v = topk.Parallel
	case VersionMinimum:
		v = topk.Minimum
	case VersionBasic:
		v = topk.Basic
	}
	return topk.Options{
		K:       k,
		Version: v,
		Sketch: core.Config{
			D:               cfg.depth,
			W:               width,
			B:               cfg.decayBase,
			FingerprintBits: cfg.fingerprintBits,
			Seed:            cfg.seed,
			ExpandThreshold: cfg.expandThreshold,
			MaxArrays:       cfg.maxArrays,
		},
	}
}

// newTopK builds a TopK from a parsed config: the HeavyKeeper engine for
// the HeavyKeeper algorithm family, a registry engine otherwise.
func newTopK(k int, cfg config) (*TopK, error) {
	var eng Engine
	var err error
	if isHeavyKeeperAlgorithm(cfg.algorithm) {
		eng, err = newHKEngine(k, cfg)
	} else {
		eng, err = BuildEngine(cfg.algorithm, EngineConfig{
			K:           k,
			MemoryBytes: cfg.memoryBytes,
			Seed:        cfg.seed,
		})
	}
	if err != nil {
		return nil, err
	}
	return &TopK{eng: eng, k: k, seed: cfg.seed}, nil
}

// Add records one occurrence of flowID (one packet of the flow).
func (t *TopK) Add(flowID []byte) { t.eng.Insert(flowID) }

// AddString is Add for string identifiers. The string is not copied: the
// ingest path reads the bytes once and materializes its own copy only on
// actual admission of a new flow, so the hot path stays allocation-free.
func (t *TopK) AddString(flowID string) { t.Add(bytesOf(flowID)) }

// AddBatch records one occurrence of every flow identifier in flowIDs,
// equivalently to calling Add on each in order but cheaper: fingerprints and
// bucket indexes are precomputed for a chunk of identifiers at a time in
// tight per-array loops, amortizing hash setup and bounds checks. Use it
// whenever arrivals are already buffered (NIC batches, channel drains,
// Sharded ingest). Registry engines without a batched path fall back to a
// per-key loop.
func (t *TopK) AddBatch(flowIDs [][]byte) { t.addBatchHashed(flowIDs, nil) }

// addBatchHashed is AddBatch with each key's precomputed KeyHash, for the
// sharded router; nil hashes means the engine hashes each key itself.
func (t *TopK) addBatchHashed(flowIDs [][]byte, hashes []uint64) {
	if b, ok := t.eng.(BatchEngine); ok {
		b.InsertBatchHashed(flowIDs, hashes)
		return
	}
	for i, id := range flowIDs {
		if hashes == nil {
			t.eng.Insert(id)
		} else {
			t.eng.InsertHashed(id, hashes[i])
		}
	}
}

// Merge folds other into t. other must be a *TopK built with the same
// configuration — same algorithm, and for HeavyKeeper the same sketch
// options including WithSeed, so their sketches are bucket-compatible; the
// per-bucket merge rule is documented in internal/core. This is the paper's
// footnote-2 collector pattern: measurement points each sketch their share
// of the traffic and a collector folds the snapshots. other is left
// unmodified; neither may be in concurrent use during Merge. Engines
// without a merge operation return ErrMergeUnsupported.
func (t *TopK) Merge(other Summarizer) error {
	o, ok := other.(*TopK)
	if !ok || o == nil {
		return fmt.Errorf("%w: TopK cannot merge %T", ErrMergeMismatch, other)
	}
	if t.eng.Name() != o.eng.Name() {
		return fmt.Errorf("%w: %s vs %s", ErrMergeMismatch, t.eng.Name(), o.eng.Name())
	}
	return t.eng.MergeFrom(o.eng)
}

// AddN records a weight-n occurrence of flowID — n packets at once, or n
// bytes when ranking flows by volume instead of packet count. Weighted
// updates are this implementation's extension to the paper (its §III-F
// notes the original cannot support them); see internal/topk.InsertN for
// the admission-rule consequence.
func (t *TopK) AddN(flowID []byte, n uint64) { t.eng.InsertN(flowID, n) }

// Query returns the current size estimate for flowID. A flow held nowhere
// reports 0 — "it is a mouse flow" (paper §III-B).
func (t *TopK) Query(flowID []byte) uint64 { return t.eng.Query(flowID) }

// List returns the current top-k flows in descending estimated size.
func (t *TopK) List() []Flow { return t.eng.Top(t.k) }

// All returns an iterator over the top-k flows List reports when All is
// called, in descending estimated size.
func (t *TopK) All() iter.Seq[Flow] { return yieldFlows(t.List()) }

// K returns the configured report size.
func (t *TopK) K() int { return t.k }

// Version returns the configured insertion discipline. It is meaningful for
// the HeavyKeeper algorithm only; registry engines report the default.
func (t *TopK) Version() Version { return hkVersions[t.eng.Name()] }

// Algorithm returns the backing algorithm's registry name.
func (t *TopK) Algorithm() string { return t.eng.Name() }

// MemoryBytes returns the structure's logical memory footprint.
func (t *TopK) MemoryBytes() int { return t.eng.MemoryBytes() }

// Stats exposes the engine's internal event counters (decays, replacements,
// expansions for sketch engines; at least Packets for all), useful for
// monitoring and tuning.
func (t *TopK) Stats() Stats { return t.eng.Stats() }

// StoreIndexStats describes the open-addressed key index of the top-k store
// at a point in time; hkbench reports it so index pressure stays observable.
type StoreIndexStats struct {
	// Capacity is the store's entry capacity (k); TableSize the index size.
	Capacity  int `json:"capacity"`
	TableSize int `json:"table_size"`
	// Occupied is the number of live index slots.
	Occupied int `json:"occupied"`
	// MaxProbe is the largest current displacement of any entry from its
	// home slot.
	MaxProbe int `json:"max_probe"`
	// ProbeHist[d] counts entries displaced exactly d slots from home; the
	// last bin also absorbs anything beyond it.
	ProbeHist []int `json:"probe_hist"`
}

// StoreIndexStats reports the top-k store's index occupancy and probe
// lengths. ok is false for registry engines, which manage their own stores.
func (t *TopK) StoreIndexStats() (st StoreIndexStats, ok bool) {
	tr := hkTracker(t.eng)
	if tr == nil {
		return StoreIndexStats{}, false
	}
	is := tr.StoreIndexStats()
	return StoreIndexStats{
		Capacity:  is.Capacity,
		TableSize: is.TableSize,
		Occupied:  is.Occupied,
		MaxProbe:  is.MaxProbe,
		ProbeHist: is.ProbeHist,
	}, true
}
