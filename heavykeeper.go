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
// interface. A plain *TopK is not safe for concurrent use;
// WithConcurrency wraps one behind a single mutex for modest
// multi-goroutine loads; WithShards fans flows across per-core shards by
// flow hash, with per-shard locks and a batched ingest path (AddBatch),
// for pipelines that need to scale with cores.
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
	"repro/internal/metrics"
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

// WithConcurrency makes New return a *Concurrent: the structure behind a
// single mutex, safe for modest multi-goroutine loads. Mutually exclusive
// with WithShards, which scales further via per-shard locks.
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
// WithShards asks for a synchronized shape.
type TopK struct {
	// Exactly one of t and eng is non-nil: t carries the HeavyKeeper engine
	// on its devirtualized hot path, eng carries a registry engine.
	t   *topk.Tracker
	eng Engine
	cfg config
	k   int
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
	if !isHeavyKeeperAlgorithm(cfg.algorithm) && len(cfg.hkOnly) > 0 {
		return config{}, fmt.Errorf("%w: %v do not apply to algorithm %q",
			ErrOptionConflict, cfg.hkOnly, cfg.algorithm)
	}
	// The versioned algorithm names carry their discipline; an explicit
	// WithVersion that disagrees is a conflict, never a silent override.
	if cfg.versionSet {
		versioned := map[string]Version{
			AlgorithmHeavyKeeperMinimum: VersionMinimum,
			AlgorithmHeavyKeeperBasic:   VersionBasic,
		}
		if v, ok := versioned[cfg.algorithm]; ok && v != cfg.version {
			return config{}, fmt.Errorf("%w: WithVersion(%v) vs WithAlgorithm(%q)",
				ErrOptionConflict, cfg.version, cfg.algorithm)
		}
	}
	return cfg, nil
}

// isHeavyKeeperAlgorithm reports whether name selects the native tracker
// path (the empty name is the default HeavyKeeper).
func isHeavyKeeperAlgorithm(name string) bool {
	switch name {
	case "", AlgorithmHeavyKeeper, AlgorithmHeavyKeeperMinimum, AlgorithmHeavyKeeperBasic:
		return true
	}
	return false
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
// options; newTracker and the windowed wrapper share it so one
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

// newTracker builds the HeavyKeeper tracker a parsed config describes.
func newTracker(k int, cfg config) (*topk.Tracker, error) {
	return topk.New(trackerOptions(k, cfg))
}

// applyVersionedAlgorithm folds a versioned HeavyKeeper algorithm name
// into the config's insertion discipline; newTopK and NewWindow share it
// so the name-to-discipline rule cannot drift between deployment shapes.
func applyVersionedAlgorithm(cfg *config) {
	switch cfg.algorithm {
	case AlgorithmHeavyKeeperMinimum:
		cfg.version = VersionMinimum
	case AlgorithmHeavyKeeperBasic:
		cfg.version = VersionBasic
	}
}

// newTopK builds a TopK from a parsed config: the devirtualized HeavyKeeper
// tracker for the default algorithm, a registry engine otherwise.
func newTopK(k int, cfg config) (*TopK, error) {
	applyVersionedAlgorithm(&cfg)
	if isHeavyKeeperAlgorithm(cfg.algorithm) {
		tr, err := newTracker(k, cfg)
		if err != nil {
			return nil, err
		}
		return &TopK{t: tr, cfg: cfg, k: k}, nil
	}
	eng, err := BuildEngine(cfg.algorithm, EngineConfig{
		K:           k,
		MemoryBytes: cfg.memoryBytes,
		Seed:        cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	return &TopK{eng: eng, cfg: cfg, k: k}, nil
}

// Add records one occurrence of flowID (one packet of the flow).
func (t *TopK) Add(flowID []byte) {
	if t.t != nil {
		t.t.Insert(flowID)
		return
	}
	t.eng.Insert(flowID)
}

// keyHash returns the single per-key hash the structure derives everything
// from; Sharded computes it once per packet for routing and hands it down
// through the *hashed entry points so the key bytes are never hashed twice.
func (t *TopK) keyHash(flowID []byte) uint64 {
	if t.t != nil {
		return t.t.KeyHash(flowID)
	}
	return t.eng.KeyHash(flowID)
}

// addHashed, addNHashed, addBatchHashed and queryHashed are the
// precomputed-hash twins of Add/AddN/AddBatch/Query, for the sharded router.
func (t *TopK) addHashed(flowID []byte, h uint64) {
	if t.t != nil {
		t.t.InsertHashed(flowID, h)
		return
	}
	t.eng.InsertHashed(flowID, h)
}

func (t *TopK) addNHashed(flowID []byte, h uint64, n uint64) {
	if t.t != nil {
		t.t.InsertNHashed(flowID, h, n)
		return
	}
	t.eng.InsertNHashed(flowID, h, n)
}

func (t *TopK) addBatchHashed(flowIDs [][]byte, hashes []uint64) {
	if t.t != nil {
		t.t.InsertBatchHashed(flowIDs, hashes)
		return
	}
	if b, ok := t.eng.(BatchEngine); ok {
		b.InsertBatchHashed(flowIDs, hashes)
		return
	}
	for i, id := range flowIDs {
		t.eng.InsertHashed(id, hashes[i])
	}
}

func (t *TopK) queryHashed(flowID []byte, h uint64) uint64 {
	if t.t != nil {
		return t.t.QueryHashed(flowID, h)
	}
	return t.eng.QueryHashed(flowID, h)
}

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
func (t *TopK) AddBatch(flowIDs [][]byte) {
	if t.t != nil {
		t.t.InsertBatch(flowIDs)
		return
	}
	if b, ok := t.eng.(BatchEngine); ok {
		b.InsertBatchHashed(flowIDs, nil)
		return
	}
	for _, id := range flowIDs {
		t.eng.Insert(id)
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
	if t.t != nil {
		if o.t == nil {
			return fmt.Errorf("%w: heavykeeper vs %s", ErrMergeMismatch, o.eng.Name())
		}
		if err := t.t.MergeFrom(o.t); err != nil {
			return fmt.Errorf("%w: %v", ErrMergeMismatch, err)
		}
		return nil
	}
	if o.eng == nil {
		return fmt.Errorf("%w: %s vs heavykeeper", ErrMergeMismatch, t.eng.Name())
	}
	return t.eng.MergeFrom(o.eng)
}

// AddN records a weight-n occurrence of flowID — n packets at once, or n
// bytes when ranking flows by volume instead of packet count. Weighted
// updates are this implementation's extension to the paper (its §III-F
// notes the original cannot support them); see internal/topk.InsertN for
// the admission-rule consequence.
func (t *TopK) AddN(flowID []byte, n uint64) {
	if t.t != nil {
		t.t.InsertN(flowID, n)
		return
	}
	t.eng.InsertN(flowID, n)
}

// Query returns the current size estimate for flowID. A flow held nowhere
// reports 0 — "it is a mouse flow" (paper §III-B).
func (t *TopK) Query(flowID []byte) uint64 {
	if t.t != nil {
		return t.t.Query(flowID)
	}
	return t.eng.Query(flowID)
}

// List returns the current top-k flows in descending estimated size.
func (t *TopK) List() []Flow {
	if t.t == nil {
		return t.eng.Top(t.k)
	}
	entries := t.t.Top()
	out := make([]Flow, len(entries))
	for i, e := range entries {
		out[i] = Flow{ID: []byte(e.Key), Count: e.Count}
	}
	return out
}

// All returns an iterator over the current top-k flows in descending
// estimated size. With the default store it streams straight off the
// Stream-Summary's bucket list — no slice is materialized, and breaking
// early costs nothing. The TopK must not be mutated while the iterator is
// consumed (it is single-goroutine anyway).
func (t *TopK) All() iter.Seq[Flow] {
	if t.t == nil {
		return yieldFlows(t.eng.Top(t.k))
	}
	return func(yield func(Flow) bool) {
		for e := range t.t.All() {
			if !yield(Flow{ID: []byte(e.Key), Count: e.Count}) {
				return
			}
		}
	}
}

// topEntries is List in the collector's report shape, for Sharded's merge.
func (t *TopK) topEntries() []metrics.Entry {
	if t.t != nil {
		top := t.t.Top()
		rep := make([]metrics.Entry, len(top))
		for i, e := range top {
			rep[i] = metrics.Entry{Key: e.Key, Count: e.Count}
		}
		return rep
	}
	top := t.eng.Top(t.k)
	rep := make([]metrics.Entry, len(top))
	for i, f := range top {
		rep[i] = metrics.Entry{Key: string(f.ID), Count: f.Count}
	}
	return rep
}

// K returns the configured report size.
func (t *TopK) K() int { return t.k }

// Version returns the configured insertion discipline. It is meaningful for
// the HeavyKeeper algorithm only; registry engines report the default.
func (t *TopK) Version() Version { return t.cfg.version }

// Algorithm returns the backing algorithm's registry name.
func (t *TopK) Algorithm() string {
	if t.t != nil {
		switch t.cfg.version {
		case VersionMinimum:
			return AlgorithmHeavyKeeperMinimum
		case VersionBasic:
			return AlgorithmHeavyKeeperBasic
		}
		return AlgorithmHeavyKeeper
	}
	return t.eng.Name()
}

// MemoryBytes returns the structure's logical memory footprint.
func (t *TopK) MemoryBytes() int {
	if t.t != nil {
		return t.t.MemoryBytes()
	}
	return t.eng.MemoryBytes()
}

// Stats exposes the engine's internal event counters (decays, replacements,
// expansions for sketch engines; at least Packets for all), useful for
// monitoring and tuning.
func (t *TopK) Stats() Stats {
	if t.t != nil {
		return t.t.Sketch().Stats()
	}
	return t.eng.Stats()
}

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
	if t.t == nil {
		return StoreIndexStats{}, false
	}
	is := t.t.StoreIndexStats()
	return StoreIndexStats{
		Capacity:  is.Capacity,
		TableSize: is.TableSize,
		Occupied:  is.Occupied,
		MaxProbe:  is.MaxProbe,
		ProbeHist: is.ProbeHist,
	}, true
}
