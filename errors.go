package heavykeeper

import "errors"

// Typed constructor and merge errors. Constructors wrap these with detail
// (the offending value), so callers branch with errors.Is:
//
//	if _, err := heavykeeper.New(k, opts...); errors.Is(err, heavykeeper.ErrInvalidK) { ... }
var (
	// ErrInvalidK is returned when the report size k is < 1.
	ErrInvalidK = errors.New("heavykeeper: k must be >= 1")
	// ErrInvalidMemory is returned for a non-positive WithMemory budget.
	ErrInvalidMemory = errors.New("heavykeeper: memory budget must be positive")
	// ErrInvalidWidth is returned for a WithWidth below 1.
	ErrInvalidWidth = errors.New("heavykeeper: width must be >= 1")
	// ErrInvalidDepth is returned for a WithDepth below 1.
	ErrInvalidDepth = errors.New("heavykeeper: depth must be >= 1")
	// ErrInvalidDecayBase is returned for a WithDecayBase not > 1.
	ErrInvalidDecayBase = errors.New("heavykeeper: decay base must be > 1")
	// ErrInvalidFingerprintBits is returned for WithFingerprintBits outside (0, 32].
	ErrInvalidFingerprintBits = errors.New("heavykeeper: fingerprint bits must be in (0, 32]")
	// ErrInvalidVersion is returned for an unknown WithVersion value.
	ErrInvalidVersion = errors.New("heavykeeper: unknown version")
	// ErrInvalidShards is returned for a WithShards count below 1.
	ErrInvalidShards = errors.New("heavykeeper: shard count must be >= 1")
	// ErrInvalidExpansion is returned for a WithExpansion threshold of 0.
	ErrInvalidExpansion = errors.New("heavykeeper: expansion threshold must be > 0")
	// ErrInvalidWindow is returned for a NewWindow size below 2.
	ErrInvalidWindow = errors.New("heavykeeper: window size must be >= 2")
	// ErrOptionConflict is returned when mutually exclusive options are
	// combined (WithWidth+WithMemory, WithShards+WithConcurrency, or
	// HeavyKeeper-specific options with a non-HeavyKeeper WithAlgorithm).
	ErrOptionConflict = errors.New("heavykeeper: conflicting options")
	// ErrUnknownAlgorithm is returned when WithAlgorithm (or BuildEngine)
	// names an algorithm absent from the registry.
	ErrUnknownAlgorithm = errors.New("heavykeeper: unknown algorithm")
	// ErrMergeMismatch is returned by Merge when the two summarizers are not
	// mergeable into each other: different frontend types, different shard
	// layouts, nil or self arguments, or incompatible sketch configurations.
	ErrMergeMismatch = errors.New("heavykeeper: summarizers not mergeable")
	// ErrMergeUnsupported is returned by Merge when the backing algorithm has
	// no merge operation (most registry engines other than HeavyKeeper).
	ErrMergeUnsupported = errors.New("heavykeeper: algorithm does not support merge")
	// ErrCorrupt is returned by ReadTopK/ReadSummarizer for any malformed,
	// truncated or incompatible snapshot container. Decoding failures wrap
	// it, so callers branch with errors.Is.
	ErrCorrupt = errors.New("heavykeeper: corrupt snapshot")
	// ErrSnapshotUnsupported is returned by WriteTo when the summarizer's
	// backing algorithm has no snapshot format (registry engines other than
	// the HeavyKeeper family).
	ErrSnapshotUnsupported = errors.New("heavykeeper: algorithm does not support snapshots")
)
