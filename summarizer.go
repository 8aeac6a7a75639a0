package heavykeeper

import (
	"bytes"
	"hash/maphash"
	"iter"
	"slices"
	"unsafe"

	"repro/internal/core"
)

// Stats is the uniform ingest-event counter block every frontend exposes.
// For HeavyKeeper engines all sketch counters are populated; registry
// engines without a sketch fill at least Packets.
type Stats = core.Stats

// Summarizer is the one public contract of this package: a top-k flow
// summarizer over a packet (or item) stream. Both frontends implement it —
// TopK (single-goroutine) and Sharded (per-core shards, one mutex each) —
// over any registered algorithm, so deployment shape and algorithm choice
// are orthogonal:
//
//	s, err := heavykeeper.New(100)                            // *TopK
//	s, err := heavykeeper.New(100, heavykeeper.WithConcurrency()) // *Sharded, one shard
//	s, err := heavykeeper.New(100, heavykeeper.WithShards(8))     // *Sharded
//	s, err := heavykeeper.New(100, heavykeeper.WithAlgorithm("spacesaving"))
type Summarizer interface {
	// Add records one occurrence of flowID (one packet of the flow).
	Add(flowID []byte)
	// AddString is Add for string identifiers. It does not copy the string:
	// the ingest path reads the bytes once and materializes its own copy
	// only on actual admission of a new flow.
	AddString(flowID string)
	// AddN records a weight-n occurrence — n packets at once, or n bytes
	// when ranking flows by volume instead of packet count.
	AddN(flowID []byte, n uint64)
	// AddBatch records one occurrence of every identifier in flowIDs,
	// equivalently to calling Add on each in order but cheaper where the
	// backing algorithm has a batched path.
	AddBatch(flowIDs [][]byte)
	// Query returns the current size estimate for flowID (0 for a flow the
	// structure holds nowhere — "it is a mouse flow", paper §III-B).
	Query(flowID []byte) uint64
	// List returns the current top-k flows in descending estimated size.
	List() []Flow
	// All returns an iterator over the current top-k flows in descending
	// estimated size. It iterates a snapshot of List, so ingest may
	// continue while the caller consumes it.
	All() iter.Seq[Flow]
	// Merge folds other into the receiver (the paper's footnote-2 collector
	// pattern). Both sides must be the same frontend type over the same
	// configuration; ErrMergeMismatch or ErrMergeUnsupported otherwise.
	Merge(other Summarizer) error
	// K returns the configured report size.
	K() int
	// MemoryBytes returns the structure's logical memory footprint.
	MemoryBytes() int
	// Stats exposes ingest event counters (decays, replacements,
	// expansions for sketch engines; at least Packets for all).
	Stats() Stats
}

// StoreIndexReporter is optionally implemented by frontends whose top-k
// store surfaces open-addressed index statistics (TopK and Sharded on
// HeavyKeeper); hkbench type-asserts it to report index pressure.
type StoreIndexReporter interface {
	StoreIndexStats() (StoreIndexStats, bool)
}

// Compile-time checks: the frontends satisfy the one interface.
var (
	_ Summarizer = (*TopK)(nil)
	_ Summarizer = (*Sharded)(nil)

	_ StoreIndexReporter = (*TopK)(nil)
	_ StoreIndexReporter = (*Sharded)(nil)
)

// New returns the Summarizer the options describe: a plain *TopK by
// default, a *Sharded under WithShards (one shard under WithConcurrency),
// over the algorithm selected by WithAlgorithm (HeavyKeeper by default). It
// is the single construction entry point.
func New(k int, opts ...Option) (Summarizer, error) {
	cfg, err := parseConfig(k, opts)
	if err != nil {
		return nil, err
	}
	if cfg.shards != 0 {
		return newShardedFromConfig(k, cfg)
	}
	return newTopK(k, cfg)
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(k int, opts ...Option) Summarizer {
	s, err := New(k, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// bytesOf returns a zero-copy []byte view of s for the AddString entry
// points. The ingest paths only read the view and copy on admission, so the
// string's immutability is never violated and nothing retains the view.
func bytesOf(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// yieldFlows adapts a materialized report to the All iterator shape.
func yieldFlows(flows []Flow) iter.Seq[Flow] {
	return func(yield func(Flow) bool) {
		for _, f := range flows {
			if !yield(f) {
				return
			}
		}
	}
}

// FoldFlows folds top-k lists into one top-k list of at most k flows: the
// collector step of the paper's footnote-2 deployment, and the rule that
// merges Sharded's shards and Window's panes. Flows with equal IDs combine
// by sum, or by max when keepMax is set: sum for parts that saw disjoint
// packets (shards, panes, partitioned members), max for replicas that
// each saw every packet of a flow. The result is ordered by count
// descending, then ID ascending, so it does not depend on the order of the
// lists. Each list must hold an ID at most once, as every List does.
//
// The result is a new slice whose IDs alias the inputs' ID bytes; the
// inputs are not modified.
func FoldFlows(k int, keepMax bool, lists ...[]Flow) []Flow {
	if k < 1 {
		return nil
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	all := make([]Flow, 0, n)
	// An open-addressed index over all (slot = position+1, 0 empty), at
	// most half full: a map keyed by ID would cost a string per flow.
	size := 1
	for size < 2*n {
		size <<= 1
	}
	index := make([]int32, size)
	mask := uint64(size - 1)
	for _, l := range lists {
	next:
		for _, f := range l {
			h := maphash.Bytes(foldSeed, f.ID) & mask
			for ; index[h] != 0; h = (h + 1) & mask {
				if e := &all[index[h]-1]; bytes.Equal(e.ID, f.ID) {
					if keepMax {
						e.Count = max(e.Count, f.Count)
					} else {
						e.Count += f.Count
					}
					continue next
				}
			}
			all = append(all, f)
			index[h] = int32(len(all))
		}
	}
	// Only flows at or above the k-th largest count can make the cut, so
	// sort just those: ordering the counts alone is far cheaper than
	// ordering flows.
	if len(all) > k {
		counts := make([]uint64, len(all))
		for i, f := range all {
			counts[i] = f.Count
		}
		slices.Sort(counts)
		least := counts[len(counts)-k]
		top := all[:0]
		for _, f := range all {
			if f.Count >= least {
				top = append(top, f)
			}
		}
		all = top
	}
	slices.SortFunc(all, func(a, b Flow) int {
		switch {
		case a.Count > b.Count:
			return -1
		case a.Count < b.Count:
			return 1
		}
		return bytes.Compare(a.ID, b.ID)
	})
	return all[:min(len(all), k)]
}

// foldSeed keys FoldFlows' index; the fold's result does not depend on it.
var foldSeed = maphash.MakeSeed()
