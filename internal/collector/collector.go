// Package collector implements network-wide top-k aggregation, the
// deployment pattern of the HeavyKeeper paper's footnote 2: measurement
// points (switches) each run their own sketch over their share of the
// traffic and periodically report to a central collector, which folds the
// reports — or the raw sketches — into a global top-k.
//
// Two aggregation modes are provided:
//
//   - report merging (MergeReports): each agent ships only its k-entry
//     report, a few KB; the collector combines entries by flow with a
//     Sum or Max policy depending on whether the measurement points see
//     disjoint traffic (Sum) or the same packets at different hops (Max);
//   - sketch merging (via core.Sketch.Merge): agents ship whole sketch
//     snapshots built with a shared seed, the collector folds them bucket
//     by bucket and re-extracts the top-k, recovering flows whose traffic
//     was spread so thin that no single agent reported them.
//
// The package keeps no per-epoch state: hkagg (internal/cluster) folds the
// members' reports with MergeReports on every collect, so aligning members
// on epoch boundaries belongs there, where the fold runs (an open item in
// ROADMAP.md).
package collector

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Policy selects how per-agent counts of the same flow combine.
type Policy int

const (
	// Sum adds counts: measurement points observe disjoint packet sets
	// (e.g. edge switches, each seeing its own hosts' traffic).
	Sum Policy = iota
	// Max keeps the largest count: measurement points observe the same
	// packets (e.g. switches along a path, or replicas that each ingest
	// every packet of the flows routed to them), so counts are duplicates.
	Max
)

// Typed validation errors; callers branch with errors.Is.
var (
	// ErrInvalidK is returned for a global report size below 1.
	ErrInvalidK = errors.New("collector: k must be >= 1")
	// ErrInvalidPolicy is returned for a Policy that is neither Sum nor Max.
	ErrInvalidPolicy = errors.New("collector: unknown policy")
)

// MergeReports folds per-agent top-k reports into a global top-k of size
// k. Ties (equal combined counts) break by ascending key, so the global
// report is deterministic regardless of agent arrival order.
func MergeReports(k int, policy Policy, reports ...[]metrics.Entry) ([]metrics.Entry, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	if policy != Sum && policy != Max {
		return nil, fmt.Errorf("%w: %d", ErrInvalidPolicy, int(policy))
	}
	merged := map[string]uint64{}
	for _, rep := range reports {
		for _, e := range rep {
			switch policy {
			case Sum:
				merged[e.Key] += e.Count
			case Max:
				if e.Count > merged[e.Key] {
					merged[e.Key] = e.Count
				}
			}
		}
	}
	out := make([]metrics.Entry, 0, len(merged))
	for key, c := range merged {
		out = append(out, metrics.Entry{Key: key, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
