// Package collector names the fold policies of network-wide top-k
// aggregation, the deployment pattern of the HeavyKeeper paper's footnote
// 2: measurement points (switches, hkd members) each run their own sketch
// over their share of the traffic, and a collector (hkagg, in
// internal/cluster) folds them into a global top-k. Which fold is right
// depends on how the points' traffic relates:
//
//   - Sum: the points see disjoint packets, so counts of the same flow
//     add up. hkagg folds the raw same-seed sketches bucket by bucket
//     (core.Sketch.Merge through Summarizer.Merge), recovering flows whose
//     traffic was spread too thin for any single point to report them.
//   - Max: the points see the same packets (replicas, or switches along a
//     path), so counts are duplicates. hkagg folds the members' top-k
//     reports with heavykeeper.FoldFlows, keeping each flow's largest
//     count.
package collector

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
