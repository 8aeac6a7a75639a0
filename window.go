package heavykeeper

import (
	"fmt"
	"iter"
	"sync"

	"repro/internal/metrics"
	"repro/internal/window"
)

// Window tracks the top-k flows of (approximately) the last windowSize
// items, using the classic two-pane construction: arrivals land in a
// current pane; every windowSize/2 items the panes rotate and the oldest
// pane is discarded. A report merges the live panes, so it always covers
// at least the last windowSize/2 and at most the last windowSize items —
// the windowed variant of the paper's per-epoch reporting (footnote 2),
// and the setting CSS (Ben-Basat et al., INFOCOM 2016) targets natively.
// The hkd daemon's -epoch flag and library users share this one
// implementation.
//
// The two-pane semantics in detail: Query and List combine the live panes
// by sum — a flow active across the pane boundary accrues its count from
// both — and counts older than the previous pane vanish wholesale at
// rotation rather than decaying smoothly. Reports are therefore sliding
// approximations, not exact sliding windows; the coverage guarantee
// (between windowSize/2 and windowSize items) is the structure's
// contract.
//
// A Window is safe for concurrent use (one mutex, like a one-shard
// Sharded) and implements Summarizer, so servers accept it interchangeably
// with the unwindowed frontends. Merge is unsupported: panes rotate
// independently on each side, so no meaningful fold exists; snapshotting
// is likewise not offered (a window's contents expire within one
// windowSize anyway).
type Window struct {
	mu sync.Mutex
	w  *window.TopK
}

// NewWindow returns a Window covering windowSize items with report size
// k. The options configure the per-pane HeavyKeeper exactly as New does;
// WithMemory budgets each pane (two panes are live at a time).
// Windowing is HeavyKeeper-only: WithAlgorithm, WithShards and
// WithConcurrency conflict with it.
func NewWindow(k, windowSize int, opts ...Option) (*Window, error) {
	cfg, err := parseConfig(k, opts)
	if err != nil {
		return nil, err
	}
	if !isHeavyKeeperAlgorithm(cfg.algorithm) {
		return nil, fmt.Errorf("%w: windowing requires the HeavyKeeper algorithm, got %q",
			ErrOptionConflict, cfg.algorithm)
	}
	if cfg.shards != 0 || cfg.concurrent {
		return nil, fmt.Errorf("%w: WithShards/WithConcurrency under NewWindow (a Window is already synchronized)",
			ErrOptionConflict)
	}
	if windowSize < 2 {
		return nil, fmt.Errorf("%w: window size %d, must be >= 2", ErrInvalidWindow, windowSize)
	}
	w, err := window.New(k, windowSize, trackerOptions(k, cfg))
	if err != nil {
		return nil, err
	}
	return &Window{w: w}, nil
}

// MustNewWindow is NewWindow that panics on error.
func MustNewWindow(k, windowSize int, opts ...Option) *Window {
	w, err := NewWindow(k, windowSize, opts...)
	if err != nil {
		panic(err)
	}
	return w
}

var _ Summarizer = (*Window)(nil)

// Add records one occurrence of flowID, rotating panes at the boundary.
func (w *Window) Add(flowID []byte) {
	w.mu.Lock()
	w.w.Add(flowID)
	w.mu.Unlock()
}

// AddString is Add for string identifiers, without copying the string.
func (w *Window) AddString(flowID string) { w.Add(bytesOf(flowID)) }

// AddN records a weight-n occurrence. It advances the window by one item:
// the panes count arrivals, not weight.
func (w *Window) AddN(flowID []byte, n uint64) {
	w.mu.Lock()
	w.w.AddN(flowID, n)
	w.mu.Unlock()
}

// AddBatch records one occurrence per identifier in stream order, taking
// the lock once for the whole batch.
func (w *Window) AddBatch(flowIDs [][]byte) {
	w.mu.Lock()
	w.w.AddBatch(flowIDs)
	w.mu.Unlock()
}

// Query returns the windowed estimate for flowID: the sum over the live
// panes, covering at most the last windowSize items.
func (w *Window) Query(flowID []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Query(flowID)
}

// List returns the top-k flows over the live panes in descending
// estimated size.
func (w *Window) List() []Flow {
	w.mu.Lock()
	entries := w.w.Top()
	w.mu.Unlock()
	return entriesToFlows(entries)
}

// All returns an iterator over the current windowed top-k. The snapshot
// is taken under the lock when iteration starts; the caller consumes it
// lock-free.
func (w *Window) All() iter.Seq[Flow] {
	return func(yield func(Flow) bool) {
		for _, f := range w.List() {
			if !yield(f) {
				return
			}
		}
	}
}

// Merge is unsupported for windows: pane rotation points differ between
// instances, so there is no meaningful fold. It always returns
// ErrMergeUnsupported.
func (w *Window) Merge(other Summarizer) error {
	return fmt.Errorf("%w: windows do not merge", ErrMergeUnsupported)
}

// K returns the configured report size.
func (w *Window) K() int { return w.w.K() }

// WindowSize returns the nominal window coverage in items.
func (w *Window) WindowSize() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.WindowSize()
}

// Rotate forces a pane rotation immediately: counts older than the
// current pane are discarded and a fresh pane opens, starting a new
// epoch on demand. hkd's hot-reconfig endpoint calls this so operators
// can reset the window without restarting the daemon or waiting for the
// arrival-driven boundary.
func (w *Window) Rotate() {
	w.mu.Lock()
	w.w.Rotate()
	w.mu.Unlock()
}

// Rotations returns the number of pane rotations so far.
func (w *Window) Rotations() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Rotations()
}

// MemoryBytes is the logical footprint of the live panes.
func (w *Window) MemoryBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.MemoryBytes()
}

// Stats sums the live panes' ingest event counters; like the report, the
// totals cover at most the last windowSize items.
func (w *Window) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Stats()
}

// entriesToFlows converts a metrics report to the public Flow shape.
func entriesToFlows(entries []metrics.Entry) []Flow {
	out := make([]Flow, len(entries))
	for i, e := range entries {
		out[i] = Flow{ID: []byte(e.Key), Count: e.Count}
	}
	return out
}
