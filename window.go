package heavykeeper

import (
	"fmt"
	"iter"
	"sync"
)

// Window tracks the top-k flows of (approximately) the last windowSize
// items, using the classic two-pane construction: arrivals land in a
// current pane; every windowSize/2 items the panes rotate and the oldest
// pane is discarded. A report merges the live panes, so it always covers
// at least the last windowSize/2 and at most the last windowSize items —
// the windowed variant of the paper's per-epoch reporting (footnote 2),
// and the setting CSS (Ben-Basat et al., INFOCOM 2016) targets natively.
// The hkd daemon's -epoch flag and library users share this one
// implementation. Each pane is a HeavyKeeper TopK built from the Window's
// options, so a pane ingests exactly as New's TopK does.
//
// The two-pane semantics in detail: Query and List combine the live panes
// by sum — a flow active across the pane boundary accrues its count from
// both — and counts older than the previous pane vanish wholesale at
// rotation rather than decaying smoothly. Reports are therefore sliding
// approximations, not exact sliding windows; the coverage guarantee
// (between windowSize/2 and windowSize items) is the structure's
// contract. List orders flows as FoldFlows does.
//
// A Window is safe for concurrent use (one mutex, like a one-shard
// Sharded) and implements Summarizer, so servers accept it interchangeably
// with the unwindowed frontends. Merge is unsupported: panes rotate
// independently on each side, so no meaningful fold exists; snapshotting
// is likewise not offered (a window's contents expire within one
// windowSize anyway).
type Window struct {
	mu        sync.Mutex
	k         int
	cfg       config // builds each new pane
	cur       *TopK
	prev      *TopK // nil before the first rotation
	pane      int   // items per pane: windowSize/2
	seq       int   // items in cur
	rotations uint64
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
	cur, err := newTopK(k, cfg)
	if err != nil {
		return nil, err
	}
	return &Window{k: k, cfg: cfg, cur: cur, pane: windowSize / 2}, nil
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
	w.cur.Add(flowID)
	w.advance(1)
	w.mu.Unlock()
}

// AddString is Add for string identifiers, without copying the string.
func (w *Window) AddString(flowID string) { w.Add(bytesOf(flowID)) }

// AddN records a weight-n occurrence. It advances the window by one item:
// the panes count arrivals, not weight, so a weighted arrival ages the
// window exactly like a unit one. A zero weight records nothing.
func (w *Window) AddN(flowID []byte, n uint64) {
	if n == 0 {
		return
	}
	w.mu.Lock()
	w.cur.AddN(flowID, n)
	w.advance(1)
	w.mu.Unlock()
}

// AddBatch records one occurrence per identifier in stream order, taking
// the lock once for the whole batch. Each rotation-free run goes down the
// current pane's batched path, so the result is identical to a loop over
// Add.
func (w *Window) AddBatch(flowIDs [][]byte) {
	w.mu.Lock()
	for len(flowIDs) > 0 {
		run := min(len(flowIDs), w.pane-w.seq)
		w.cur.AddBatch(flowIDs[:run])
		flowIDs = flowIDs[run:]
		w.advance(run)
	}
	w.mu.Unlock()
}

// advance counts n items into the current pane and rotates when it is full.
func (w *Window) advance(n int) {
	if w.seq += n; w.seq >= w.pane {
		w.rotate()
	}
}

// rotate retires the previous pane and opens a fresh one. Every pane is
// built from the same options (and hence seed); panes never merge, so
// identical seeding is harmless.
func (w *Window) rotate() {
	fresh, err := newTopK(w.k, w.cfg)
	if err != nil {
		panic(err) // NewWindow built the first pane from this config
	}
	w.prev, w.cur, w.seq = w.cur, fresh, 0
	w.rotations++
}

// Query returns the windowed estimate for flowID: the sum over the live
// panes, covering at most the last windowSize items.
func (w *Window) Query(flowID []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	est := w.cur.Query(flowID)
	if w.prev != nil {
		est += w.prev.Query(flowID)
	}
	return est
}

// List returns the top-k flows over the live panes, their counts summed
// across panes, in descending estimated size.
func (w *Window) List() []Flow {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.prev == nil {
		return FoldFlows(w.k, false, w.cur.List())
	}
	return FoldFlows(w.k, false, w.cur.List(), w.prev.List())
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
func (w *Window) K() int { return w.k }

// WindowSize returns the nominal window coverage in items.
func (w *Window) WindowSize() int { return 2 * w.pane }

// Rotate forces a pane rotation immediately: counts older than the
// current pane are discarded and a fresh pane opens, starting a new
// epoch on demand. hkd's hot-reconfig endpoint calls this so operators
// can reset the window without restarting the daemon or waiting for the
// arrival-driven boundary.
func (w *Window) Rotate() {
	w.mu.Lock()
	w.rotate()
	w.mu.Unlock()
}

// Rotations returns the number of pane rotations so far.
func (w *Window) Rotations() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotations
}

// MemoryBytes is the logical footprint of the live panes.
func (w *Window) MemoryBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := w.cur.MemoryBytes()
	if w.prev != nil {
		total += w.prev.MemoryBytes()
	}
	return total
}

// Stats sums the live panes' ingest event counters. Retired panes take
// their counters with them, so like the report the totals cover at most
// the last windowSize items.
func (w *Window) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.cur.Stats()
	if w.prev != nil {
		addStats(&st, w.prev.Stats())
	}
	return st
}
