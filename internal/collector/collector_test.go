package collector

import (
	"fmt"
	"testing"

	heavykeeper "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// TestDistributedTopK runs the full pattern: traffic split across three
// simulated switches, each with its own HeavyKeeper, reports folded by
// sum (heavykeeper.FoldFlows). The global top-k must match the
// whole-stream ground truth.
func TestDistributedTopK(t *testing.T) {
	const k = 20
	const switches = 3
	trackers := make([]*topk.Tracker, switches)
	for i := range trackers {
		trackers[i] = topk.MustNew(topk.Options{
			K: k, Sketch: core.Config{W: 1024, Seed: uint64(100 + i)},
		})
	}
	rng := xrand.NewXorshift64Star(77)
	exact := map[string]uint64{}
	for p := 0; p < 150000; p++ {
		f := int(rng.Uint64n(rng.Uint64n(5000) + 1))
		key := fmt.Sprintf("flow-%d", f)
		exact[key]++
		// Flows are pinned to switches by hash — disjoint traffic.
		trackers[f%switches].Insert([]byte(key))
	}
	reports := make([][]heavykeeper.Flow, len(trackers))
	for i, tr := range trackers {
		for _, e := range tr.Top() {
			reports[i] = append(reports[i], heavykeeper.Flow{ID: []byte(e.Key), Count: e.Count})
		}
	}
	var global []metrics.Entry
	for _, f := range heavykeeper.FoldFlows(k, false, reports...) {
		global = append(global, metrics.Entry{Key: string(f.ID), Count: f.Count})
	}
	o := metrics.FromCounts(exact)
	if p := metrics.PrecisionAtK(global, o, k); p < 0.9 {
		t.Errorf("distributed precision = %v want >= 0.9", p)
	}
}

// TestSketchMergeMatchesCombinedStream checks core.Sketch.Merge: two
// same-seed sketches over halves of a stream, merged, must agree closely
// with one sketch over the whole stream.
func TestSketchMergeMatchesCombinedStream(t *testing.T) {
	cfg := core.Config{W: 2048, Seed: 9}
	whole := core.MustNew(cfg)
	half1 := core.MustNew(cfg)
	half2 := core.MustNew(cfg)
	rng := xrand.NewXorshift64Star(13)
	exact := map[int]uint64{}
	for p := 0; p < 100000; p++ {
		f := int(rng.Uint64n(rng.Uint64n(3000) + 1))
		exact[f]++
		key := []byte(fmt.Sprintf("flow-%d", f))
		whole.InsertBasic(key)
		if p%2 == 0 {
			half1.InsertBasic(key)
		} else {
			half2.InsertBasic(key)
		}
	}
	if err := half1.Merge(half2); err != nil {
		t.Fatal(err)
	}
	// Elephants must agree within a small margin and never over-estimate.
	for f := 0; f < 20; f++ {
		key := []byte(fmt.Sprintf("flow-%d", f))
		m := uint64(half1.Query(key))
		truth := exact[f]
		if m > truth {
			t.Errorf("flow %d: merged %d > true %d", f, m, truth)
		}
		if truth > 1000 && float64(m) < 0.9*float64(truth) {
			t.Errorf("flow %d: merged %d < 90%% of true %d", f, m, truth)
		}
	}
}

func TestSketchMergeRejectsMismatch(t *testing.T) {
	a := core.MustNew(core.Config{W: 64, Seed: 1})
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
	b := core.MustNew(core.Config{W: 128, Seed: 1})
	if err := a.Merge(b); err == nil {
		t.Error("shape mismatch accepted")
	}
	c := core.MustNew(core.Config{W: 64, Seed: 2})
	if err := a.Merge(c); err == nil {
		t.Error("seed mismatch accepted")
	}
}

func TestSketchMergeContestedBuckets(t *testing.T) {
	// Force different flows into the same bucket of two sketches: the
	// merge's majority rule must keep the larger and subtract the smaller.
	cfg := core.Config{W: 1, D: 1, Seed: 3}
	a := core.MustNew(cfg)
	b := core.MustNew(cfg)
	for i := 0; i < 100; i++ {
		a.InsertBasic([]byte("heavy"))
	}
	for i := 0; i < 30; i++ {
		b.InsertBasic([]byte("light"))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Query([]byte("heavy")); got != 70 {
		t.Errorf("contested merge: heavy = %d want 70", got)
	}
	if got := a.Query([]byte("light")); got != 0 {
		t.Errorf("contested merge: light = %d want 0", got)
	}
}
