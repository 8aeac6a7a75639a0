package collector

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/xrand"
)

func TestMergeReportsValidation(t *testing.T) {
	if _, err := MergeReports(0, Sum); !errors.Is(err, ErrInvalidK) {
		t.Errorf("k=0: err = %v want ErrInvalidK", err)
	}
	if _, err := MergeReports(5, Policy(9)); !errors.Is(err, ErrInvalidPolicy) {
		t.Errorf("bad policy: err = %v want ErrInvalidPolicy", err)
	}
}

func TestMergeReportsSum(t *testing.T) {
	a := []metrics.Entry{{Key: "f1", Count: 100}, {Key: "f2", Count: 50}}
	b := []metrics.Entry{{Key: "f1", Count: 30}, {Key: "f3", Count: 90}}
	got, err := MergeReports(2, Sum, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []metrics.Entry{{Key: "f1", Count: 130}, {Key: "f3", Count: 90}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMergeReportsMax(t *testing.T) {
	a := []metrics.Entry{{Key: "f1", Count: 100}}
	b := []metrics.Entry{{Key: "f1", Count: 70}, {Key: "f2", Count: 80}}
	got, err := MergeReports(5, Max, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Key != "f1" || got[0].Count != 100 {
		t.Errorf("Max policy produced %v", got[0])
	}
	if got[1].Key != "f2" || got[1].Count != 80 {
		t.Errorf("second entry %v", got[1])
	}
}

// TestMergeReportsEmptyReports: members with nothing to report (a fresh or
// idle hkd) contribute nil or empty reports, which fold to nothing.
func TestMergeReportsEmptyReports(t *testing.T) {
	top, err := MergeReports(3, Sum, nil, []metrics.Entry{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 0 {
		t.Errorf("empty reports produced %v", top)
	}
	if top, err = MergeReports(3, Max); err != nil || len(top) != 0 {
		t.Errorf("no reports: top=%v err=%v", top, err)
	}
}

func TestMergeReportsMaxTies(t *testing.T) {
	// Equal combined counts break by ascending key, regardless of report
	// arrival order, so the global report is deterministic.
	a := []metrics.Entry{{Key: "zz", Count: 10}, {Key: "mm", Count: 10}}
	b := []metrics.Entry{{Key: "aa", Count: 10}, {Key: "zz", Count: 7}}
	for _, order := range [][][]metrics.Entry{{a, b}, {b, a}} {
		got, err := MergeReports(2, Max, order...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Key != "aa" || got[1].Key != "mm" {
			t.Errorf("tie-break order %v", got)
		}
		for _, e := range got {
			if e.Count != 10 {
				t.Errorf("Max tie entry %v want count 10", e)
			}
		}
	}
}

// TestReportMutationIsolation: the global report shares no memory with the
// inputs, so a caller may reuse its report buffers after the fold.
func TestReportMutationIsolation(t *testing.T) {
	rep := []metrics.Entry{{Key: "a", Count: 1}}
	top, err := MergeReports(2, Sum, rep)
	if err != nil {
		t.Fatal(err)
	}
	rep[0].Count = 999
	if top[0].Count != 1 {
		t.Error("MergeReports aliased the caller's slice")
	}
}

// TestDistributedTopK runs the full pattern: traffic split across three
// simulated switches, each with its own HeavyKeeper, reports merged with
// Sum. The global top-k must match the whole-stream ground truth.
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
	reports := make([][]metrics.Entry, len(trackers))
	for i, tr := range trackers {
		for _, e := range tr.Top() {
			reports[i] = append(reports[i], metrics.Entry{Key: e.Key, Count: e.Count})
		}
	}
	global, err := MergeReports(k, Sum, reports...)
	if err != nil {
		t.Fatal(err)
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
