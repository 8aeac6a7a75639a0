package topk

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestInsertBatchMatchesSequential checks InsertBatch against a sequential
// Insert loop for every version: identical top-k output and identical
// sketch statistics. Subtest names carry the store byte a snapshot of the
// tracker records.
func TestInsertBatchMatchesSequential(t *testing.T) {
	stream, _ := zipfStream(t, 50_000, 2_000, 77)
	for _, version := range []Version{Basic, Parallel, Minimum} {
		t.Run(fmt.Sprintf("%s/store=%d", version, StoreSummary), func(t *testing.T) {
			opts := Options{K: 32, Version: version, Sketch: core.Config{W: 256, Seed: 11}}
			seq := MustNew(opts)
			bat := MustNew(opts)
			for _, k := range stream {
				seq.Insert(k)
			}
			for off := 0; off < len(stream); {
				n := 1 + (off*13)%997
				if off+n > len(stream) {
					n = len(stream) - off
				}
				bat.InsertBatch(stream[off : off+n])
				off += n
			}
			if seq.Sketch().Stats() != bat.Sketch().Stats() {
				t.Fatalf("sketch stats diverge:\nsequential %+v\nbatch      %+v",
					seq.Sketch().Stats(), bat.Sketch().Stats())
			}
			if !reflect.DeepEqual(seq.Top(), bat.Top()) {
				t.Fatalf("top-k diverges:\nsequential %v\nbatch      %v", seq.Top(), bat.Top())
			}
		})
	}
}

// TestMergeFrom folds two trackers fed disjoint halves of one stream and
// checks the merged result against a single tracker that saw everything.
func TestMergeFrom(t *testing.T) {
	stream, exact := zipfStream(t, 60_000, 2_000, 123)
	opts := Options{K: 16, Sketch: core.Config{W: 512, Seed: 21}}
	whole := MustNew(opts)
	left := MustNew(opts)
	right := MustNew(opts)
	for i, k := range stream {
		whole.Insert(k)
		if i%2 == 0 {
			left.Insert(k)
		} else {
			right.Insert(k)
		}
	}
	if err := left.MergeFrom(right); err != nil {
		t.Fatalf("MergeFrom: %v", err)
	}

	// The merged tracker must find (nearly) the same elephants as the
	// single-instance run; with this much headroom the overlap is exact.
	want := map[string]bool{}
	for _, e := range whole.Top() {
		want[e.Key] = true
	}
	matched := 0
	for _, e := range left.Top() {
		if want[e.Key] {
			matched++
		}
	}
	if matched < opts.K-2 {
		t.Fatalf("merged top-k overlaps single-instance in only %d/%d entries", matched, opts.K)
	}
	// Merged estimates must not exceed the true counts (Theorem 2 survives
	// the merge rule) and should be near them for the biggest flows.
	for _, e := range left.Top()[:5] {
		truth := exact[e.Key]
		if e.Count > truth {
			t.Fatalf("merged estimate for %q overshoots: %d > true %d", e.Key, e.Count, truth)
		}
		if e.Count < truth*8/10 {
			t.Fatalf("merged estimate for %q badly undershoots: %d < 80%% of %d", e.Key, e.Count, truth)
		}
	}
}

// TestMergeFromErrors covers the rejection paths.
func TestMergeFromErrors(t *testing.T) {
	a := MustNew(Options{K: 4, Sketch: core.Config{W: 64, Seed: 1}})
	if err := a.MergeFrom(nil); err == nil {
		t.Fatal("merge with nil must fail")
	}
	if err := a.MergeFrom(a); err == nil {
		t.Fatal("merge with self must fail")
	}
	b := MustNew(Options{K: 4, Sketch: core.Config{W: 64, Seed: 2}})
	if err := a.MergeFrom(b); err == nil {
		t.Fatal("merge across seeds must fail")
	}
	// Same seeds, different cell encoding: a fingerprint masked to another
	// width never matches, and a wider counter overflows the receiver.
	for name, cfg := range map[string]core.Config{
		"fingerprint-bits": {W: 64, Seed: 1, FingerprintBits: 8},
		"counter-bits":     {W: 64, Seed: 1, CounterBits: 16},
	} {
		if err := a.MergeFrom(MustNew(Options{K: 4, Sketch: cfg})); err == nil {
			t.Errorf("merge across %s must fail", name)
		}
	}
}
