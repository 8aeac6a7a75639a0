package topk

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestInsertBatchMatchesSequential checks InsertBatch against a sequential
// Insert loop for every version × store combination: identical top-k output
// and identical sketch statistics.
func TestInsertBatchMatchesSequential(t *testing.T) {
	stream, _ := zipfStream(t, 50_000, 2_000, 77)
	for _, version := range []Version{Basic, Parallel, Minimum} {
		for _, store := range []StoreKind{StoreSummary, StoreHeap, StoreSummaryRef} {
			t.Run(fmt.Sprintf("%s/store=%d", version, store), func(t *testing.T) {
				opts := Options{K: 32, Version: version, Store: store, Sketch: core.Config{W: 256, Seed: 11}}
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

// TestOpenStoreMatchesRefStore is the tracker-level differential test for
// the open-addressed store index: the same stream through StoreSummary
// (KeyHash-indexed flat table) and StoreSummaryRef (retained map index)
// must produce identical top-k reports and sketch statistics on both the
// sequential and the batched ingest path, for every discipline.
func TestOpenStoreMatchesRefStore(t *testing.T) {
	stream, _ := zipfStream(t, 60_000, 2_500, 41)
	for _, version := range []Version{Basic, Parallel, Minimum} {
		t.Run(version.String(), func(t *testing.T) {
			mk := func(store StoreKind) Options {
				return Options{K: 24, Version: version, Store: store, Sketch: core.Config{W: 256, Seed: 7}}
			}
			open := MustNew(mk(StoreSummary))
			ref := MustNew(mk(StoreSummaryRef))
			openB := MustNew(mk(StoreSummary))
			refB := MustNew(mk(StoreSummaryRef))
			for _, k := range stream {
				open.Insert(k)
				ref.Insert(k)
			}
			for off := 0; off < len(stream); off += 300 {
				end := off + 300
				if end > len(stream) {
					end = len(stream)
				}
				openB.InsertBatch(stream[off:end])
				refB.InsertBatch(stream[off:end])
			}
			if open.Sketch().Stats() != ref.Sketch().Stats() {
				t.Fatalf("sequential sketch stats diverge:\nopen %+v\nref  %+v",
					open.Sketch().Stats(), ref.Sketch().Stats())
			}
			if !reflect.DeepEqual(open.Top(), ref.Top()) {
				t.Fatalf("sequential top-k diverges:\nopen %v\nref  %v", open.Top(), ref.Top())
			}
			if !reflect.DeepEqual(openB.Top(), refB.Top()) {
				t.Fatalf("batched top-k diverges:\nopen %v\nref  %v", openB.Top(), refB.Top())
			}
			if !reflect.DeepEqual(open.Top(), openB.Top()) {
				t.Fatalf("open store: sequential vs batch diverges:\nseq   %v\nbatch %v",
					open.Top(), openB.Top())
			}
		})
	}
}
