package topk

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/streamsummary"
)

// alwaysProbe wraps a Stream-Summary store so the tracker no longer
// recognizes it as summaryStore: every packet then takes the generic
// interface path, which calls ContainsHashed before touching the sketch.
// It is the oracle the probe-skipping default path must match bit for bit.
type alwaysProbe struct{ summaryStore }

// gatePair builds a Stream-Summary tracker for opts and an always-probe
// oracle with the same options.
func gatePair(opts Options) (gated, oracle *Tracker) {
	opts.Store = StoreSummary
	gated = MustNew(opts)
	oracle = MustNew(opts)
	oracle.store = alwaysProbe{oracle.store.(summaryStore)}
	return gated, oracle
}

// sameTracker fails t unless gated and oracle agree on the top-k report,
// the sketch statistics, the sketch's serialized bytes and the store
// index's structure.
func sameTracker(t *testing.T, label string, gated, oracle *Tracker) {
	t.Helper()
	if g, o := gated.Sketch().Stats(), oracle.Sketch().Stats(); g != o {
		t.Fatalf("%s: sketch stats diverge:\ngated  %+v\noracle %+v", label, g, o)
	}
	if g, o := gated.Top(), oracle.Top(); !reflect.DeepEqual(g, o) {
		t.Fatalf("%s: top-k diverges:\ngated  %v\noracle %v", label, g, o)
	}
	var gb, ob bytes.Buffer
	if _, err := gated.Sketch().WriteTo(&gb); err != nil {
		t.Fatalf("%s: WriteTo: %v", label, err)
	}
	if _, err := oracle.Sketch().WriteTo(&ob); err != nil {
		t.Fatalf("%s: WriteTo: %v", label, err)
	}
	if !bytes.Equal(gb.Bytes(), ob.Bytes()) {
		t.Fatalf("%s: sketch bytes diverge (%d vs %d bytes)", label, gb.Len(), ob.Len())
	}
	if g, o := summaryOf(gated).IndexStats(), summaryOf(oracle).IndexStats(); !reflect.DeepEqual(g, o) {
		t.Fatalf("%s: store index stats diverge:\ngated  %+v\noracle %+v", label, g, o)
	}
}

// summaryOf returns the Stream-Summary under tr's store, wrapped or not.
func summaryOf(tr *Tracker) *streamsummary.Summary {
	if w, ok := tr.store.(alwaysProbe); ok {
		return w.s
	}
	return tr.store.(summaryStore).s
}

// feedAll drives stream through gated and oracle in the three ingest
// shapes — sequential Insert, InsertBatch and InsertBatchHashed — using
// batches of varying length, and checks each pair for agreement.
func feedAll(t *testing.T, opts Options, stream [][]byte) {
	t.Helper()
	gated, oracle := gatePair(opts)
	for _, k := range stream {
		gated.Insert(k)
		oracle.Insert(k)
	}
	sameTracker(t, "sequential", gated, oracle)

	gated, oracle = gatePair(opts)
	gatedH, oracleH := gatePair(opts)
	for off := 0; off < len(stream); {
		n := min(1+(off*7)%613, len(stream)-off)
		batch := stream[off : off+n]
		gated.InsertBatch(batch)
		oracle.InsertBatch(batch)
		hs := make([]uint64, n)
		for i, k := range batch {
			hs[i] = gatedH.KeyHash(k)
		}
		gatedH.InsertBatchHashed(batch, hs)
		oracleH.InsertBatchHashed(batch, hs)
		off += n
	}
	sameTracker(t, "batched", gated, oracle)
	sameTracker(t, "hashed batch", gatedH, oracleH)
	sameTracker(t, "batched vs hashed batch", gated, gatedH)
}

// TestProbeGateMatchesAlwaysProbe runs a fixed grid of the options that
// bear on the Theorem 1 argument — tiny fingerprints (collisions), narrow
// counters (saturation), auto-expansion (d leaves 2 mid-stream) and both
// optimizations on and off — and requires the probe-skipping tracker to
// match the always-probe oracle in every ingest shape.
func TestProbeGateMatchesAlwaysProbe(t *testing.T) {
	stream, _ := zipfStream(t, 30_000, 3_000, 17)
	for _, fpBits := range []uint{1, 3, 16} {
		for _, ctrBits := range []uint{3, 32} {
			for _, expand := range []uint64{0, 40} {
				for _, flags := range []int{0, 1, 2, 3} {
					opts := Options{
						K:            20,
						Version:      Parallel,
						DisableOptI:  flags&1 != 0,
						DisableOptII: flags&2 != 0,
						Sketch: core.Config{
							W: 128, Seed: 3, FingerprintBits: fpBits, CounterBits: ctrBits,
							ExpandThreshold: expand, LargeC: 4, MaxArrays: 4,
						},
					}
					name := fmt.Sprintf("fp=%d/ctr=%d/expand=%d/optI=%v/optII=%v",
						fpBits, ctrBits, expand, !opts.DisableOptI, !opts.DisableOptII)
					t.Run(name, func(t *testing.T) { feedAll(t, opts, stream) })
				}
			}
		}
	}
}

// FuzzProbeGate is the differential fuzz target for the store-probe gate:
// the fuzzer picks the stream and every sizing and option the Theorem 1
// argument depends on, and the default tracker must equal the always-probe
// oracle sequentially and batched.
func FuzzProbeGate(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(10), uint16(64), uint8(16), uint8(32), uint8(0), false, false)
	f.Add(uint64(2), uint16(3000), uint8(30), uint16(32), uint8(2), uint8(3), uint8(0), false, false)
	f.Add(uint64(3), uint16(800), uint8(5), uint16(16), uint8(1), uint8(2), uint8(20), true, false)
	f.Add(uint64(4), uint16(2000), uint8(50), uint16(128), uint8(4), uint8(32), uint8(10), false, true)
	f.Add(uint64(5), uint16(100), uint8(1), uint16(8), uint8(3), uint8(4), uint8(3), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, flows uint16, k uint8, w uint16,
		fpBits, ctrBits, expand uint8, noOptI, noOptII bool) {
		opts := Options{
			K:            1 + int(k)%64,
			Version:      Parallel,
			DisableOptI:  noOptI,
			DisableOptII: noOptII,
			Sketch: core.Config{
				W:               1 + int(w)%512,
				Seed:            seed,
				FingerprintBits: 1 + uint(fpBits)%32,
				CounterBits:     1 + uint(ctrBits)%32,
				ExpandThreshold: uint64(expand),
				LargeC:          1 + uint32(expand)%8,
				MaxArrays:       4,
			},
		}
		stream, _ := zipfStream(t, 4_000, 1+int(flows)%4096, seed)
		feedAll(t, opts, stream)
	})
}
