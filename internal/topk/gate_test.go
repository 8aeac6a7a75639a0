package topk

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// alwaysProbeInsert is the oracle the probe-skipping tracker must match
// bit for bit: Algorithm 1/2 with the store probed on every packet. Step 1
// takes the membership flag unconditionally, Step 2 inserts into the sketch
// gated by gateNMin's n_min, Step 3 applies the admission rule. It shares
// no code with insertHashedSummary beyond the store and sketch primitives.
func alwaysProbeInsert(t *Tracker, key []byte) {
	h := t.KeyHash(key)
	ss := t.store
	probe, flag := ss.ProbeHashed(key, h)
	nmin := t.gateNMin(flag)
	var est uint64
	if t.opts.Version == Minimum {
		est = uint64(t.sk.InsertMinimumHashed(key, h, flag, nmin))
	} else {
		est = uint64(t.sk.InsertParallelHashed(key, h, flag, nmin))
	}
	admit := func() {
		if ss.Full() {
			ss.EvictMin()
		}
		ss.InsertHashed(key, h, est, 0)
	}
	switch {
	case flag:
		ss.UpdateMaxProbe(probe, est)
	case est == 0:
	case !ss.Full():
		admit()
	case t.opts.DisableOptI:
		if est > ss.MinCount() {
			admit()
		}
	case est == ss.MinCount()+1:
		admit()
	}
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
	if g, o := gated.StoreIndexStats(), oracle.StoreIndexStats(); !reflect.DeepEqual(g, o) {
		t.Fatalf("%s: store index stats diverge:\ngated  %+v\noracle %+v", label, g, o)
	}
}

// feedAll drives stream through the always-probe oracle and through
// trackers in the three ingest shapes — sequential Insert, InsertBatch and
// InsertBatchHashed, the batches of varying length — and checks each shape
// against the oracle.
func feedAll(t *testing.T, opts Options, stream [][]byte) {
	t.Helper()
	oracle := MustNew(opts)
	seq, bat, batH := MustNew(opts), MustNew(opts), MustNew(opts)
	for _, k := range stream {
		alwaysProbeInsert(oracle, k)
		seq.Insert(k)
	}
	for off := 0; off < len(stream); {
		n := min(1+(off*7)%613, len(stream)-off)
		batch := stream[off : off+n]
		bat.InsertBatch(batch)
		hs := make([]uint64, n)
		for i, k := range batch {
			hs[i] = batH.KeyHash(k)
		}
		batH.InsertBatchHashed(batch, hs)
		off += n
	}
	sameTracker(t, "sequential", seq, oracle)
	sameTracker(t, "batched", bat, oracle)
	sameTracker(t, "hashed batch", batH, oracle)
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
