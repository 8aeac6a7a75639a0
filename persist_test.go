package heavykeeper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// patchU32 returns a copy of raw with a little-endian uint32 written at
// offset.
func patchU32(raw []byte, off int, v uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

func patchByte(raw []byte, off int, v byte) []byte {
	out := append([]byte(nil), raw...)
	out[off] = v
	return out
}

// ingestZipfish feeds a deterministic skewed keyset: flow i appears
// roughly n/(i+1) times, so the top of the distribution is stable.
func ingestZipfish(s Summarizer, flows, packets int) {
	for p := 0; p < packets; p++ {
		i := 0
		for r := p; r%2 == 1 && i < flows-1; r /= 2 {
			i++
		}
		s.Add(fmt.Appendf(nil, "flow-%05d", i%flows))
	}
}

func summarizersEqual(t *testing.T, a, b Summarizer, probes [][]byte) {
	t.Helper()
	la, lb := a.List(), b.List()
	if len(la) != len(lb) {
		t.Fatalf("list lengths differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if !bytes.Equal(la[i].ID, lb[i].ID) || la[i].Count != lb[i].Count {
			t.Fatalf("list[%d]: %q/%d vs %q/%d", i, la[i].ID, la[i].Count, lb[i].ID, lb[i].Count)
		}
	}
	for _, p := range probes {
		if qa, qb := a.Query(p), b.Query(p); qa != qb {
			t.Fatalf("query %q: %d vs %d", p, qa, qb)
		}
	}
}

func persistProbes() [][]byte {
	probes := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		probes = append(probes, fmt.Appendf(nil, "flow-%05d", i))
	}
	return probes
}

func TestSnapshotRoundTripFrontends(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"topk", nil},
		{"topk-minimum", []Option{WithVersion(VersionMinimum)}},
		{"concurrent", []Option{WithConcurrency()}},
		{"sharded", []Option{WithShards(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := MustNew(10, append([]Option{WithSeed(7), WithMemory(16 << 10)}, tc.opts...)...)
			ingestZipfish(orig, 500, 20000)

			w, ok := orig.(SnapshotWriter)
			if !ok {
				t.Fatalf("%T does not implement SnapshotWriter", orig)
			}
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			restored, err := ReadSummarizer(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadSummarizer: %v", err)
			}
			if fmt.Sprintf("%T", restored) != fmt.Sprintf("%T", orig) {
				t.Fatalf("restored as %T, wrote a %T", restored, orig)
			}
			probes := persistProbes()
			summarizersEqual(t, orig, restored, probes)

			// The restored summarizer keeps ingesting identically: feed both
			// sides the same continuation and they must stay equal.
			ingestZipfish(orig, 500, 5000)
			ingestZipfish(restored, 500, 5000)
			summarizersEqual(t, orig, restored, probes)
		})
	}
}

func TestReadTopKKindStrict(t *testing.T) {
	c := MustNew(5, WithConcurrency())
	ingestZipfish(c, 50, 1000)
	var buf bytes.Buffer
	if _, err := c.(SnapshotWriter).WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := ReadTopK(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadTopK on a Concurrent container: got %v, want ErrCorrupt", err)
	}

	tk := MustNew(5)
	ingestZipfish(tk, 50, 1000)
	buf.Reset()
	if _, err := tk.(*TopK).WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTopK(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTopK: %v", err)
	}
	summarizersEqual(t, tk, got, persistProbes())
}

func TestSnapshotRestoredMetadata(t *testing.T) {
	tk := MustNew(7, WithSeed(3), WithVersion(VersionMinimum)).(*TopK)
	var buf bytes.Buffer
	if _, err := tk.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTopK(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTopK: %v", err)
	}
	if got.K() != 7 {
		t.Errorf("restored K = %d, want 7", got.K())
	}
	if got.Version() != VersionMinimum {
		t.Errorf("restored Version = %v, want minimum", got.Version())
	}
	if got.Algorithm() != AlgorithmHeavyKeeperMinimum {
		t.Errorf("restored Algorithm = %q", got.Algorithm())
	}
}

func TestSnapshotRestoredMergeable(t *testing.T) {
	a := MustNew(10, WithSeed(11)).(*TopK)
	b := MustNew(10, WithSeed(11)).(*TopK)
	ingestZipfish(a, 200, 8000)
	ingestZipfish(b, 300, 8000)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	ra, err := ReadTopK(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTopK: %v", err)
	}
	// A restored sketch is seed-compatible with its siblings: merging must
	// succeed and match merging the original.
	if err := ra.Merge(b); err != nil {
		t.Fatalf("merge into restored: %v", err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge into original: %v", err)
	}
	summarizersEqual(t, a, ra, persistProbes())
}

func TestSnapshotUnsupportedEngines(t *testing.T) {
	ss := MustNew(10, WithAlgorithm("spacesaving"))
	var buf bytes.Buffer
	if _, err := ss.(*TopK).WriteTo(&buf); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("spacesaving WriteTo: got %v, want ErrSnapshotUnsupported", err)
	}
}

func TestSnapshotCorruptInputs(t *testing.T) {
	tk := MustNew(10, WithSeed(1)).(*TopK)
	ingestZipfish(tk, 100, 4000)
	var buf bytes.Buffer
	if _, err := tk.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	raw := buf.Bytes()

	// A two-shard container spliced from tk's section and the section of a
	// tracker built under another seed: Sharded routes every key by shard
	// 0's seed, so shard 1 could never see its restored counts again.
	other := MustNew(10, WithSeed(2)).(*TopK)
	ingestZipfish(other, 100, 4000)
	var otherBuf bytes.Buffer
	if _, err := other.WriteTo(&otherBuf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	mixedSeeds := append([]byte(nil), raw[:4]...)
	mixedSeeds = append(mixedSeeds, 3) // kind: Sharded
	mixedSeeds = binary.LittleEndian.AppendUint32(mixedSeeds, 2)
	mixedSeeds = binary.LittleEndian.AppendUint64(mixedSeeds, 7)
	mixedSeeds = binary.LittleEndian.AppendUint32(mixedSeeds, 10)
	mixedSeeds = append(mixedSeeds, raw[5:]...)
	mixedSeeds = append(mixedSeeds, otherBuf.Bytes()[5:]...)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{0, 0, 0, 0}, raw[4:]...)},
		{"bad kind", append(append([]byte{}, raw[:4]...), append([]byte{99}, raw[5:]...)...)},
		{"truncated header", raw[:6]},
		{"truncated body", raw[:len(raw)/2]},
		{"truncated mid-entry", raw[:len(raw)-3]},
		// Structural-size fields live at fixed offsets behind the 5-byte
		// container prefix and 4 section bytes: k at 9, d at 13, w at 17.
		// Absurd declarations must come back as ErrCorrupt, never as a
		// giant allocation or a makeslice panic.
		{"huge k", patchU32(raw, 9, 1<<28)},
		{"huge geometry", patchU32(patchU32(raw, 13, 3037000500), 17, 3037000500)},
		// The store byte sits behind the prefix and the section and version
		// bytes, at 7; Stream-Summary (1) is the only store it may name.
		{"store byte 0", patchByte(raw, 7, 0)},
		{"store byte 2", patchByte(raw, 7, 2)},
		// The container ends with the top-k entries, 22 bytes each (u32
		// length, a 10-byte key, u64 count). An entry repeating its
		// predecessor's key must be rejected, not panic in the store.
		{"duplicate entry", func() []byte {
			out := append([]byte(nil), raw...)
			n := len(out)
			copy(out[n-18:n-8], out[n-40:n-30])
			return out
		}()},
		{"shard key seeds differ", mixedSeeds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSummarizer(bytes.NewReader(tc.data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// snapshotFrameBoundaries parses a WriteSnapshot envelope and returns
// every frame boundary offset: after the magic, after each frame, and
// the end of the terminator.
func snapshotFrameBoundaries(t *testing.T, raw []byte) []int {
	t.Helper()
	if len(raw) < 4 || string(raw[:4]) != "HKC1" {
		t.Fatalf("not a checksummed envelope (%d bytes)", len(raw))
	}
	bounds := []int{4}
	off := 4
	for {
		if off+4 > len(raw) {
			t.Fatalf("envelope ends mid frame header at %d", off)
		}
		length := int(binary.LittleEndian.Uint32(raw[off:]))
		if length == 0 {
			off += 8 // terminator: zero length + stream checksum
			bounds = append(bounds, off)
			break
		}
		off += 4 + length + 4
		bounds = append(bounds, off)
	}
	if off != len(raw) {
		t.Fatalf("envelope has %d bytes after terminator", len(raw)-off)
	}
	return bounds
}

// checksummedFrontends is the frontend-kind matrix the corruption
// fallback tests sweep: every container kind, and both optimized
// disciplines, that can appear inside an envelope.
func checksummedFrontends() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"topk", nil},
		{"topk-minimum", []Option{WithVersion(VersionMinimum)}},
		{"concurrent", []Option{WithConcurrency()}},
		{"sharded", []Option{WithShards(3)}},
	}
}

func TestChecksummedSnapshotRoundTrip(t *testing.T) {
	for _, tc := range checksummedFrontends() {
		t.Run(tc.name, func(t *testing.T) {
			orig := MustNew(10, append([]Option{WithSeed(7), WithMemory(16 << 10)}, tc.opts...)...)
			ingestZipfish(orig, 500, 20000)
			var buf bytes.Buffer
			if _, err := WriteSnapshot(&buf, orig.(SnapshotWriter)); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if fmt.Sprintf("%T", restored) != fmt.Sprintf("%T", orig) {
				t.Fatalf("restored as %T, wrote a %T", restored, orig)
			}
			summarizersEqual(t, orig, restored, persistProbes())
		})
	}
}

// TestChecksummedSnapshotCorruptionMatrix is the torn-write sweep: for
// every frontend kind, the envelope is truncated at every frame boundary
// (and one byte either side of each) — every prefix must be rejected as
// ErrCorrupt, never restored and never a panic.
func TestChecksummedSnapshotCorruptionMatrix(t *testing.T) {
	for _, tc := range checksummedFrontends() {
		t.Run(tc.name, func(t *testing.T) {
			orig := MustNew(8, append([]Option{WithSeed(3), WithMemory(8 << 10)}, tc.opts...)...)
			ingestZipfish(orig, 200, 8000)
			var buf bytes.Buffer
			if _, err := WriteSnapshot(&buf, orig.(SnapshotWriter)); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			raw := buf.Bytes()
			cuts := map[int]bool{0: true, 1: true, 3: true}
			for _, b := range snapshotFrameBoundaries(t, raw) {
				for _, cut := range []int{b - 1, b, b + 1} {
					if cut >= 0 && cut < len(raw) {
						cuts[cut] = true
					}
				}
			}
			for cut := range cuts {
				if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCorrupt) {
					t.Errorf("truncated at %d/%d: got %v, want ErrCorrupt", cut, len(raw), err)
				}
			}
		})
	}
}

// TestChecksummedSnapshotBitFlips corrupts one byte at a spread of
// offsets; the envelope checksum must catch every flip.
func TestChecksummedSnapshotBitFlips(t *testing.T) {
	orig := MustNew(8, WithSeed(9), WithMemory(8<<10))
	ingestZipfish(orig, 200, 8000)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, orig.(SnapshotWriter)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	raw := buf.Bytes()
	for off := 0; off < len(raw); off += 37 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at %d/%d restored successfully", off, len(raw))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at %d: got %v, want ErrCorrupt", off, err)
		}
	}
	// Trailing garbage after a valid terminator is also corruption.
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), raw...), 0xFF))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

// TestReadSnapshotLegacyContainer: a bare WriteTo container (no envelope)
// is not a snapshot. ReadSnapshot and VerifySnapshot both reject it, while
// ReadSummarizer, WriteTo's own reader, still decodes it.
func TestReadSnapshotLegacyContainer(t *testing.T) {
	orig := MustNew(10, WithSeed(5), WithConcurrency())
	ingestZipfish(orig, 300, 10000)
	var buf bytes.Buffer
	if _, err := orig.(SnapshotWriter).WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadSnapshot of a bare container: got %v, want ErrCorrupt", err)
	}
	if err := VerifySnapshot(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("VerifySnapshot of a bare container: got %v, want ErrCorrupt", err)
	}
	restored, err := ReadSummarizer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSummarizer: %v", err)
	}
	summarizersEqual(t, orig, restored, persistProbes())
}

// TestVerifySnapshot: the streamed integrity gate must agree with
// ReadSnapshot on every intact envelope, every truncation and every bit
// flip — without decoding the container.
func TestVerifySnapshot(t *testing.T) {
	orig := MustNew(8, WithSeed(21), WithMemory(8<<10))
	ingestZipfish(orig, 200, 8000)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, orig.(SnapshotWriter)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	raw := buf.Bytes()
	if err := VerifySnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("intact envelope rejected: %v", err)
	}
	for cut := 0; cut < len(raw); cut += 13 {
		if err := VerifySnapshot(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated at %d/%d: got %v, want ErrCorrupt", cut, len(raw), err)
		}
	}
	for off := 0; off < len(raw); off += 29 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x08
		if err := VerifySnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at %d/%d: got %v, want ErrCorrupt", off, len(raw), err)
		}
	}
	if err := VerifySnapshot(bytes.NewReader(append(append([]byte(nil), raw...), 0x00))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: got %v, want ErrCorrupt", err)
	}
	// A bare container has no envelope to verify.
	var bare bytes.Buffer
	if _, err := orig.(SnapshotWriter).WriteTo(&bare); err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshot(bytes.NewReader(bare.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bare container: got %v, want ErrCorrupt", err)
	}
}

func TestWriteSnapshotUnsupportedEngine(t *testing.T) {
	ss := MustNew(10, WithAlgorithm("spacesaving"))
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, ss.(SnapshotWriter)); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("got %v, want ErrSnapshotUnsupported", err)
	}
}
