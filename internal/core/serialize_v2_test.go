package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/xrand"
)

// encodeV2Empty builds a syntactically valid, all-empty version-2 snapshot
// frame: [version=2, d, w, fpSeed, seeds[d], d*w × (fp uint32, c uint32)],
// little-endian, with seeds drawn from a SplitMix64 stream — the per-array
// seed format that predates the one-hash derivation. ReadFrom rejects it.
func encodeV2Empty(d, w int, seed uint64) []byte {
	var buf bytes.Buffer
	sm := xrand.NewSplitMix64(seed)
	seeds := make([]uint64, d)
	for i := range seeds {
		seeds[i] = sm.Next()
	}
	fpSeed := sm.Next()
	for _, v := range []uint64{2, uint64(d), uint64(w), fpSeed} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	binary.Write(&buf, binary.LittleEndian, seeds)
	binary.Write(&buf, binary.LittleEndian, make([]uint32, 2*d*w))
	return buf.Bytes()
}

// TestSnapshotV2Corrupt: version-2 frames, intact or malformed, must return
// ErrCorrupt, not panic and not partially apply.
func TestSnapshotV2Corrupt(t *testing.T) {
	frame := encodeV2Empty(2, 8, 1)
	s := MustNew(Config{W: 8, Seed: 1})
	for i := 0; i < 200; i++ {
		s.InsertBasic(key(i % 13))
	}
	var before bytes.Buffer
	if _, err := s.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"intact":           func(b []byte) []byte { return b },
		"truncated-header": func(b []byte) []byte { return b[:12] },
		"truncated-seeds":  func(b []byte) []byte { return b[:40] },
		"truncated-cells":  func(b []byte) []byte { return b[:len(b)-5] },
		"huge-d": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(c[8:16], 1<<40)
			return c
		},
		"zero-d": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(c[8:16], 0)
			return c
		},
		"wrong-w": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(c[16:24], 9)
			return c
		},
	} {
		if _, err := s.ReadFrom(bytes.NewReader(mutate(frame))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		var after bytes.Buffer
		if _, err := s.WriteTo(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: failed decode modified the receiver", name)
		}
	}
}

// TestSnapshotV3VersionTag pins the on-wire version of freshly written
// snapshots.
func TestSnapshotV3VersionTag(t *testing.T) {
	s := MustNew(Config{W: 8, Seed: 1})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(buf.Bytes()[:8]); v != 3 {
		t.Errorf("fresh snapshot version = %d, want 3", v)
	}
}
