package core

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode throws arbitrary byte streams at the snapshot decoder. The
// contract: a frame either decodes into a usable sketch or fails with
// ErrCorrupt — never a panic, never another error class, never a
// pathological allocation. The seed corpus holds v3 (packed one-hash)
// frames and v2 (per-array seed) frames, which must fail, plus
// truncations and header mutations of each.
func FuzzDecode(f *testing.F) {
	v3 := func() []byte {
		s := MustNew(Config{W: 8, Seed: 1})
		for i := 0; i < 500; i++ {
			s.InsertBasic(key(i % 30))
		}
		var buf bytes.Buffer
		s.WriteTo(&buf)
		return buf.Bytes()
	}()
	v2 := encodeV2Empty(2, 8, 42)

	f.Add(v3)
	f.Add(v2)
	f.Add(v3[:9])
	f.Add(v2[:25])
	f.Add([]byte{})
	for _, frame := range [][]byte{v3, v2} {
		for _, cut := range []int{1, 8, 16, 24, 31, len(frame) - 1} {
			if cut < len(frame) {
				f.Add(frame[:cut])
			}
		}
		mutated := append([]byte(nil), frame...)
		mutated[0] ^= 0xff
		f.Add(mutated)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := MustNew(Config{W: 8, Seed: 1})
		if _, err := s.ReadFrom(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		// A frame that decoded must leave the sketch fully usable.
		k := []byte("probe-flow")
		before := s.Query(k)
		est := s.InsertBasic(k)
		if est == 0 && s.Query(k) > before+1 {
			t.Fatalf("restored sketch inconsistent: insert est 0 but query grew %d -> %d",
				before, s.Query(k))
		}
		s.InsertParallelHashed(k, s.KeyHash(k), true, 0)
		s.InsertMinimumHashed(k, s.KeyHash(k), true, 0)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-encode of restored sketch failed: %v", err)
		}
	})
}
