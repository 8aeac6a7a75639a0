package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// snapshotVersion is the sketch frame format: version 3 stores the one-hash
// derivation seeds and the packed []uint64 cell slab verbatim. It is the
// only version WriteTo emits and ReadFrom accepts; frames of earlier
// versions (v1 indexed buckets modulo W, v2 hashed every array with its own
// seed) place flows in ways the one-hash derivation cannot reproduce, so
// they fail with ErrCorrupt.
const snapshotVersion = 3

// maxSnapshotArrays bounds the array count a snapshot may declare. Real
// sketches hold a handful of arrays (expansion adds them one at a time, and
// every insert walks all of them, so thousands would be unusable anyway).
// Together with the row-at-a-time cell reads below — which keep the decoder's
// allocation proportional to bytes actually received rather than to the
// declared d·W — the bound stops a corrupt or adversarial header from
// provoking work the stream never backs up.
const maxSnapshotArrays = 1 << 12

// WriteTo serializes the sketch's bucket contents and structural parameters
// to w. Configuration closures (the decay function) are not serialized; the
// reader must construct a sketch with the same Config and call ReadFrom.
// The format is little-endian: version, d, w, seeds, then cells.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	header := []uint64{
		snapshotVersion,
		uint64(s.d),
		uint64(s.cfg.W),
		s.keySeed,
		s.h1Seed,
		s.h2Seed,
		s.fpSeed,
	}
	for _, h := range header {
		if err := write(h); err != nil {
			return n, err
		}
	}
	if err := write(s.slab); err != nil {
		return n, err
	}
	return n, nil
}

// ReadFrom restores bucket contents and seeds previously written by WriteTo
// into s. The receiving sketch must have been constructed with a matching W;
// arrays are grown if the snapshot had expanded. The stored seeds replace
// the receiver's so that queries hash identically to the snapshot's writer.
// Any malformed, truncated or oversized frame returns an error matching
// ErrCorrupt (errors.Is), wrapping the underlying reader error when there
// was one so transient I/O causes stay diagnosable — decoding never panics
// and never partially mutates s. Cells are read one array row at a time, so
// a frame whose header declares more data than the stream carries fails
// without the decoder ever allocating ahead of the bytes actually received.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	var readErr error
	read := func(v any) bool {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			readErr = err
			return false
		}
		n += int64(binary.Size(v))
		return true
	}
	// corrupt reports decode failure, preserving the reader's own error (if
	// any) underneath ErrCorrupt.
	corrupt := func() error {
		if readErr != nil {
			return fmt.Errorf("%w: %w", ErrCorrupt, readErr)
		}
		return ErrCorrupt
	}
	var version, d, w uint64
	for _, p := range []*uint64{&version, &d, &w} {
		if !read(p) {
			return n, corrupt()
		}
	}
	if version != snapshotVersion {
		return n, fmt.Errorf("%w: sketch frame version %d, want %d", ErrCorrupt, version, snapshotVersion)
	}
	if d == 0 || d > maxSnapshotArrays || w == 0 || int(w) != s.cfg.W {
		return n, corrupt()
	}

	var keySeed, h1Seed, h2Seed, fpSeed uint64
	for _, p := range []*uint64{&keySeed, &h1Seed, &h2Seed, &fpSeed} {
		if !read(p) {
			return n, corrupt()
		}
	}
	slab := make([]uint64, 0, s.cfg.W)
	row := make([]uint64, s.cfg.W)
	for j := 0; j < int(d); j++ {
		if !read(row) {
			return n, corrupt()
		}
		slab = append(slab, row...)
	}
	s.slab = slab
	s.d = int(d)
	s.keySeed, s.h1Seed, s.h2Seed, s.fpSeed = keySeed, h1Seed, h2Seed, fpSeed
	return n, nil
}
