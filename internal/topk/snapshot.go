package topk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/streamsummary"
)

// Tracker snapshot format. The tracker section rides the sketch's own v3
// frame unchanged and wraps it, together with the structural options and
// the top-k store contents, in a small framed container:
//
//	u8   section version (1)
//	u8   insertion discipline (Version)
//	u8   store kind (always StoreSummary)
//	u8   flags: bit0 DisableOptI, bit1 DisableOptII
//	u32  K
//	u32  D, u32 W, u64 B (float bits), u32 FingerprintBits,
//	u32  CounterBits, u64 Seed, u64 ExpandThreshold, u32 MaxArrays,
//	u32  LargeC                     — the core.Config to rebuild from
//	u32  sketch frame length, then that many bytes (core WriteTo)
//	u32  entry count (<= K), then per entry:
//	       u32 key length | key bytes | u64 count
//
// Entries are written in descending count order (Top) and restored
// by ascending insertion, the same discipline MergeFrom uses, so
// Stream-Summary recency tie-breaking is not reordered by a round trip.
// All integers are little-endian. Every decode failure matches
// core.ErrCorrupt via errors.Is and never panics; oversized declarations
// are rejected before any proportional allocation.
const (
	trackerSnapshotVersion = 1
	// maxSnapshotKeyLen bounds one stored key. Flow identifiers are
	// 4-13 bytes in every trace shape this repo handles; 64 KiB leaves
	// room for arbitrary item keys while stopping a corrupt length from
	// provoking a giant allocation.
	maxSnapshotKeyLen = 1 << 16
	// maxSnapshotSketchLen bounds the embedded sketch frame (64 MiB —
	// far above any real configuration, small enough to refuse absurd
	// headers outright).
	maxSnapshotSketchLen = 64 << 20
	// maxSnapshotK bounds the declared report size. k is structural — the
	// store is allocated at that capacity before any entry bytes arrive —
	// so a corrupt header must not be able to demand gigabytes; 1M
	// entries is four orders of magnitude past the paper's k.
	maxSnapshotK = 1 << 20
	// maxSnapshotArrays mirrors the core decoder's array bound.
	maxSnapshotArrays = 1 << 12
)

// errNotSerializable marks tracker state that cannot be captured
// byte-exactly (a custom decay closure, or a stored key beyond the
// format's length bound).
var errNotSerializable = errors.New("topk: tracker state is not serializable")

// WriteTo serializes the tracker — structural options, sketch buckets and
// the current top-k store contents — so ReadTracker can rebuild an
// equivalent tracker without out-of-band configuration. Trackers built
// with a custom Decay function are rejected: closures do not serialize.
func (t *Tracker) WriteTo(w io.Writer) (int64, error) {
	if t.opts.Sketch.Decay != nil {
		return 0, errNotSerializable
	}
	var n int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	cfg := t.sk.Config()
	head := []any{
		uint8(trackerSnapshotVersion),
		uint8(t.opts.Version),
		uint8(StoreSummary),
		packFlags(t.opts),
		uint32(t.opts.K),
		uint32(cfg.D), uint32(cfg.W), math.Float64bits(cfg.B),
		uint32(cfg.FingerprintBits), uint32(cfg.CounterBits),
		cfg.Seed, cfg.ExpandThreshold, uint32(cfg.MaxArrays), cfg.LargeC,
	}
	for _, v := range head {
		if err := write(v); err != nil {
			return n, err
		}
	}
	var sk bytesBuffer
	if _, err := t.sk.WriteTo(&sk); err != nil {
		return n, err
	}
	if err := write(uint32(len(sk.b))); err != nil {
		return n, err
	}
	if err := write(sk.b); err != nil {
		return n, err
	}
	entries := t.Top()
	if err := write(uint32(len(entries))); err != nil {
		return n, err
	}
	for _, e := range entries {
		// ReadTracker rejects longer keys, so refuse to write a snapshot
		// that could never be restored.
		if len(e.Key) > maxSnapshotKeyLen {
			return n, fmt.Errorf("%w: key of %d bytes exceeds the %d-byte snapshot limit",
				errNotSerializable, len(e.Key), maxSnapshotKeyLen)
		}
		if err := write(uint32(len(e.Key))); err != nil {
			return n, err
		}
		if err := write([]byte(e.Key)); err != nil {
			return n, err
		}
		if err := write(e.Count); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Options returns the tracker's construction options (the restored
// options for a ReadTracker-built tracker); frontends rebuilding their
// own configuration from a snapshot read them back here.
func (t *Tracker) Options() Options { return t.opts }

// bytesBuffer is a minimal in-memory writer (avoids importing bytes just
// for one buffer).
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// packFlags encodes the ablation switches.
func packFlags(o Options) uint8 {
	var f uint8
	if o.DisableOptI {
		f |= 1
	}
	if o.DisableOptII {
		f |= 2
	}
	return f
}

// ReadTracker rebuilds a tracker from a WriteTo frame. The returned
// tracker is fully operational: the sketch buckets, hash seeds and top-k
// store contents match the writer's, so queries and further ingest
// continue where the writer stopped (ingest event counters restart at
// zero). Any malformed, truncated or oversized frame returns an error
// matching core.ErrCorrupt, wrapping the underlying reader error when
// there was one; decoding never panics.
func ReadTracker(r io.Reader) (*Tracker, error) {
	var readErr error
	read := func(v any) bool {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			readErr = err
			return false
		}
		return true
	}
	corrupt := func() error {
		if readErr != nil {
			return fmt.Errorf("%w: %w", core.ErrCorrupt, readErr)
		}
		return fmt.Errorf("%w: invalid tracker snapshot", core.ErrCorrupt)
	}

	var section, version, store, flags uint8
	var k uint32
	for _, p := range []*uint8{&section, &version, &store, &flags} {
		if !read(p) {
			return nil, corrupt()
		}
	}
	if section != trackerSnapshotVersion {
		return nil, corrupt()
	}
	if Version(version) != Basic && Version(version) != Parallel && Version(version) != Minimum {
		return nil, corrupt()
	}
	if StoreKind(store) != StoreSummary {
		return nil, corrupt()
	}
	if !read(&k) || k == 0 || k > maxSnapshotK {
		return nil, corrupt()
	}
	var d, w, fpBits, counterBits, maxArrays, largeC uint32
	var bBits, seed, expand uint64
	for _, step := range []func() bool{
		func() bool { return read(&d) }, func() bool { return read(&w) },
		func() bool { return read(&bBits) }, func() bool { return read(&fpBits) },
		func() bool { return read(&counterBits) }, func() bool { return read(&seed) },
		func() bool { return read(&expand) }, func() bool { return read(&maxArrays) },
		func() bool { return read(&largeC) },
	} {
		if !step() {
			return nil, corrupt()
		}
	}
	b := math.Float64frombits(bBits)
	if !(b > 1) || math.IsInf(b, 0) { // NaN fails the comparison too
		return nil, corrupt()
	}
	// Bound the sketch geometry before core.New allocates d*w cells: the
	// slab a valid frame can actually back is capped by the sketch-frame
	// length bound, so anything larger is corruption, not configuration.
	if d == 0 || d > maxSnapshotArrays || w == 0 ||
		uint64(d)*uint64(w) > maxSnapshotSketchLen/8 {
		return nil, corrupt()
	}
	opts := Options{
		K:            int(k),
		Version:      Version(version),
		Store:        StoreKind(store),
		DisableOptI:  flags&1 != 0,
		DisableOptII: flags&2 != 0,
		Sketch: core.Config{
			D:               int(d),
			W:               int(w),
			B:               b,
			FingerprintBits: uint(fpBits),
			CounterBits:     uint(counterBits),
			Seed:            seed,
			ExpandThreshold: expand,
			MaxArrays:       int(maxArrays),
			LargeC:          largeC,
		},
	}
	sk, err := core.New(opts.Sketch)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrCorrupt, err)
	}
	var sketchLen uint32
	if !read(&sketchLen) || sketchLen > maxSnapshotSketchLen {
		return nil, corrupt()
	}
	lim := io.LimitReader(r, int64(sketchLen))
	consumed, err := sk.ReadFrom(lim)
	if err != nil {
		return nil, err // already core.ErrCorrupt-matching
	}
	if consumed != int64(sketchLen) {
		return nil, corrupt()
	}
	var count uint32
	if !read(&count) || count > k {
		return nil, corrupt()
	}
	// Grow with the bytes actually received rather than trusting the
	// declared count for a proportional up-front allocation.
	entries := make([]Entry, 0, min(count, 4096))
	for i := uint32(0); i < count; i++ {
		var klen uint32
		if !read(&klen) || klen > maxSnapshotKeyLen {
			return nil, corrupt()
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(r, key); err != nil {
			readErr = err
			return nil, corrupt()
		}
		var c uint64
		if !read(&c) {
			return nil, corrupt()
		}
		entries = append(entries, Entry{Key: string(key), Count: c})
	}
	// The store index is seeded with the restored sketch's key seed (which
	// ReadFrom may have replaced), so precomputed hashes keep agreeing.
	st := streamsummary.NewSeeded(opts.K, sk.KeySeed())
	for i := len(entries) - 1; i >= 0; i-- {
		if st.Contains(entries[i].Key) {
			return nil, fmt.Errorf("%w: duplicate top-k entry", core.ErrCorrupt)
		}
		st.Insert(entries[i].Key, entries[i].Count, 0)
	}
	return &Tracker{sk: sk, store: st, opts: opts}, nil
}
