package heavykeeper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/topk"
)

// Snapshot container format. Every frontend snapshot is a small framed
// container around one or more tracker sections (internal/topk snapshot
// format, which itself embeds the sketch's v3 frame):
//
//	u32  magic "HKS1"
//	u8   kind: 1 = TopK, 2 = one-shard Sharded (read only), 3 = Sharded
//	     kind 1, 2: one tracker section
//	     kind 3:    u32 shard count | u64 shard seed | u32 k |
//	                one tracker section per shard
//
// WriteTo on a frontend emits the container; ReadSummarizer rebuilds the
// frontend it describes (ReadTopK insists on kind 1). Kind 2 is what the
// mutex-guarded frontend that WithConcurrency once built wrote; it is no
// longer written, and reads back as the one-shard Sharded that
// WithConcurrency builds now, its shard seed derived from the section's
// seed. Only tracker-backed summarizers — the HeavyKeeper algorithm family
// — serialize; registry engines return ErrSnapshotUnsupported. All decode
// failures match ErrCorrupt via errors.Is and never panic.
//
// This is the restart-recovery surface the hkd daemon uses: snapshot
// periodically and on shutdown, restore on start, and the daemon resumes
// with the counts it had.
const (
	snapshotMagic = uint32('H')<<24 | uint32('K')<<16 | uint32('S')<<8 | '1'

	snapKindTopK       = 1
	snapKindConcurrent = 2
	snapKindSharded    = 3

	// maxSnapshotShards bounds the shard count a container may declare;
	// real deployments run one shard per core.
	maxSnapshotShards = 1 << 16
)

// SnapshotWriter is implemented by every summarizer with a snapshot
// format: TopK (kind 1) and Sharded (kind 3) over the HeavyKeeper
// algorithm family; nothing writes kind 2. WriteTo emits a container
// ReadSummarizer rebuilds; a registry-engine summarizer implements the
// interface but returns ErrSnapshotUnsupported at call time.
type SnapshotWriter interface {
	WriteTo(w io.Writer) (int64, error)
}

// Compile-time checks: the frontends expose the snapshot surface.
var (
	_ SnapshotWriter = (*TopK)(nil)
	_ SnapshotWriter = (*Sharded)(nil)
)

// WriteTo serializes the TopK — sketch buckets, hash seeds, structural
// configuration and current top-k candidates — so ReadTopK (or
// ReadSummarizer) can rebuild it without out-of-band configuration.
// Registry-engine TopKs return ErrSnapshotUnsupported: only the
// HeavyKeeper tracker family has a defined snapshot format.
func (t *TopK) WriteTo(w io.Writer) (int64, error) {
	tr, err := trackerOf(t)
	if err != nil {
		return 0, err
	}
	n, err := writeHeader(w, snapshotMagic, uint8(snapKindTopK))
	if err != nil {
		return n, err
	}
	wn, err := tr.WriteTo(w)
	return n + wn, err
}

// WriteTo serializes the Sharded, taking shard locks one at a time — under
// concurrent ingest the snapshot is per-shard consistent and slightly
// time-smeared across shards, exactly like List. See TopK.WriteTo for the
// format contract.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	n, err := writeHeader(w, snapshotMagic, uint8(snapKindSharded),
		uint32(len(s.shards)), s.shardSeed, uint32(s.k))
	if err != nil {
		return n, err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lock()
		tr, err := trackerOf(sh.t)
		if err == nil {
			var wn int64
			wn, err = tr.WriteTo(w)
			n += wn
		}
		sh.mu.Unlock()
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// writeHeader writes the container header fields, little-endian.
func writeHeader(w io.Writer, fields ...any) (int64, error) {
	var n int64
	for _, v := range fields {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return n, err
		}
		n += int64(binary.Size(v))
	}
	return n, nil
}

// trackerOf returns t's HeavyKeeper tracker, or ErrSnapshotUnsupported
// for a registry-engine TopK.
func trackerOf(t *TopK) (*topk.Tracker, error) {
	if tr := hkTracker(t.eng); tr != nil {
		return tr, nil
	}
	return nil, fmt.Errorf("%w: algorithm %q", ErrSnapshotUnsupported, t.eng.Name())
}

// ReadTopK rebuilds a *TopK from a TopK.WriteTo container. A container
// holding a different frontend kind is rejected (use ReadSummarizer for
// kind-dispatched restore); any malformed input matches ErrCorrupt.
func ReadTopK(r io.Reader) (*TopK, error) {
	s, err := ReadSummarizer(r)
	if err != nil {
		return nil, err
	}
	t, ok := s.(*TopK)
	if !ok {
		return nil, fmt.Errorf("%w: container holds a %T, not a *TopK", ErrCorrupt, s)
	}
	return t, nil
}

// ReadSummarizer rebuilds the summarizer a WriteTo container describes —
// a *TopK or *Sharded, fully operational with the writer's sketch
// contents, top-k candidates and configuration (ingest event counters
// restart at zero). Any malformed, truncated or oversized input
// returns an error matching ErrCorrupt; decoding never panics.
func ReadSummarizer(r io.Reader) (Summarizer, error) {
	var magic uint32
	var kind uint8
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad container magic %#x", ErrCorrupt, magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	switch kind {
	case snapKindTopK:
		t, err := readTopKSection(r)
		if err != nil {
			return nil, err
		}
		return t, nil
	case snapKindConcurrent:
		t, err := readTopKSection(r)
		if err != nil {
			return nil, err
		}
		return oneShard(t), nil
	case snapKindSharded:
		return readShardedSections(r)
	default:
		return nil, fmt.Errorf("%w: unknown container kind %d", ErrCorrupt, kind)
	}
}

// readTopKSection restores one tracker section as a *TopK.
func readTopKSection(r io.Reader) (*TopK, error) {
	tr, err := topk.ReadTracker(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return &TopK{eng: &hkEngine{t: tr}, k: tr.K(), seed: tr.Options().Sketch.Seed}, nil
}

// readShardedSections restores a sharded container.
func readShardedSections(r io.Reader) (*Sharded, error) {
	var shards, k uint32
	var shardSeed uint64
	for _, step := range []func() error{
		func() error { return binary.Read(r, binary.LittleEndian, &shards) },
		func() error { return binary.Read(r, binary.LittleEndian, &shardSeed) },
		func() error { return binary.Read(r, binary.LittleEndian, &k) },
	} {
		if err := step(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
	}
	if shards == 0 || shards > maxSnapshotShards || k == 0 {
		return nil, fmt.Errorf("%w: implausible shard header (%d shards, k %d)", ErrCorrupt, shards, k)
	}
	tops := make([]*TopK, shards)
	var first shardShape
	for i := range tops {
		t, err := readTopKSection(r)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if t.k != int(k) {
			return nil, fmt.Errorf("%w: shard %d has k %d, container says %d", ErrCorrupt, i, t.k, k)
		}
		// shardFor hashes every key under shard 0's seed, so a shard with
		// any other seed would never find its own buckets or entries again;
		// and newShardedFromConfig gives every shard one discipline and
		// geometry.
		shape := shapeOf(hkTracker(t.eng))
		if i == 0 {
			first = shape
		} else if shape != first {
			return nil, fmt.Errorf("%w: shard %d's key seed, discipline or geometry differs from shard 0's", ErrCorrupt, i)
		}
		tops[i] = t
	}
	return newSharded(int(k), shardSeed, tops), nil
}

// shardShape is what every shard of one Sharded shares. Depth is left
// out: WithExpansion grows shards independently.
type shardShape struct {
	keySeed         uint64
	version         topk.Version
	width           int
	decayBase       float64
	fingerprintBits uint
	counterBits     uint
	expandThreshold uint64
	maxArrays       int
}

// shapeOf reads a restored shard's shardShape.
func shapeOf(tr *topk.Tracker) shardShape {
	o := tr.Options()
	return shardShape{
		keySeed:         tr.Sketch().KeySeed(),
		version:         o.Version,
		width:           o.Sketch.W,
		decayBase:       o.Sketch.B,
		fingerprintBits: o.Sketch.FingerprintBits,
		counterBits:     o.Sketch.CounterBits,
		expandThreshold: o.Sketch.ExpandThreshold,
		maxArrays:       o.Sketch.MaxArrays,
	}
}

// Checksummed snapshot envelope. WriteTo containers are byte-exact but
// carry no integrity protection: a torn write (crash mid-rename on a
// filesystem without atomic rename, a short disk write, a truncated
// copy) can leave a prefix that still decodes far enough to restore a
// silently wrong summarizer. WriteSnapshot wraps the container in a
// CRC-checksummed framed envelope so ReadSnapshot detects any
// truncation or corruption before a single container byte is trusted:
//
//	u8[4]  magic "HKC1"
//	frames, each:
//	    u32  chunk length (1 .. maxSnapshotChunk)
//	    n    chunk bytes (container payload)
//	    u32  CRC-32C (Castagnoli) of the chunk bytes
//	terminator:
//	    u32  0
//	    u32  CRC-32C of the whole payload stream
//
// All integers are little-endian. The whole-stream checksum in the
// terminator catches frame splicing and reordering that per-frame
// checksums alone would miss; bytes after the terminator are rejected.
// ReadSnapshot and VerifySnapshot accept nothing else: a bare container
// (no envelope) is rejected as ErrCorrupt.
const (
	// snapshotChunkSize is the chunk granularity WriteSnapshot emits; a
	// torn tail costs at most one chunk of re-checksummed reads to detect.
	snapshotChunkSize = 256 << 10
	// maxSnapshotChunk bounds the chunk length a frame may declare, so a
	// corrupt length field can never force a giant allocation.
	maxSnapshotChunk = 4 << 20
)

// crcTable is the Castagnoli polynomial table shared by the snapshot
// envelope writer and reader (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// envelopeMagic identifies a checksummed snapshot envelope.
var envelopeMagic = [4]byte{'H', 'K', 'C', '1'}

// WriteSnapshot serializes s through its WriteTo container inside a
// CRC-checksummed framed envelope (format above) and returns the bytes
// written. It is the crash-safe counterpart of calling WriteTo directly:
// ReadSnapshot refuses any truncated or corrupted result instead of
// restoring from a plausible-looking prefix. Summarizers without a
// snapshot format return ErrSnapshotUnsupported, as WriteTo does.
func WriteSnapshot(w io.Writer, s SnapshotWriter) (int64, error) {
	cw := &chunkedWriter{w: w, crc: crc32.Checksum(nil, crcTable)}
	n, err := w.Write(envelopeMagic[:])
	cw.written += int64(n)
	if err != nil {
		return cw.written, err
	}
	if _, err := s.WriteTo(cw); err != nil {
		return cw.written, err
	}
	if err := cw.finish(); err != nil {
		return cw.written, err
	}
	return cw.written, nil
}

// chunkedWriter buffers container bytes into fixed-size checksummed
// frames and tracks the whole-stream CRC for the terminator.
type chunkedWriter struct {
	w       io.Writer
	buf     []byte
	crc     uint32 // running CRC-32C over every payload byte
	written int64
}

func (cw *chunkedWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		room := snapshotChunkSize - len(cw.buf)
		if room == 0 {
			if err := cw.flush(); err != nil {
				return total - len(p), err
			}
			room = snapshotChunkSize
		}
		take := min(room, len(p))
		cw.buf = append(cw.buf, p[:take]...)
		p = p[take:]
	}
	return total, nil
}

// flush emits the buffered bytes as one checksummed frame.
func (cw *chunkedWriter) flush() error {
	if len(cw.buf) == 0 {
		return nil
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(cw.buf)))
	for _, b := range [][]byte{hdr[:], cw.buf} {
		n, err := cw.w.Write(b)
		cw.written += int64(n)
		if err != nil {
			return err
		}
	}
	sum := crc32.Checksum(cw.buf, crcTable)
	binary.LittleEndian.PutUint32(hdr[:], sum)
	n, err := cw.w.Write(hdr[:])
	cw.written += int64(n)
	if err != nil {
		return err
	}
	cw.crc = crc32.Update(cw.crc, crcTable, cw.buf)
	cw.buf = cw.buf[:0]
	return nil
}

// finish flushes the tail chunk and writes the terminator frame.
func (cw *chunkedWriter) finish() error {
	if err := cw.flush(); err != nil {
		return err
	}
	var term [8]byte
	binary.LittleEndian.PutUint32(term[4:], cw.crc)
	n, err := cw.w.Write(term[:])
	cw.written += int64(n)
	return err
}

// VerifySnapshot checks a WriteSnapshot envelope end to end — magic, every
// frame checksum, the whole-stream checksum, the terminator and the absence
// of trailing bytes — without decoding the container or holding more than
// one chunk in memory. It is the integrity gate a server runs before
// streaming a stored snapshot to a remote reader (the cluster aggregator's
// GET /snapshot path): a torn or corrupted generation fails here, in
// constant memory, instead of being shipped and rejected at the far end.
// A bare WriteTo container (no envelope) fails verification. All failures
// match ErrCorrupt.
func VerifySnapshot(r io.Reader) error {
	return readEnvelope(r, func([]byte) {})
}

// ReadSnapshot restores a summarizer from a WriteSnapshot envelope. Every
// frame checksum, the whole-stream checksum, the terminator and the
// absence of trailing bytes are verified before the container is decoded,
// so a torn or corrupted snapshot is rejected (ErrCorrupt) rather than
// partially restored. A bare WriteTo container is rejected too; decode
// those with ReadSummarizer.
func ReadSnapshot(r io.Reader) (Summarizer, error) {
	var payload bytes.Buffer
	if err := readEnvelope(r, func(chunk []byte) { payload.Write(chunk) }); err != nil {
		return nil, err
	}
	body := bytes.NewReader(payload.Bytes())
	sum, err := ReadSummarizer(body)
	if err != nil {
		return nil, err
	}
	if body.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after container end", ErrCorrupt, body.Len())
	}
	return sum, nil
}

// readEnvelope reads one WriteSnapshot envelope from r and hands each
// frame's chunk to fn once that frame's checksum verifies; the chunk is
// valid only during the call. It returns nil only when the magic, every
// chunk bound and frame checksum, the whole-stream checksum and the
// terminator all check out and no bytes follow the terminator. Every
// failure matches ErrCorrupt.
func readEnvelope(r io.Reader, fn func(chunk []byte)) error {
	var word [4]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return fmt.Errorf("%w: reading envelope magic: %w", ErrCorrupt, err)
	}
	if word != envelopeMagic {
		return fmt.Errorf("%w: not a checksummed snapshot envelope", ErrCorrupt)
	}
	crc := crc32.Checksum(nil, crcTable)
	var chunk []byte
	for {
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return fmt.Errorf("%w: reading frame length: %w", ErrCorrupt, err)
		}
		length := binary.LittleEndian.Uint32(word[:])
		if length == 0 {
			// Terminator: whole-stream CRC, then clean EOF.
			if _, err := io.ReadFull(r, word[:]); err != nil {
				return fmt.Errorf("%w: reading stream checksum: %w", ErrCorrupt, err)
			}
			if got := binary.LittleEndian.Uint32(word[:]); got != crc {
				return fmt.Errorf("%w: stream checksum mismatch (%#x != %#x)", ErrCorrupt, got, crc)
			}
			if n, _ := r.Read(word[:1]); n != 0 {
				return fmt.Errorf("%w: trailing bytes after terminator", ErrCorrupt)
			}
			return nil
		}
		if length > maxSnapshotChunk {
			return fmt.Errorf("%w: frame declares %d bytes (max %d)", ErrCorrupt, length, maxSnapshotChunk)
		}
		if cap(chunk) < int(length) {
			chunk = make([]byte, length)
		}
		chunk = chunk[:length]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return fmt.Errorf("%w: reading frame payload: %w", ErrCorrupt, err)
		}
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return fmt.Errorf("%w: reading frame checksum: %w", ErrCorrupt, err)
		}
		if got := binary.LittleEndian.Uint32(word[:]); got != crc32.Checksum(chunk, crcTable) {
			return fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
		}
		crc = crc32.Update(crc, crcTable, chunk)
		fn(chunk)
	}
}
