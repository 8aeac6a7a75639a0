// Package wire defines the hkd ingest wire protocol: a compact,
// length-prefixed, versioned binary framing for batched key/weight arrival
// records, designed so a measurement point can push millions of flow
// arrivals per second over a TCP stream (or one frame per UDP datagram)
// into a Summarizer's AddBatch path.
//
// # Frame layout
//
// Every frame is an 8-byte header followed by a payload:
//
//	offset  size  field
//	0       2     magic "HK" (0x48 0x4B)
//	2       1     protocol version (1 or 2)
//	3       1     frame type
//	4       4     payload length, uint32 little-endian (0 .. MaxPayload)
//	8       n     payload
//
// Two frame types carry arrivals:
//
//	TypeBatch (1): count uint32, then count records of
//	    keyLen uint16 | key bytes
//	  — each record is one unit-weight arrival (one packet).
//
//	TypeWeightedBatch (2): count uint32, then count records of
//	    keyLen uint16 | key bytes | weight uvarint
//	  — each record is a weight-n arrival (n packets, or n bytes when
//	  ranking flows by volume).
//
// All fixed-width integers are little-endian; weights are unsigned
// varints (encoding/binary uvarint) so the common small weights cost one
// byte. Keys are opaque byte strings up to MaxKeyLen bytes.
//
// # Version 2: multi-tenant frames
//
// Version-2 batch frames prefix the payload with the tenant the arrivals
// belong to:
//
//	tenantLen uint8 | tenant bytes | <version-1 payload body>
//
// An empty tenant (tenantLen 0) names the default tenant, so a v2 frame
// with no tenant and a v1 frame mean the same thing; v1 frames remain
// fully supported and always map to the default tenant. Version 2 also
// adds one control frame:
//
//	TypeHello (3): tokenLen uint16 | token bytes (1 .. MaxTokenLen)
//	  — a connection-scoped bearer-token handshake. A daemon running
//	  with token auth requires it as the first frame of every stream
//	  connection and binds the connection to the token's tenant.
//
// # Zero-allocation decode
//
// DecodePayload parses a payload in place: the decoded Batch's Keys are
// subslices of the payload buffer, exactly the [][]byte shape the
// Summarizer.AddBatch scratch wants, so a steady-state reader allocates
// nothing per frame once its record slices have grown to the high-water
// mark. Reader wraps an io.Reader (a TCP connection) with a reusable
// read-ahead buffer, decodes every whole frame one Read brought in
// place, and hands out one Batch per call.
//
// Every malformed input — bad magic, unknown version or type, oversized
// declaration, truncated or overrunning records, trailing garbage —
// returns an error matching ErrCorrupt (errors.Is); decoding never
// panics. Frames are validated structurally before any record is
// surfaced, so a consumer never ingests half a frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol versions. Version 1 is the original single-tenant framing;
// version 2 prefixes batch payloads with a tenant id and adds the
// TypeHello auth handshake. Decoders accept both.
const (
	// Version is the original (single-tenant) protocol version.
	Version = 1
	// VersionTenant is the multi-tenant protocol version.
	VersionTenant = 2
)

// Frame types.
const (
	// TypeBatch carries unit-weight arrival records.
	TypeBatch = 1
	// TypeWeightedBatch carries weight-carrying arrival records.
	TypeWeightedBatch = 2
	// TypeHello carries a bearer-token handshake (version 2 only): the
	// first frame of an authenticated stream connection.
	TypeHello = 3
)

// Wire limits. MaxPayload bounds the memory a peer can make a reader
// commit before any record is validated; MaxKeyLen matches the uint16
// record length field. Both are protocol constants: an encoder never
// produces frames beyond them and a decoder rejects frames that declare
// more.
const (
	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 8
	// MaxPayload is the largest payload a frame may declare (4 MiB).
	MaxPayload = 4 << 20
	// MaxKeyLen is the largest key one record can carry.
	MaxKeyLen = 1<<16 - 1
	// MaxTenantLen is the largest tenant id a v2 frame can carry,
	// matching its uint8 length field.
	MaxTenantLen = 1<<8 - 1
	// MaxTokenLen bounds the bearer token a TypeHello frame carries; a
	// longer declaration is rejected as corrupt before any buffering.
	MaxTokenLen = 1024
	// MaxFrameLen is the largest complete frame — header plus a maximal
	// payload. Datagram receivers size their read buffers from it: a
	// datagram longer than MaxFrameLen cannot be a valid frame.
	MaxFrameLen = HeaderLen + MaxPayload
)

const (
	magic0 = 'H'
	magic1 = 'K'
)

// ErrCorrupt is the base error for every malformed-frame condition;
// callers branch with errors.Is. The concrete wrapped errors below
// describe the specific violation.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Typed corruption causes, all matching ErrCorrupt via errors.Is.
var (
	ErrBadMagic    = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrBadVersion  = fmt.Errorf("%w: unsupported protocol version", ErrCorrupt)
	ErrBadType     = fmt.Errorf("%w: unknown frame type", ErrCorrupt)
	ErrOversize    = fmt.Errorf("%w: declared payload exceeds MaxPayload", ErrCorrupt)
	ErrTruncated   = fmt.Errorf("%w: payload shorter than its records", ErrCorrupt)
	ErrTrailing    = fmt.Errorf("%w: payload longer than its records", ErrCorrupt)
	ErrKeyTooLong  = fmt.Errorf("%w: key exceeds MaxKeyLen", ErrCorrupt)
	ErrBadWeight   = fmt.Errorf("%w: malformed weight varint", ErrCorrupt)
	ErrCountsAhead = fmt.Errorf("%w: record count exceeds payload capacity", ErrCorrupt)
	ErrBadToken    = fmt.Errorf("%w: hello token empty or exceeds MaxTokenLen", ErrCorrupt)
)

// ErrTenantTooLong is an encoder-side error: AppendFrameTenant rejects a
// tenant id longer than MaxTenantLen rather than emit an unframeable id.
var ErrTenantTooLong = errors.New("wire: tenant id exceeds MaxTenantLen")

// Header is a parsed frame header.
type Header struct {
	Version byte
	Type    byte
	// Length is the payload length in bytes.
	Length uint32
}

// ParseHeader validates the 8 fixed header bytes. It checks magic,
// version, type and the payload bound, so a reader can reject a garbage
// stream before committing any payload buffer.
func ParseHeader(b [HeaderLen]byte) (Header, error) {
	if b[0] != magic0 || b[1] != magic1 {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Version: b[2],
		Type:    b[3],
		Length:  binary.LittleEndian.Uint32(b[4:]),
	}
	if h.Version != Version && h.Version != VersionTenant {
		return Header{}, ErrBadVersion
	}
	switch h.Type {
	case TypeBatch, TypeWeightedBatch:
	case TypeHello:
		// The handshake is new in v2; a v1 stream producing type 3 is
		// corrupt, not merely old.
		if h.Version != VersionTenant {
			return Header{}, ErrBadType
		}
	default:
		return Header{}, ErrBadType
	}
	if h.Length > MaxPayload {
		return Header{}, ErrOversize
	}
	return h, nil
}

// Batch is one decoded frame's arrival records. Keys, Tenant and Token
// alias the payload buffer they were decoded from: they are valid until
// the next decode into the same buffer and must not be retained
// (Summarizer ingest paths copy on admission, so handing a Batch
// straight to AddBatch is safe). Weights is nil for a unit-weight frame
// (TypeBatch) and parallel to Keys for a weighted one.
//
// Tenant is the v2 tenant id (nil/empty — including every v1 frame —
// means the default tenant). Token is set only for a decoded TypeHello
// handshake frame, whose Keys and Weights are always empty; IsHello
// distinguishes the two shapes.
type Batch struct {
	Keys    [][]byte
	Weights []uint64
	Tenant  []byte
	Token   []byte
}

// Records returns the number of arrival records in the batch.
func (b *Batch) Records() int { return len(b.Keys) }

// IsHello reports whether the decoded frame was a TypeHello handshake
// (Token carries the bearer token; no arrival records).
func (b *Batch) IsHello() bool { return b.Token != nil }

// reset clears the batch for reuse without releasing capacity.
func (b *Batch) reset() {
	b.Keys = b.Keys[:0]
	b.Weights = b.Weights[:0]
	b.Tenant = nil
	b.Token = nil
}

// DecodePayload parses one frame payload of the given version and type
// into dst, reusing dst's slices. The decoded keys (and tenant/token)
// alias payload. The payload must be exactly the frame's declared
// length: short records return ErrTruncated, leftover bytes return
// ErrTrailing.
func DecodePayload(version, typ byte, payload []byte, dst *Batch) error {
	dst.reset()
	weighted := false
	switch typ {
	case TypeBatch:
	case TypeWeightedBatch:
		weighted = true
	case TypeHello:
		if version != VersionTenant {
			return ErrBadType
		}
		if len(payload) < 2 {
			return ErrTruncated
		}
		tlen := int(binary.LittleEndian.Uint16(payload))
		if tlen == 0 || tlen > MaxTokenLen {
			return ErrBadToken
		}
		if len(payload)-2 < tlen {
			return ErrTruncated
		}
		if len(payload)-2 > tlen {
			return ErrTrailing
		}
		dst.Token = payload[2 : 2+tlen : 2+tlen]
		return nil
	default:
		return ErrBadType
	}
	if version == VersionTenant {
		// v2 batch payloads open with the tenant id; an empty one is the
		// default tenant, same as every v1 frame.
		if len(payload) < 1 {
			return ErrTruncated
		}
		tlen := int(payload[0])
		if len(payload)-1 < tlen {
			return ErrTruncated
		}
		if tlen > 0 {
			dst.Tenant = payload[1 : 1+tlen : 1+tlen]
		}
		payload = payload[1+tlen:]
	}
	if len(payload) < 4 {
		return ErrTruncated
	}
	count := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	// Each record is at least 2 bytes of length prefix (+1 weight byte),
	// so a count the remaining bytes cannot possibly back is rejected
	// before any slice growth.
	min := uint64(count) * 2
	if weighted {
		min = uint64(count) * 3
	}
	if min > uint64(len(payload)) {
		return ErrCountsAhead
	}
	for i := uint32(0); i < count; i++ {
		if len(payload) < 2 {
			return ErrTruncated
		}
		klen := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if klen > len(payload) {
			return ErrTruncated
		}
		dst.Keys = append(dst.Keys, payload[:klen:klen])
		payload = payload[klen:]
		if weighted {
			w, n := binary.Uvarint(payload)
			if n <= 0 {
				return ErrBadWeight
			}
			payload = payload[n:]
			dst.Weights = append(dst.Weights, w)
		}
	}
	if len(payload) != 0 {
		return ErrTrailing
	}
	return nil
}

// AppendFrame appends one encoded version-1 frame carrying keys (and,
// when weights is non-nil, the parallel per-key weights) to dst and
// returns the extended slice. It is the encoder counterpart of
// Reader/DecodePayload; callers reuse dst across frames for an
// allocation-free send loop. Frames that would violate the protocol
// bounds (key too long, payload past MaxPayload) return an error and
// leave dst unchanged.
func AppendFrame(dst []byte, keys [][]byte, weights []uint64) ([]byte, error) {
	return appendFrame(dst, Version, nil, keys, weights)
}

// AppendFrameTenant appends one encoded version-2 frame carrying the
// tenant id (empty = default tenant) and the arrival records. It is the
// multi-tenant counterpart of AppendFrame.
func AppendFrameTenant(dst []byte, tenant []byte, keys [][]byte, weights []uint64) ([]byte, error) {
	if len(tenant) > MaxTenantLen {
		return dst, ErrTenantTooLong
	}
	return appendFrame(dst, VersionTenant, tenant, keys, weights)
}

func appendFrame(dst []byte, version byte, tenant []byte, keys [][]byte, weights []uint64) ([]byte, error) {
	typ := byte(TypeBatch)
	if weights != nil {
		if len(weights) != len(keys) {
			return dst, fmt.Errorf("wire: %d keys but %d weights", len(keys), len(weights))
		}
		typ = TypeWeightedBatch
	}
	payload := 4
	if version == VersionTenant {
		payload += 1 + len(tenant)
	}
	for i, k := range keys {
		if len(k) > MaxKeyLen {
			return dst, ErrKeyTooLong
		}
		payload += 2 + len(k)
		if weights != nil {
			var tmp [binary.MaxVarintLen64]byte
			payload += binary.PutUvarint(tmp[:], weights[i])
		}
	}
	if payload > MaxPayload {
		return dst, ErrOversize
	}
	base := len(dst)
	dst = append(dst, magic0, magic1, version, typ, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[base+4:], uint32(payload))
	if version == VersionTenant {
		dst = append(dst, byte(len(tenant)))
		dst = append(dst, tenant...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for i, k := range keys {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
		if weights != nil {
			dst = binary.AppendUvarint(dst, weights[i])
		}
	}
	return dst, nil
}

// AppendHello appends one encoded version-2 TypeHello handshake frame
// carrying the bearer token. A daemon running with token auth requires
// it as the first frame of every stream connection.
func AppendHello(dst []byte, token []byte) ([]byte, error) {
	if len(token) == 0 || len(token) > MaxTokenLen {
		return dst, ErrBadToken
	}
	base := len(dst)
	dst = append(dst, magic0, magic1, VersionTenant, TypeHello, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[base+4:], uint32(2+len(token)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(token)))
	dst = append(dst, token...)
	return dst, nil
}

// readAhead is the size of a Reader's read-ahead buffer. One Read fills
// as much of it as the source has ready, and every whole frame among
// those bytes then decodes without another Read. A frame longer than
// readAhead grows the buffer to fit it exactly; the buffer never shrinks.
const readAhead = 64 << 10

// Reader decodes a stream of frames from an io.Reader (typically a TCP
// connection). It reads ahead into one buffer of readAhead bytes and
// decodes frames from it in place, so a source holding many queued
// frames costs one Read per buffer, not two per frame. The buffer and
// the Batch are reused across frames, so steady-state reading does not
// allocate. A Reader is not safe for concurrent use.
type Reader struct {
	r   io.Reader
	buf []byte // allocated on first use; buf[off:end] is read but not yet decoded
	off int
	end int
	// err is the error the last Read returned alongside its data. It is
	// reported once the frames buffered before it run out.
	err   error
	batch Batch
}

// NewReader returns a Reader decoding frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next decodes the next frame, reading from the source only when the
// buffer holds no whole frame, and returns its batch. The batch (keys
// included) aliases the read-ahead buffer and is valid only until the
// following Next call. At clean end of stream (between frames) it
// returns io.EOF, after every buffered frame; a stream ending inside a
// frame returns an ErrCorrupt-matching error wrapping
// io.ErrUnexpectedEOF; a failed Read returns an ErrCorrupt-matching
// error wrapping the Read's error; any other malformed input returns its
// typed ErrCorrupt cause.
func (r *Reader) Next() (*Batch, error) {
	if r.end-r.off < HeaderLen {
		if err := r.fill(HeaderLen); err != nil {
			if err == io.EOF && r.end == r.off {
				return nil, io.EOF
			}
			return nil, readError("header", err)
		}
	}
	h, err := ParseHeader([HeaderLen]byte(r.buf[r.off : r.off+HeaderLen]))
	if err != nil {
		return nil, err
	}
	n := HeaderLen + int(h.Length)
	if r.end-r.off < n {
		if err := r.fill(n); err != nil {
			return nil, readError("payload", err)
		}
	}
	payload := r.buf[r.off+HeaderLen : r.off+n : r.off+n]
	r.off += n
	if err := DecodePayload(h.Version, h.Type, payload, &r.batch); err != nil {
		return nil, err
	}
	return &r.batch, nil
}

// fill reads until at least n undecoded bytes are buffered. It first
// moves the undecoded tail to the front of the buffer, growing the buffer
// only when n exceeds it, so each Read gets all the room left.
func (r *Reader) fill(n int) error {
	if len(r.buf) < n {
		buf := make([]byte, max(n, readAhead))
		r.end = copy(buf, r.buf[r.off:r.end])
		r.buf = buf
	} else {
		r.end = copy(r.buf, r.buf[r.off:r.end])
	}
	r.off = 0
	for r.end < n {
		if err := r.err; err != nil {
			r.err = nil
			return err
		}
		var m int
		m, r.err = r.r.Read(r.buf[r.end:])
		r.end += m
	}
	return nil
}

// readError wraps a failed or short read of part of a frame as corrupt.
func readError(part string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: reading %s: %w", ErrCorrupt, part, err)
}

// DecodeDatagram parses one datagram holding exactly one frame (header
// plus payload, nothing else) into dst — the UDP shape of the protocol.
func DecodeDatagram(dgram []byte, dst *Batch) error {
	if len(dgram) < HeaderLen {
		return ErrTruncated
	}
	var hdr [HeaderLen]byte
	copy(hdr[:], dgram)
	h, err := ParseHeader(hdr)
	if err != nil {
		return err
	}
	if len(dgram)-HeaderLen != int(h.Length) {
		if len(dgram)-HeaderLen < int(h.Length) {
			return ErrTruncated
		}
		return ErrTrailing
	}
	return DecodePayload(h.Version, h.Type, dgram[HeaderLen:], dst)
}
