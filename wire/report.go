package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	heavykeeper "repro"
)

// A report frame carries one tenant's current top-k: what the cluster
// aggregator's max fold needs from a member, without the sketch behind
// it. hkd serves it from GET /snapshot?report=1; the frame is
// self-checking, so the reader needs no other envelope:
//
//	offset  size  field
//	0       4     magic "HKR1"
//	4       8     generation, uint64 LE (the state token it reflects)
//	12      4     k, uint32 LE (the member's configured report size)
//	16      4     flow count N, uint32 LE
//	20      ...   N records: keyLen uint16 LE | key | count uvarint
//	end-4   4     CRC-32C (Castagnoli) over every preceding byte, LE
//
// Records are in the member's report order (descending count).

// reportMagic opens every report frame.
var reportMagic = [4]byte{'H', 'K', 'R', '1'}

const (
	// reportFixed is the size of a report with no flows: header plus CRC.
	reportFixed = 20 + 4
	// minRecord is the smallest record: an empty key and a one-byte count.
	minRecord = 2 + 1
)

var reportCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrReportChecksum is returned when a report's CRC does not match its
// bytes: a torn or corrupted transfer.
var ErrReportChecksum = fmt.Errorf("%w: report checksum mismatch", ErrCorrupt)

// Report is one decoded report frame.
type Report struct {
	// Generation is the member's state token for the reported top-k:
	// its live generation, or the snapshot sequence for an on-disk one.
	Generation uint64
	// K is the member's configured report size.
	K int
	// Flows is the member's top-k, descending by count.
	Flows []heavykeeper.Flow
}

// AppendReport appends r encoded as one report frame to dst and returns
// the extended slice. A key longer than MaxKeyLen, or a k or flow count
// past uint32, returns an error and leaves dst unchanged.
func AppendReport(dst []byte, r Report) ([]byte, error) {
	if r.K < 0 || uint64(r.K) > math.MaxUint32 || uint64(len(r.Flows)) > math.MaxUint32 {
		return dst, fmt.Errorf("wire: report k %d or %d flows out of range", r.K, len(r.Flows))
	}
	for _, f := range r.Flows {
		if len(f.ID) > MaxKeyLen {
			return dst, ErrKeyTooLong
		}
	}
	base := len(dst)
	dst = append(dst, reportMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, r.Generation)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.K))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Flows)))
	for _, f := range r.Flows {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.ID)))
		dst = append(dst, f.ID...)
		dst = binary.AppendUvarint(dst, f.Count)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], reportCRC)), nil
}

// DecodeReport decodes one report frame occupying all of b. The CRC is
// checked before any field is parsed, so every corruption it can see is
// rejected as ErrReportChecksum; a frame whose CRC matches but whose
// records do not fill it exactly fails with another ErrCorrupt error.
// The decoded flow IDs alias b.
func DecodeReport(b []byte) (Report, error) {
	if len(b) < reportFixed {
		return Report{}, fmt.Errorf("%w: report of %d bytes is shorter than its header", ErrCorrupt, len(b))
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, reportCRC) != binary.LittleEndian.Uint32(b[len(body):]) {
		return Report{}, ErrReportChecksum
	}
	if [4]byte(body[:4]) != reportMagic {
		return Report{}, ErrBadMagic
	}
	r := Report{
		Generation: binary.LittleEndian.Uint64(body[4:]),
		K:          int(binary.LittleEndian.Uint32(body[12:])),
	}
	n := int(binary.LittleEndian.Uint32(body[16:]))
	p := body[20:]
	if n > len(p)/minRecord {
		return Report{}, ErrCountsAhead
	}
	r.Flows = make([]heavykeeper.Flow, n)
	for i := range r.Flows {
		if len(p) < 2 {
			return Report{}, ErrTruncated
		}
		kl := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < kl {
			return Report{}, ErrTruncated
		}
		id := p[:kl:kl]
		p = p[kl:]
		count, w := binary.Uvarint(p)
		if w <= 0 {
			return Report{}, ErrBadWeight
		}
		p = p[w:]
		r.Flows[i] = heavykeeper.Flow{ID: id, Count: count}
	}
	if len(p) != 0 {
		return Report{}, ErrTrailing
	}
	return r, nil
}
