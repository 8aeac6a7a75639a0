package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// decoded is a Batch copied out of the Reader's buffer.
type decoded struct {
	keys    [][]byte
	weights []uint64
	tenant  []byte
	token   []byte
}

func copyBatch(b *Batch) decoded {
	d := decoded{
		tenant: bytes.Clone(b.Tenant),
		token:  bytes.Clone(b.Token),
	}
	for _, k := range b.Keys {
		d.keys = append(d.keys, bytes.Clone(k))
	}
	if len(b.Weights) > 0 {
		d.weights = append([]uint64(nil), b.Weights...)
	}
	return d
}

func (d decoded) equal(o decoded) bool {
	if len(d.keys) != len(o.keys) || len(d.weights) != len(o.weights) ||
		!bytes.Equal(d.tenant, o.tenant) || !bytes.Equal(d.token, o.token) {
		return false
	}
	for i := range d.keys {
		if !bytes.Equal(d.keys[i], o.keys[i]) {
			return false
		}
	}
	for i := range d.weights {
		if d.weights[i] != o.weights[i] {
			return false
		}
	}
	return true
}

// readAll decodes frames from r until Next fails and returns copies of
// the batches and the error that ended the stream (io.EOF when clean).
func readAll(r io.Reader) ([]decoded, error) {
	fr := NewReader(r)
	var out []decoded
	for {
		b, err := fr.Next()
		if err != nil {
			return out, err
		}
		out = append(out, copyBatch(b))
	}
}

// errBoom is the non-EOF error the failing test readers inject.
var errBoom = errors.New("boom")

// errClass reduces a decode error to what callers branch on: clean EOF,
// a stream cut inside a frame, an injected read failure, or the typed
// corruption cause.
func errClass(err error) error {
	switch {
	case err == nil || err == io.EOF:
		return err
	case errors.Is(err, io.ErrUnexpectedEOF):
		return io.ErrUnexpectedEOF
	case errors.Is(err, errBoom):
		return errBoom
	}
	for _, typed := range []error{ErrBadMagic, ErrBadVersion, ErrBadType, ErrOversize,
		ErrTruncated, ErrTrailing, ErrKeyTooLong, ErrBadWeight, ErrCountsAhead, ErrBadToken} {
		if errors.Is(err, typed) {
			return typed
		}
	}
	return err
}

// sameDecode reports how two decodes of one stream differ in their
// batches or in the class of the error that ended them, or nil.
func sameDecode(gotB []decoded, gotErr error, wantB []decoded, wantErr error) error {
	if len(gotB) != len(wantB) {
		return fmt.Errorf("decoded %d frames, want %d (err %v, want %v)", len(gotB), len(wantB), gotErr, wantErr)
	}
	for i := range gotB {
		if !gotB[i].equal(wantB[i]) {
			return fmt.Errorf("frame %d differs", i)
		}
	}
	if errClass(gotErr) != errClass(wantErr) {
		return fmt.Errorf("ended with %v, want class of %v", gotErr, wantErr)
	}
	if gotErr != io.EOF && !errors.Is(gotErr, ErrCorrupt) {
		return fmt.Errorf("error %v does not match ErrCorrupt", gotErr)
	}
	return nil
}

// splitReader returns data in segments whose lengths cycle through
// cuts (each 1 + the byte's value), capped by the caller's buffer; with
// no cuts it returns as much as the caller asks for.
type splitReader struct {
	data []byte
	cuts []byte
	i    int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := len(s.data)
	if len(s.cuts) > 0 {
		n = min(n, 1+int(s.cuts[s.i%len(s.cuts)]))
		s.i++
	}
	n = copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

// boomReader returns its last bytes together with errBoom, the shape of
// a connection reset racing delivered data.
type boomReader struct{ r io.Reader }

func newBoomReader(r io.Reader) io.Reader { return boomReader{iotest.DataErrReader(r)} }

func (b boomReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = errBoom
	}
	return n, err
}

// refDecode is the oracle: it walks an in-memory stream frame by frame
// with DecodePayload, as a reader that never splits or buffers would.
func refDecode(stream []byte) ([]decoded, error) {
	var out []decoded
	var b Batch
	for len(stream) > 0 {
		if len(stream) < HeaderLen {
			return out, io.ErrUnexpectedEOF
		}
		h, err := ParseHeader([HeaderLen]byte(stream[:HeaderLen]))
		if err != nil {
			return out, err
		}
		n := HeaderLen + int(h.Length)
		if len(stream) < n {
			return out, io.ErrUnexpectedEOF
		}
		if err := DecodePayload(h.Version, h.Type, stream[HeaderLen:n], &b); err != nil {
			return out, err
		}
		out = append(out, copyBatch(&b))
		stream = stream[n:]
	}
	return out, io.EOF
}

func mustFrame(t testing.TB, dst []byte, tenant []byte, keys [][]byte, weights []uint64) []byte {
	t.Helper()
	var err error
	if tenant != nil {
		dst, err = AppendFrameTenant(dst, tenant, keys, weights)
	} else {
		dst, err = AppendFrame(dst, keys, weights)
	}
	if err != nil {
		t.Fatalf("encoding frame: %v", err)
	}
	return dst
}

// sizedFrame appends a one-key frame exactly size bytes long (at most
// 14+MaxKeyLen), for placing frame boundaries at chosen stream offsets.
func sizedFrame(t testing.TB, dst []byte, size int) []byte {
	t.Helper()
	return mustFrame(t, dst, nil, [][]byte{bytes.Repeat([]byte{'p'}, size-HeaderLen-4-2)}, nil)
}

// records64 returns 64 keys of 4 bytes starting at id base: a 396-byte
// frame.
func records64(base int) [][]byte {
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = binary.LittleEndian.AppendUint32(nil, uint32(base+i))
	}
	return keys
}

const frame64Len = HeaderLen + 4 + 64*(2+4)

// readerStreams are the multi-frame streams the chunking tests decode.
func readerStreams(t *testing.T) map[string][]byte {
	var mixed []byte
	mixed, _ = AppendHello(mixed, []byte("token"))
	mixed = mustFrame(t, mixed, nil, [][]byte{[]byte("a"), {}, []byte("ccc")}, nil)
	mixed = mustFrame(t, mixed, nil, [][]byte{[]byte("w")}, []uint64{1 << 40})
	mixed = mustFrame(t, mixed, []byte("tenant-a"), [][]byte{[]byte("t")}, nil)
	mixed = mustFrame(t, mixed, []byte{}, nil, []uint64{})
	mixed = mustFrame(t, mixed, nil, nil, nil)

	// 300 frames of 64 records: frame boundaries fall all over the
	// read-ahead buffer's boundaries.
	var many []byte
	for f := 0; f < 300; f++ {
		many = mustFrame(t, many, nil, records64(64*f), nil)
	}

	// A header straddling the first buffer boundary, then a payload
	// straddling the next one.
	straddle := sizedFrame(t, nil, readAhead-3)
	straddle = mustFrame(t, straddle, nil, records64(0), nil)
	straddle = sizedFrame(t, straddle, readAhead-20-frame64Len+3)
	straddle = mustFrame(t, straddle, nil, records64(64), nil)

	// Frames longer than the buffer, 200 KiB and then the maximal one,
	// each between small frames.
	big := mustFrame(t, nil, nil, records64(0), nil)
	big = mustFrame(t, big, nil, [][]byte{
		bytes.Repeat([]byte{'a'}, 50<<10), bytes.Repeat([]byte{'b'}, 50<<10),
		bytes.Repeat([]byte{'c'}, 50<<10), bytes.Repeat([]byte{'d'}, 50<<10),
	}, nil)
	big = mustFrame(t, big, nil, records64(64), nil)
	maxKeys := make([][]byte, 0, 64)
	for len(maxKeys) < 63 {
		maxKeys = append(maxKeys, bytes.Repeat([]byte{'m'}, MaxKeyLen))
	}
	// The count, 63 maximal records and this one fill MaxPayload exactly.
	maxKeys = append(maxKeys, bytes.Repeat([]byte{'n'}, MaxPayload-4-63*(2+MaxKeyLen)-2))
	big = mustFrame(t, big, nil, maxKeys, nil)
	big = mustFrame(t, big, nil, records64(128), nil)
	if n := binary.LittleEndian.Uint32(big[len(big)-frame64Len-MaxPayload-4:]); n != MaxPayload {
		t.Fatalf("maximal frame declares %d bytes, want %d", n, MaxPayload)
	}

	badMagic := append(append([]byte(nil), many[:10*frame64Len]...), 'X', 'K', 1, 1, 0, 0, 0, 0)
	trailing := mustFrame(t, append([]byte(nil), many[:2*frame64Len]...), nil, [][]byte{[]byte("k")}, nil)
	trailing[2*frame64Len+4]++ // declare one byte more than the records cover
	trailing = append(trailing, 0xAA)
	return map[string][]byte{
		"empty":                {},
		"mixed":                mixed,
		"many 64-record":       many,
		"boundary straddles":   straddle,
		"frames beyond buffer": big,
		"cut mid-header":       append(append([]byte(nil), many...), many[:5]...),
		"cut mid-payload":      many[:len(many)-3],
		"bad magic":            badMagic,
		"trailing bytes":       trailing,
	}
}

// TestReaderChunking decodes each stream through readers that deliver it
// in different pieces; every one must match the unbuffered oracle frame
// for frame and end with the same class of error.
func TestReaderChunking(t *testing.T) {
	readers := map[string]func([]byte) io.Reader{
		"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":     func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data+EOF": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"data+err": func(b []byte) io.Reader { return newBoomReader(bytes.NewReader(b)) },
		"split":    func(b []byte) io.Reader { return &splitReader{data: b, cuts: []byte{0, 7, 255, 2, 100}} },
	}
	for sname, stream := range readerStreams(t) {
		wantB, wantErr := refDecode(stream)
		for rname, mk := range readers {
			t.Run(sname+"/"+rname, func(t *testing.T) {
				want := wantErr
				if rname == "data+err" && (wantErr == io.EOF || wantErr == io.ErrUnexpectedEOF) {
					// The stream ends in the injected error, not in EOF.
					want = errBoom
				}
				gotB, gotErr := readAll(mk(stream))
				if err := sameDecode(gotB, gotErr, wantB, want); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// countReads counts the Read calls that reach the wrapped reader.
type countReads struct {
	r io.Reader
	n int
}

func (c *countReads) Read(p []byte) (int, error) {
	c.n++
	return c.r.Read(p)
}

// TestReaderReadCount: back-to-back frames cost one Read per buffer of
// bytes, not the two Reads per frame (header, then payload) a reader
// without read-ahead makes.
func TestReaderReadCount(t *testing.T) {
	const frames = 2000
	var stream []byte
	for f := 0; f < frames; f++ {
		stream = mustFrame(t, stream, nil, records64(64*f), nil)
	}
	src := &countReads{r: bytes.NewReader(stream)}
	r := NewReader(src)
	for f := 0; f < frames; f++ {
		b, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if b.Records() != 64 {
			t.Fatalf("frame %d has %d records, want 64", f, b.Records())
		}
	}
	limit := (len(stream)+readAhead-1)/readAhead + 1
	if src.n > limit {
		t.Fatalf("%d frames (%d bytes) took %d reads, want at most %d (2 per frame would be %d)",
			frames, len(stream), src.n, limit, 2*frames)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}
