package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestRoundTripUnweighted(t *testing.T) {
	keys := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-long-key"), {0x00, 0xff, 0x7f}}
	frame, err := AppendFrame(nil, keys, nil)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	r := NewReader(bytes.NewReader(frame))
	b, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if b.Weights != nil && len(b.Weights) != 0 {
		t.Fatalf("unweighted frame decoded weights %v", b.Weights)
	}
	if len(b.Keys) != len(keys) {
		t.Fatalf("decoded %d keys, want %d", len(b.Keys), len(keys))
	}
	for i := range keys {
		if !bytes.Equal(b.Keys[i], keys[i]) {
			t.Errorf("key %d: got %q want %q", i, b.Keys[i], keys[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestRoundTripWeighted(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	weights := []uint64{1, 1 << 40, 0}
	frame, err := AppendFrame(nil, keys, weights)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	r := NewReader(bytes.NewReader(frame))
	b, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(b.Weights) != len(weights) {
		t.Fatalf("decoded %d weights, want %d", len(b.Weights), len(weights))
	}
	for i := range weights {
		if b.Weights[i] != weights[i] {
			t.Errorf("weight %d: got %d want %d", i, b.Weights[i], weights[i])
		}
		if !bytes.Equal(b.Keys[i], keys[i]) {
			t.Errorf("key %d: got %q want %q", i, b.Keys[i], keys[i])
		}
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	var stream []byte
	var err error
	for i := 0; i < 10; i++ {
		stream, err = AppendFrame(stream, [][]byte{{byte(i)}, {byte(i), byte(i)}}, nil)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	r := NewReader(bytes.NewReader(stream))
	total := 0
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		total += b.Records()
	}
	if total != 20 {
		t.Fatalf("decoded %d records, want 20", total)
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	frame, err := AppendFrame(nil, [][]byte{[]byte("x"), []byte("yz")}, []uint64{3, 4})
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	var b Batch
	if err := DecodeDatagram(frame, &b); err != nil {
		t.Fatalf("DecodeDatagram: %v", err)
	}
	if b.Records() != 2 || b.Weights[1] != 4 {
		t.Fatalf("bad decode: %+v", b)
	}
	// A datagram with trailing bytes after the frame is rejected.
	if err := DecodeDatagram(append(frame, 0), &b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing datagram byte: got %v, want ErrCorrupt", err)
	}
}

func TestCorruptInputs(t *testing.T) {
	good, err := AppendFrame(nil, [][]byte{[]byte("key")}, nil)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(f []byte) []byte { f[0] = 'X'; return f }, ErrBadMagic},
		{"bad version", func(f []byte) []byte { f[2] = 99; return f }, ErrBadVersion},
		{"bad type", func(f []byte) []byte { f[3] = 99; return f }, ErrBadType},
		{"oversize", func(f []byte) []byte {
			f[4], f[5], f[6], f[7] = 0xff, 0xff, 0xff, 0xff
			return f
		}, ErrOversize},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)-1] }, ErrCorrupt},
		{"truncated header", func(f []byte) []byte { return f[:4] }, ErrCorrupt},
		{"count ahead of payload", func(f []byte) []byte {
			f[HeaderLen] = 0xff // claim 255 records in a 1-record payload
			return f
		}, ErrCountsAhead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.mutate(append([]byte(nil), good...))
			_, err := NewReader(bytes.NewReader(f)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v does not match ErrCorrupt", err)
			}
		})
	}
}

func TestTrailingPayloadBytes(t *testing.T) {
	frame, err := AppendFrame(nil, [][]byte{[]byte("k")}, nil)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	// Grow the declared length and append a stray byte: records no longer
	// cover the payload.
	frame[4]++
	frame = append(frame, 0xAA)
	_, err = NewReader(bytes.NewReader(frame)).Next()
	if !errors.Is(err, ErrTrailing) {
		t.Fatalf("got %v, want ErrTrailing", err)
	}
}

func TestEncoderBounds(t *testing.T) {
	if _, err := AppendFrame(nil, [][]byte{make([]byte, MaxKeyLen+1)}, nil); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("oversized key: got %v, want ErrKeyTooLong", err)
	}
	if _, err := AppendFrame(nil, [][]byte{[]byte("k")}, []uint64{1, 2}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	big := make([][]byte, 0, 70)
	for i := 0; i < 70; i++ {
		big = append(big, make([]byte, MaxKeyLen))
	}
	if _, err := AppendFrame(nil, big, nil); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversized payload: got %v, want ErrOversize", err)
	}
}

func TestTenantRoundTrip(t *testing.T) {
	keys := [][]byte{[]byte("alpha"), []byte("beta")}
	frame, err := AppendFrameTenant(nil, []byte("tenant-a"), keys, nil)
	if err != nil {
		t.Fatalf("AppendFrameTenant: %v", err)
	}
	r := NewReader(bytes.NewReader(frame))
	b, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if string(b.Tenant) != "tenant-a" {
		t.Fatalf("decoded tenant %q, want tenant-a", b.Tenant)
	}
	if b.IsHello() {
		t.Fatal("batch frame decoded as hello")
	}
	if len(b.Keys) != 2 || !bytes.Equal(b.Keys[0], keys[0]) || !bytes.Equal(b.Keys[1], keys[1]) {
		t.Fatalf("bad keys: %q", b.Keys)
	}

	// Weighted v2, and the datagram entry point.
	frame, err = AppendFrameTenant(nil, []byte("t"), keys, []uint64{3, 1 << 40})
	if err != nil {
		t.Fatalf("AppendFrameTenant weighted: %v", err)
	}
	var d Batch
	if err := DecodeDatagram(frame, &d); err != nil {
		t.Fatalf("DecodeDatagram: %v", err)
	}
	if string(d.Tenant) != "t" || d.Weights[1] != 1<<40 {
		t.Fatalf("bad weighted v2 decode: %+v", d)
	}
}

func TestTenantDefaults(t *testing.T) {
	// A v2 frame with an empty tenant and a v1 frame both decode with a
	// nil Tenant: the default tenant.
	v2, err := AppendFrameTenant(nil, nil, [][]byte{[]byte("k")}, nil)
	if err != nil {
		t.Fatalf("AppendFrameTenant: %v", err)
	}
	v1, err := AppendFrame(nil, [][]byte{[]byte("k")}, nil)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	for name, frame := range map[string][]byte{"v2 empty tenant": v2, "v1": v1} {
		var b Batch
		if err := DecodeDatagram(frame, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Tenant != nil {
			t.Fatalf("%s: tenant %q, want nil", name, b.Tenant)
		}
	}
	if _, err := AppendFrameTenant(nil, make([]byte, MaxTenantLen+1), nil, nil); !errors.Is(err, ErrTenantTooLong) {
		t.Fatalf("oversized tenant: got %v, want ErrTenantTooLong", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	frame, err := AppendHello(nil, []byte("secret"))
	if err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	var b Batch
	if err := DecodeDatagram(frame, &b); err != nil {
		t.Fatalf("DecodeDatagram: %v", err)
	}
	if !b.IsHello() || string(b.Token) != "secret" || b.Records() != 0 {
		t.Fatalf("bad hello decode: %+v", b)
	}
	// Encoder bounds.
	if _, err := AppendHello(nil, nil); !errors.Is(err, ErrBadToken) {
		t.Fatalf("empty token: got %v, want ErrBadToken", err)
	}
	if _, err := AppendHello(nil, make([]byte, MaxTokenLen+1)); !errors.Is(err, ErrBadToken) {
		t.Fatalf("oversized token: got %v, want ErrBadToken", err)
	}
	// A v1 header claiming TypeHello is corrupt, not merely old.
	frame[2] = Version
	if err := DecodeDatagram(frame, &b); !errors.Is(err, ErrBadType) {
		t.Fatalf("v1 hello: got %v, want ErrBadType", err)
	}
}

func TestTenantCorruptInputs(t *testing.T) {
	good, err := AppendFrameTenant(nil, []byte("tenant"), [][]byte{[]byte("key")}, nil)
	if err != nil {
		t.Fatalf("AppendFrameTenant: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"tenant longer than payload", func(f []byte) []byte {
			f[HeaderLen] = 0xff // declares a 255-byte tenant the payload lacks
			return f
		}, ErrTruncated},
		{"truncated inside tenant", func(f []byte) []byte { return f[:HeaderLen+3] }, ErrCorrupt},
		{"count ahead after tenant", func(f []byte) []byte {
			f[HeaderLen+1+6] = 0xff // record-count byte, past the 6-byte tenant
			return f
		}, ErrCountsAhead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.mutate(append([]byte(nil), good...))
			_, err := NewReader(bytes.NewReader(f)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	// Hello with an over-declared token.
	hello, err := AppendHello(nil, []byte("tok"))
	if err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	hello[HeaderLen] = 0xff
	hello[HeaderLen+1] = 0xff
	var b Batch
	if err := DecodeDatagram(hello, &b); !errors.Is(err, ErrBadToken) {
		t.Fatalf("over-declared token: got %v, want ErrBadToken", err)
	}
}

func TestReaderReusesBuffers(t *testing.T) {
	// 2000 frames of ~118 bytes span several read-ahead buffers, so the
	// measured decodes include refills.
	const frames = 2000
	var stream []byte
	var err error
	keys := [][]byte{bytes.Repeat([]byte("k"), 100)}
	for i := 0; i < frames; i++ {
		stream, err = AppendFrame(stream, keys, nil)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	r := NewReader(bytes.NewReader(stream))
	// Warm the reader's buffers on the first frame, then the remaining
	// decodes must not allocate.
	if _, err := r.Next(); err != nil {
		t.Fatalf("warmup Next: %v", err)
	}
	allocs := testing.AllocsPerRun(frames-1, func() {
		if _, err := r.Next(); err != nil && err != io.EOF {
			t.Fatalf("Next: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocates %.1f/op, want 0", allocs)
	}

	// The v2 (tenant) decode path holds the same invariant: the tenant is
	// a payload subslice, never a copy.
	stream = stream[:0]
	for i := 0; i < frames; i++ {
		stream, err = AppendFrameTenant(stream, []byte("tenant-a"), keys, nil)
		if err != nil {
			t.Fatalf("AppendFrameTenant: %v", err)
		}
	}
	r = NewReader(bytes.NewReader(stream))
	if _, err := r.Next(); err != nil {
		t.Fatalf("warmup Next: %v", err)
	}
	allocs = testing.AllocsPerRun(frames-1, func() {
		if _, err := r.Next(); err != nil && err != io.EOF {
			t.Fatalf("Next: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state v2 Next allocates %.1f/op, want 0", allocs)
	}
}
