package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	heavykeeper "repro"
)

// FuzzWireDecode throws arbitrary byte streams at the frame decoder. The
// contract under attack: decoding never panics, every failure matches
// ErrCorrupt (or is a clean io.EOF between frames), every frame the
// decoder does accept re-encodes to semantically identical records, and
// delivering the stream in pieces cut at fuzz-chosen lengths decodes the
// same frames and ends in the same class of error as one whole read.
func FuzzWireDecode(f *testing.F) {
	seed, _ := AppendFrame(nil, [][]byte{[]byte("flow-a"), []byte("flow-b")}, nil)
	f.Add(seed, []byte{})
	weighted, _ := AppendFrame(nil, [][]byte{[]byte("w")}, []uint64{1 << 33})
	f.Add(weighted, []byte{3})
	f.Add(append(seed, weighted...), []byte{0, 9, 1})
	f.Add([]byte("HK"), []byte{0})
	f.Add([]byte{}, []byte{})
	tenant, _ := AppendFrameTenant(nil, []byte("tenant-a"), [][]byte{[]byte("flow-a")}, nil)
	f.Add(tenant, []byte{7, 2})
	tenantW, _ := AppendFrameTenant(nil, []byte("b"), [][]byte{[]byte("w")}, []uint64{7})
	f.Add(tenantW, []byte{11})
	defTenant, _ := AppendFrameTenant(nil, nil, [][]byte{[]byte("flow-a")}, nil)
	f.Add(defTenant, []byte{255})
	hello, _ := AppendHello(nil, []byte("secret-token"))
	f.Add(hello, []byte{1})
	f.Add(append(append([]byte{}, hello...), tenant...), []byte{12, 0, 4})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		wholeB, wholeErr := readAll(bytes.NewReader(data))
		splitB, splitErr := readAll(&splitReader{data: data, cuts: cuts})
		if err := sameDecode(splitB, splitErr, wholeB, wholeErr); err != nil {
			t.Fatalf("split at %v: %v", cuts, err)
		}

		r := NewReader(bytes.NewReader(data))
		for {
			b, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error %v does not match ErrCorrupt", err)
				}
				break
			}
			if b.Weights != nil && len(b.Weights) != 0 && len(b.Weights) != len(b.Keys) {
				t.Fatalf("decoded %d keys but %d weights", len(b.Keys), len(b.Weights))
			}
			if b.IsHello() {
				// An accepted handshake must carry a bounded, non-empty
				// token and re-encode losslessly.
				if len(b.Token) == 0 || len(b.Token) > MaxTokenLen {
					t.Fatalf("accepted hello with token length %d", len(b.Token))
				}
				re, err := AppendHello(nil, b.Token)
				if err != nil {
					t.Fatalf("re-encode of accepted hello failed: %v", err)
				}
				var back Batch
				if err := DecodeDatagram(re, &back); err != nil {
					t.Fatalf("re-decode of re-encoded hello failed: %v", err)
				}
				if !bytes.Equal(back.Token, b.Token) {
					t.Fatal("round trip changed hello token")
				}
				continue
			}
			// Round-trip: an accepted frame must re-encode and decode to
			// the same records (through the v2 encoder when the frame
			// carried a tenant, so the tenant survives too).
			var ws []uint64
			if len(b.Weights) > 0 {
				ws = b.Weights
			}
			var re []byte
			if b.Tenant != nil {
				re, err = AppendFrameTenant(nil, b.Tenant, b.Keys, ws)
			} else {
				re, err = AppendFrame(nil, b.Keys, ws)
			}
			if err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			var back Batch
			if err := DecodeDatagram(re, &back); err != nil {
				t.Fatalf("re-decode of re-encoded frame failed: %v", err)
			}
			if len(back.Keys) != len(b.Keys) {
				t.Fatalf("round trip changed record count: %d vs %d", len(back.Keys), len(b.Keys))
			}
			if !bytes.Equal(back.Tenant, b.Tenant) {
				t.Fatalf("round trip changed tenant: %q vs %q", back.Tenant, b.Tenant)
			}
			for i := range back.Keys {
				if !bytes.Equal(back.Keys[i], b.Keys[i]) {
					t.Fatalf("round trip changed key %d", i)
				}
				if ws != nil && back.Weights[i] != ws[i] {
					t.Fatalf("round trip changed weight %d", i)
				}
			}
		}

		// The datagram entry point must hold the same no-panic, typed-error
		// contract on the raw bytes.
		var b Batch
		if err := DecodeDatagram(data, &b); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeDatagram error %v does not match ErrCorrupt", err)
		}
	})
}

// FuzzReportDecode throws arbitrary bytes at the report decoder and
// corrupts valid reports one byte at a time. The contract under attack:
// decoding never panics and fails only with ErrCorrupt errors, every
// accepted report re-encodes to one that decodes to the same report, and
// any single-byte change to a valid frame is rejected.
func FuzzReportDecode(f *testing.F) {
	valid, _ := AppendReport(nil, Report{Generation: 7, K: 3, Flows: []heavykeeper.Flow{
		{ID: []byte("flow-a"), Count: 1 << 40}, {ID: []byte("b"), Count: 2}, {ID: nil, Count: 0},
	}})
	f.Add(valid, uint16(0), byte(1))
	empty, _ := AppendReport(nil, Report{Generation: 1 << 63, K: 100})
	f.Add(empty, uint16(5), byte(0x80))
	f.Add([]byte("HKR1"), uint16(3), byte(0xff))
	f.Add([]byte{}, uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		r, err := DecodeReport(data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeReport error %v does not match ErrCorrupt", err)
		}
		if err != nil {
			// Make a valid report out of the input instead, so the
			// corruption check below always has a frame to attack.
			r = Report{Generation: uint64(len(data)), K: int(pos)}
			for len(data) > 0 {
				n := min(len(data), 1+int(data[0])%16)
				r.Flows = append(r.Flows, heavykeeper.Flow{ID: data[:n], Count: uint64(flip) << (n % 57)})
				data = data[n:]
			}
		}
		enc, err := AppendReport(nil, r)
		if err != nil {
			t.Fatalf("re-encode of %+v failed: %v", r, err)
		}
		back, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameReport(back, r) {
			t.Fatalf("round trip changed the report: %+v vs %+v", back, r)
		}

		if flip == 0 {
			flip = 1
		}
		bad := append([]byte(nil), enc...)
		bad[int(pos)%len(bad)] ^= flip
		if _, err := DecodeReport(bad); !errors.Is(err, ErrReportChecksum) {
			t.Fatalf("byte %d flipped by %#x: got %v, want ErrReportChecksum", int(pos)%len(bad), flip, err)
		}
	})
}

func sameReport(a, b Report) bool {
	if a.Generation != b.Generation || a.K != b.K || len(a.Flows) != len(b.Flows) {
		return false
	}
	for i := range a.Flows {
		if !bytes.Equal(a.Flows[i].ID, b.Flows[i].ID) || a.Flows[i].Count != b.Flows[i].Count {
			return false
		}
	}
	return true
}
