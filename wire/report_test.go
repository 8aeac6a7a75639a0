package wire

import (
	"errors"
	"testing"

	heavykeeper "repro"
)

func TestReportRoundTrip(t *testing.T) {
	in := Report{Generation: 42, K: 5, Flows: []heavykeeper.Flow{
		{ID: []byte("elephant"), Count: 1 << 33}, {ID: []byte("mouse"), Count: 1},
	}}
	enc, err := AppendReport([]byte("prefix"), in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReport(enc[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if !sameReport(in, out) {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestReportRejects(t *testing.T) {
	enc, _ := AppendReport(nil, Report{Generation: 1, K: 2, Flows: []heavykeeper.Flow{{ID: []byte("a"), Count: 3}}})
	for name, tc := range map[string]struct {
		b    []byte
		want error
	}{
		"short":     {enc[:10], ErrCorrupt},
		"truncated": {enc[:len(enc)-1], ErrReportChecksum},
		"trailing":  {append(append([]byte(nil), enc...), 0), ErrReportChecksum},
		"flipped":   {flipByte(enc, 13), ErrReportChecksum},
	} {
		if _, err := DecodeReport(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", name, err, tc.want)
		}
	}
	if _, err := AppendReport(nil, Report{Flows: []heavykeeper.Flow{{ID: make([]byte, MaxKeyLen+1)}}}); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("oversized key: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}
