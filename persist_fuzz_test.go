package heavykeeper

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSnapshotCorpus builds the seed corpus for FuzzSnapshotRead: one
// valid checksummed envelope per container kind, a bare WriteTo container
// (which must be rejected), and structured corruptions of each (truncations, bit flips, bad magic)
// so the fuzzer starts at the interesting boundaries instead of having
// to rediscover the format.
func fuzzSnapshotCorpus(f *testing.F) {
	add := func(b []byte) { f.Add(b) }
	var writers []SnapshotWriter
	for _, opts := range [][]Option{
		nil,
		{WithConcurrency()},
		{WithShards(2)},
		{WithVersion(VersionMinimum)},
	} {
		s := MustNew(5, append([]Option{WithSeed(1), WithMemory(4 << 10)}, opts...)...)
		ingestZipfish(s, 50, 2000)
		writers = append(writers, s.(SnapshotWriter))
	}
	// Nothing writes kind 2 any more, but it is still read: seed it as a
	// TopK container with its kind byte patched, the layout kind 2 has.
	var bare bytes.Buffer
	if _, err := writers[0].WriteTo(&bare); err != nil {
		f.Fatalf("WriteTo: %v", err)
	}
	writers = append(writers, rawContainer(patchByte(bare.Bytes(), 4, snapKindConcurrent)))
	for _, s := range writers {
		var buf bytes.Buffer
		if _, err := WriteSnapshot(&buf, s); err != nil {
			f.Fatalf("WriteSnapshot: %v", err)
		}
		raw := buf.Bytes()
		add(raw)
		add(raw[:len(raw)/2])
		add(raw[:len(raw)-4])
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/3] ^= 0x10
		add(flipped)

		buf.Reset()
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatalf("WriteTo: %v", err)
		}
		add(buf.Bytes()) // bare container: no envelope, so rejected
	}
	add([]byte("HKC1"))
	add([]byte("HKC1\x00\x00\x00\x00\x00\x00\x00\x00"))
	add([]byte("HKC1\xff\xff\xff\xff"))
	add(nil)
}

// FuzzSnapshotRead holds the checksummed-envelope decoder to its
// contract: never panic, reject every malformed input as ErrCorrupt (or
// ErrSnapshotUnsupported is impossible on read), accept only envelopes that
// VerifySnapshot also passes, and restore accepted inputs into a
// summarizer that can re-snapshot itself.
func FuzzSnapshotRead(f *testing.F) {
	fuzzSnapshotCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		if !bytes.HasPrefix(data, envelopeMagic[:]) {
			t.Fatalf("accepted an input without the envelope magic")
		}
		if err := VerifySnapshot(bytes.NewReader(data)); err != nil {
			t.Fatalf("ReadSnapshot accepted what VerifySnapshot rejects: %v", err)
		}
		// Accepted input: the restored summarizer must be serviceable and
		// re-serializable through the checksummed envelope.
		sum.Add([]byte("fuzz-probe"))
		var buf bytes.Buffer
		if _, err := WriteSnapshot(&buf, sum.(SnapshotWriter)); err != nil {
			t.Fatalf("re-snapshot of accepted input: %v", err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-read of re-snapshot: %v", err)
		}
	})
}
