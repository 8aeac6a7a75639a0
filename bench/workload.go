package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	heavykeeper "repro"
	"repro/internal/gen"
	"repro/wire"
)

// Settings shared by every workload.
const (
	topK = 100
	// hkdSeed is hkd's default -seed; in-process twins and ledger levels
	// use it so their sketches place flows exactly as the daemon does.
	hkdSeed = 31337
	// traceScale shrinks the paper's 32M-packet synthetic traces to 4M
	// packets, which one core replays in about a third of a second.
	traceScale = 0.125
	// quickScale shrinks a trace further for -quick smoke runs.
	quickScale = 1.0 / 200

	// heartbeatEvery gives a 25 s run about 1000 freshness samples, eight
	// per hkagg collect period, so the percentiles are stable from run to
	// run.
	heartbeatEvery = 25 * time.Millisecond
	// heartbeatWeight keeps the heartbeat flow far above every trace flow,
	// so it is always monitored and selective increment never holds its
	// count back; at 40 heartbeats/s its counter reaches 2^32 only after
	// about seven minutes.
	heartbeatWeight = 250_000
	// queryEvery paces the hkd and hkagg /topk loops at 50 requests/s each.
	queryEvery = 20 * time.Millisecond
)

// heartbeatKey is the flow the freshness probe sends. It is six bytes long,
// so it can collide with neither the 4-byte nor the 13-byte trace ids.
var heartbeatKey = []byte("hb-key")

// workload is one traffic mix. Every workload runs the same daemon set
// (one hkd plus an hkagg folding it) and the same read side (heartbeats,
// /topk loops); the mixes differ in what they ask of the ingest path.
type workload struct {
	name  string
	why   string
	skew  float64
	kind  gen.IDKind
	batch int // records per frame
	conns int // ingest connections; frames are dealt round-robin
	// rate is the open-loop send rate in records/s; 0 sends closed-loop.
	rate   float64
	memKB  int
	shards int // hkd -shards; 0 is the single-mutex Concurrent frontend
	// snapshot makes hkd persist every second; the run then restarts hkd
	// from its shutdown snapshot and checks the restored report.
	snapshot     bool
	minPrecision float64
}

var workloads = []workload{
	{
		name:  "elephants-b64",
		why:   "zipf 1.5, 64-record frames: per-frame layers run 4-16x more often and the sketch mostly hits resident elephants",
		skew:  1.5,
		kind:  gen.IDWord,
		batch: 64, conns: 1, memKB: 64,
		minPrecision: 0.95,
	},
	{
		name:  "mice-b1024",
		why:   "zipf 0.6, 13-byte ids, 1024-record frames, 32 KB: hash, decay and store work dominate; snapshots written under load",
		skew:  0.6,
		kind:  gen.IDFiveTuple,
		batch: 1024, conns: 1, memKB: 32, snapshot: true,
		minPrecision: 0.80,
	},
	{
		name:  "sharded-2conn",
		why:   "zipf 1.0, two connections into -shards 2: two ingest goroutines and the generator compete for the cores",
		skew:  1.0,
		kind:  gen.IDWord,
		batch: 256, conns: 2, memKB: 64, shards: 2,
		minPrecision: 0.95,
	},
	{
		name:  "read-write-mix",
		why:   "zipf 1.0 open loop at 2 Mpps, about 15% of capacity: read latency and freshness measure service time, not backlog",
		skew:  1.0,
		kind:  gen.IDWord,
		batch: 256, conns: 1, rate: 2e6, memKB: 64,
		minPrecision: 0.95,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec is the generator input of w under seed.
func (w workload) spec(seed uint64, quick bool) gen.Spec {
	s := gen.Synthetic(w.skew, seed).Scale(traceScale)
	if quick {
		s = s.Scale(quickScale)
	}
	s.Name = w.name
	s.Kind = w.kind
	return s
}

// newFrontend builds an in-process summarizer shaped like w's hkd.
func (w workload) newFrontend() (heavykeeper.Summarizer, error) {
	opts := []heavykeeper.Option{heavykeeper.WithMemory(w.memKB << 10), heavykeeper.WithSeed(hkdSeed)}
	if w.shards > 0 {
		opts = append(opts, heavykeeper.WithShards(w.shards))
	} else {
		opts = append(opts, heavykeeper.WithConcurrency())
	}
	return heavykeeper.New(topK, opts...)
}

// traffic is a generated trace cut into w's frames. Frame j of one replay
// holds packets [j*batch, (j+1)*batch) of the trace; connection c sends
// frames j ≡ c (mod conns) of every replay, in order.
type traffic struct {
	w      workload
	tr     *gen.Trace
	frames int // frames per replay
}

func newTraffic(w workload, seed uint64, quick bool) (*traffic, error) {
	tr, err := gen.Generate(w.spec(seed, quick))
	if err != nil {
		return nil, err
	}
	return &traffic{w: w, tr: tr, frames: (tr.Len() + w.batch - 1) / w.batch}, nil
}

// keys fills buf with frame j's keys, which alias the trace's id table.
func (t *traffic) keys(j int, buf [][]byte) [][]byte {
	lo := j * t.w.batch
	hi := min(lo+t.w.batch, t.tr.Len())
	buf = buf[:0]
	for _, i := range t.tr.Seq[lo:hi] {
		buf = append(buf, t.tr.IDs[i])
	}
	return buf
}

// owned is how many frames of one replay connection c sends.
func (t *traffic) owned(c int) int {
	return (t.frames - c + t.w.conns - 1) / t.w.conns
}

// frameOf maps connection c's n-th frame (counting across replays) to its
// frame index within a replay.
func (t *traffic) frameOf(c, n int) int {
	return c + (n%t.owned(c))*t.w.conns
}

// truth is the exact per-flow count of the bulk frames sent: sent[c] frames
// from connection c, indexed like the trace's id table.
func (t *traffic) truth(sent []int) []uint64 {
	counts := make([]uint64, t.tr.Flows())
	for c, n := range sent {
		full, part := n/t.owned(c), n%t.owned(c)
		for k := 0; k < t.owned(c); k++ {
			mult := uint64(full)
			if k < part {
				mult++
			}
			if mult == 0 {
				break
			}
			lo := (c + k*t.w.conns) * t.w.batch
			for _, i := range t.tr.Seq[lo:min(lo+t.w.batch, t.tr.Len())] {
				counts[i] += mult
			}
		}
	}
	return counts
}

// accuracy scores a reported top-k against exact counts: precision is the
// share of the k reported flows whose true count reaches the k-th largest
// true count (ties at the boundary count as correct), ARE the mean relative
// error of the reported counts.
func (t *traffic) accuracy(counts []uint64, hbCount uint64, reported []heavykeeper.Flow) (precision, are float64) {
	sorted := append(slices.Clone(counts), hbCount)
	slices.Sort(sorted)
	threshold := sorted[max(0, len(sorted)-topK)]

	truth := make(map[string]uint64, len(reported))
	for _, f := range reported {
		truth[string(f.ID)] = 0
	}
	for i, id := range t.tr.IDs {
		if _, ok := truth[string(id)]; ok {
			truth[string(id)] = counts[i]
		}
	}
	if _, ok := truth[string(heartbeatKey)]; ok {
		truth[string(heartbeatKey)] = hbCount
	}
	hits := 0
	for _, f := range reported {
		c := truth[string(f.ID)]
		if c > 0 && c >= threshold {
			hits++
		}
		if c > 0 {
			d := float64(f.Count) - float64(c)
			if d < 0 {
				d = -d
			}
			are += d / float64(c)
		} else {
			are++
		}
	}
	if len(reported) > 0 {
		are /= float64(len(reported))
	}
	return float64(hits) / topK, are
}

// encodedReplay is one replay of the trace framed exactly as the SDK
// frames it, back to back as hkd reads it off a connection.
type encodedReplay struct {
	stream  []byte
	offsets []int // start of each frame's header in stream
	records int
}

func (t *traffic) encode() (*encodedReplay, error) {
	var buf [][]byte
	e := &encodedReplay{offsets: make([]int, t.frames), records: t.tr.Len()}
	for j := 0; j < t.frames; j++ {
		e.offsets[j] = len(e.stream)
		var err error
		if e.stream, err = wire.AppendFrame(e.stream, t.keys(j, buf), nil); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// decode decodes frame j into b. The keys alias the stream, as wire.Reader's
// keys alias its frame buffer.
func (e *encodedReplay) decode(j int, b *wire.Batch) error {
	var hdr [wire.HeaderLen]byte
	off := e.offsets[j]
	copy(hdr[:], e.stream[off:])
	h, err := wire.ParseHeader(hdr)
	if err != nil {
		return err
	}
	payload := e.stream[off+wire.HeaderLen : off+wire.HeaderLen+int(h.Length)]
	return wire.DecodePayload(h.Version, h.Type, payload, b)
}

// sameFlows reports whether two reports agree flow for flow, describing the
// first difference.
func sameFlows(got, want []heavykeeper.Flow) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d flows vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].ID, want[i].ID) || got[i].Count != want[i].Count {
			return false, fmt.Sprintf("rank %d: %x/%d vs %x/%d", i+1, got[i].ID, got[i].Count, want[i].ID, want[i].Count)
		}
	}
	return true, fmt.Sprintf("%d flows equal", len(got))
}
