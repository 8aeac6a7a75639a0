package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	heavykeeper "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/obs"
	"repro/internal/streamsummary"
	"repro/internal/topk"
	"repro/server"
	"repro/wire"
)

// The ledger replays one replay of a workload's frames in process through
// deeper and deeper stacks of public calls and reports each stack's cost
// per key and the marginal cost of the layer it adds, at GOMAXPROCS 1 and
// 2. Frames are replayed as wire.Reader decodes them, with keys aliasing
// the encoded payload, because that is the memory hkd hashes from.

// ledgerRow is one stack depth.
type ledgerRow struct {
	Layer string `json:"layer"`
	Calls string `json:"calls"`
	// NsPerKey and Marginal are indexed by GOMAXPROCS-1.
	NsPerKey [2]float64 `json:"ns_per_key"`
	Marginal [2]float64 `json:"marginal_ns_per_key"`
}

type ledger struct {
	Records          int         `json:"records"`
	Frames           int         `json:"frames"`
	Stack            []ledgerRow `json:"stack"`
	EncodeNsPerKey   float64     `json:"wire_encode_ns_per_key"`
	DecodeNsPerKey   float64     `json:"wire_decode_ns_per_key"`
	DecodeNsPerFrame float64     `json:"wire_decode_ns_per_frame"`
	BytesPerKey      float64     `json:"wire_bytes_per_key"`
	ShardedMpps      [2]float64  `json:"sharded_mpps"`
	ScalingP2        float64     `json:"sharded_scaling_p2"`
}

// chunkFrames is how many frames are decoded ahead of each timed stretch,
// keeping decode out of the timed region of the layers below wire.
const chunkFrames = 64

// sink keeps the hash level's results live.
var sink uint64

// timed decodes the replay chunk by chunk and sums the time fn takes over
// each chunk's frames.
func (e *encodedReplay) timed(fn func(keys [][]byte)) (time.Duration, error) {
	batches := make([]wire.Batch, chunkFrames)
	var total time.Duration
	for lo := 0; lo < len(e.offsets); lo += chunkFrames {
		hi := min(lo+chunkFrames, len(e.offsets))
		for j := lo; j < hi; j++ {
			if err := e.decode(j, &batches[j-lo]); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for j := lo; j < hi; j++ {
			fn(batches[j-lo].Keys)
		}
		total += time.Since(start)
	}
	return total, nil
}

// coreConfig is the sketch a single-engine hkd builds for w's memory
// budget: k summary entries plus two bucket arrays filling the rest. (The
// sharded frontend splits the budget across its shards.)
func coreConfig(w workload) core.Config {
	bucket := core.BucketBytes(core.DefaultFingerprintBits, core.DefaultCounterBits)
	width := int(float64(w.memKB<<10-topK*streamsummary.BytesPerEntry) / (core.DefaultD * bucket))
	return core.Config{D: core.DefaultD, W: width, B: core.DefaultB, FingerprintBits: core.DefaultFingerprintBits, Seed: hkdSeed}
}

// level is one stack depth: setup builds fresh state and returns a pass
// that replays the frames once through it, plus a cleanup.
type level struct {
	layer, calls string
	setup        func() (pass func() (time.Duration, error), cleanup func(), err error)
}

func ledgerLevels(tf *traffic, e *encodedReplay) []level {
	w := tf.w
	frontendCalls := "Concurrent.AddBatch"
	if w.shards > 0 {
		frontendCalls = "Sharded.AddBatch"
	}
	noop := func() {}
	return []level{
		{"hash", "hash.Sum64", func() (func() (time.Duration, error), func(), error) {
			sk, err := core.New(coreConfig(w))
			if err != nil {
				return nil, nil, err
			}
			seed := sk.KeySeed()
			return func() (time.Duration, error) {
				return e.timed(func(keys [][]byte) {
					for _, k := range keys {
						sink += hash.Sum64(seed, k)
					}
				})
			}, noop, nil
		}},
		{"core", "+ core.Sketch.InsertParallelHashed", func() (func() (time.Duration, error), func(), error) {
			sk, err := core.New(coreConfig(w))
			return func() (time.Duration, error) {
				return e.timed(func(keys [][]byte) {
					for _, k := range keys {
						sk.InsertParallelHashed(k, sk.KeyHash(k), true, 0)
					}
				})
			}, noop, err
		}},
		{"topk", "+ topk.Tracker.InsertBatch (store)", func() (func() (time.Duration, error), func(), error) {
			tr, err := topk.New(topk.Options{K: topK, Version: topk.Parallel, Store: topk.StoreSummary, Sketch: coreConfig(w)})
			return func() (time.Duration, error) {
				return e.timed(func(keys [][]byte) { tr.InsertBatch(keys) })
			}, noop, err
		}},
		{"frontend", "+ " + frontendCalls, func() (func() (time.Duration, error), func(), error) {
			f, err := w.newFrontend()
			return func() (time.Duration, error) {
				return e.timed(func(keys [][]byte) { f.AddBatch(keys) })
			}, noop, err
		}},
		{"wire", "+ wire.Reader.Next", func() (func() (time.Duration, error), func(), error) {
			f, err := w.newFrontend()
			return func() (time.Duration, error) {
				start := time.Now()
				r := wire.NewReader(bytes.NewReader(e.stream))
				for {
					b, err := r.Next()
					if errors.Is(err, io.EOF) {
						return time.Since(start), nil
					}
					if err != nil {
						return 0, err
					}
					f.AddBatch(b.Keys)
				}
			}, noop, err
		}},
		{"server", "+ server over loopback TCP, fed by client.Ingest.SendBatch", func() (func() (time.Duration, error), func(), error) {
			return loopbackLevel(tf)
		}},
	}
}

// loopbackLevel is the deepest stack: an in-process hkd server fed over
// loopback TCP by the SDK, timed from the first send until the summarizer
// has counted every key.
func loopbackLevel(tf *traffic) (func() (time.Duration, error), func(), error) {
	f, err := tf.w.newFrontend()
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Summarizer: f, TCPAddr: "127.0.0.1:0", Logger: obs.Discard()})
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	in, err := client.Dial("tcp", srv.TCPAddr().String(), client.IngestWithBatchSize(tf.w.batch))
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, nil, err
	}
	cleanup := func() {
		in.Close()
		srv.Shutdown(context.Background())
	}
	buf := make([][]byte, 0, tf.w.batch)
	sent := uint64(0)
	return func() (time.Duration, error) {
		start := time.Now()
		for j := 0; j < tf.frames; j++ {
			keys := tf.keys(j, buf)
			if err := in.SendBatch(keys); err != nil {
				return 0, err
			}
			sent += uint64(len(keys))
		}
		deadline := time.Now().Add(60 * time.Second)
		for f.Stats().Packets < sent {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("in-process server applied %d of %d keys within 60 s", f.Stats().Packets, sent)
			}
			time.Sleep(20 * time.Microsecond)
		}
		return time.Since(start), nil
	}, cleanup, nil
}

// ledgerRounds is how many timed passes each level gets. The ledger reports
// the median, and the levels' passes are interleaved so that a slow patch
// of the machine does not land on one level only.
const ledgerRounds = 3

// runLedger measures every level at GOMAXPROCS 1 and 2, plus the standalone
// wire costs and the sharded frontend's two-goroutine scaling.
func runLedger(tf *traffic, e *encodedReplay, rec *recorder) (*ledger, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	led := &ledger{Records: e.records, Frames: len(e.offsets)}
	levels := ledgerLevels(tf, e)
	led.Stack = make([]ledgerRow, len(levels))
	for p := 1; p <= 2; p++ {
		runtime.GOMAXPROCS(p)
		ns, err := timeLevels(levels, rec)
		if err != nil {
			return nil, err
		}
		for i, l := range levels {
			row := &led.Stack[i]
			row.Layer, row.Calls = l.layer, l.calls
			row.NsPerKey[p-1] = ns[i] / float64(e.records)
			row.Marginal[p-1] = row.NsPerKey[p-1]
			if i > 0 {
				row.Marginal[p-1] -= led.Stack[i-1].NsPerKey[p-1]
			}
		}
	}

	runtime.GOMAXPROCS(1)
	var err error
	if led.EncodeNsPerKey, err = encodeCost(tf); err != nil {
		return nil, err
	}
	start := time.Now()
	r := wire.NewReader(bytes.NewReader(e.stream))
	for {
		if _, err := r.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
	}
	d := float64(time.Since(start).Nanoseconds())
	led.DecodeNsPerKey = d / float64(e.records)
	led.DecodeNsPerFrame = d / float64(len(e.offsets))
	led.BytesPerKey = float64(len(e.stream)) / float64(e.records)

	if led.ShardedMpps, err = shardedScaling(tf, e); err != nil {
		return nil, err
	}
	led.ScalingP2 = led.ShardedMpps[1] / led.ShardedMpps[0]
	return led, nil
}

// timeLevels builds every level, warms each with one untimed pass, then
// runs ledgerRounds interleaved timed passes and returns each level's
// median pass time in nanoseconds.
func timeLevels(levels []level, rec *recorder) ([]float64, error) {
	passes := make([]func() (time.Duration, error), len(levels))
	for i, l := range levels {
		pass, cleanup, err := l.setup()
		if err != nil {
			return nil, err
		}
		defer cleanup()
		if _, err := pass(); err != nil {
			return nil, err
		}
		passes[i] = pass
	}
	times := make([][]float64, len(levels))
	for range ledgerRounds {
		for i, pass := range passes {
			start := time.Now()
			d, err := pass()
			if err != nil {
				return nil, err
			}
			rec.end("ledger."+levels[i].layer, "ledger", start)
			times[i] = append(times[i], float64(d.Nanoseconds()))
		}
	}
	ns := make([]float64, len(levels))
	for i, t := range times {
		ns[i] = quantile(t, 0.5)
	}
	return ns, nil
}

// encodeCost times wire.AppendFrame over one replay, with keys read from
// the trace's id table as the SDK reads them from the generator's frames.
func encodeCost(tf *traffic) (float64, error) {
	bufs := make([][][]byte, chunkFrames)
	var frame []byte
	var total time.Duration
	for lo := 0; lo < tf.frames; lo += chunkFrames {
		hi := min(lo+chunkFrames, tf.frames)
		for j := lo; j < hi; j++ {
			bufs[j-lo] = tf.keys(j, bufs[j-lo])
		}
		start := time.Now()
		for j := lo; j < hi; j++ {
			var err error
			if frame, err = wire.AppendFrame(frame[:0], bufs[j-lo], nil); err != nil {
				return 0, err
			}
		}
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(tf.tr.Len()), nil
}

// shardedScaling measures a two-shard Sharded frontend fed by one goroutine
// at GOMAXPROCS 1 and by two goroutines (frames dealt round-robin, each
// decoding its own, as hkd's connection goroutines do) at GOMAXPROCS 2,
// reporting the median of ledgerRounds interleaved passes of each.
func shardedScaling(tf *traffic, e *encodedReplay) ([2]float64, error) {
	var mpps [2]float64
	sh, err := heavykeeper.New(topK, heavykeeper.WithMemory(tf.w.memKB<<10), heavykeeper.WithSeed(hkdSeed), heavykeeper.WithShards(2))
	if err != nil {
		return mpps, err
	}
	feed := func(g, n int) error {
		var b wire.Batch
		for j := g; j < len(e.offsets); j += n {
			if err := e.decode(j, &b); err != nil {
				return err
			}
			sh.AddBatch(b.Keys)
		}
		return nil
	}
	if err := feed(0, 1); err != nil {
		return mpps, err
	}
	var rates [2][]float64
	for range ledgerRounds {
		for p := 1; p <= 2; p++ {
			runtime.GOMAXPROCS(p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < p; g++ {
				wg.Add(1)
				go func() { defer wg.Done(); errs[g] = feed(g, p) }()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return mpps, err
			}
			rates[p-1] = append(rates[p-1], float64(e.records)/time.Since(start).Seconds()/1e6)
		}
	}
	return [2]float64{quantile(rates[0], 0.5), quantile(rates[1], 0.5)}, nil
}

// twin replays every frame hkd received on the measured run's single
// connection, heartbeats included at the positions they were sent, through
// wire decode into the frontend hkd serves from, and compares the twin's
// report with the one hkd served.
func twin(tf *traffic, e *encodedReplay, m *measurement) (bool, string, error) {
	f, err := tf.w.newFrontend()
	if err != nil {
		return false, "", err
	}
	var b wire.Batch
	hb := 0
	for k := 0; k < m.sentFrames[0]; k++ {
		for ; hb < len(m.hbPos) && m.hbPos[hb] == k; hb++ {
			f.AddN(heartbeatKey, heartbeatWeight)
		}
		if err := e.decode(tf.frameOf(0, k), &b); err != nil {
			return false, "", err
		}
		f.AddBatch(b.Keys)
	}
	for ; hb < len(m.hbPos); hb++ {
		f.AddN(heartbeatKey, heartbeatWeight)
	}
	ok, detail := sameFlows(m.topk, f.List())
	return ok, detail, nil
}
