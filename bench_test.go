// Benchmarks that regenerate every table and figure of the HeavyKeeper
// paper's evaluation (§VI, Figs 4–36) plus this repository's ablations.
//
// Each BenchmarkFigNN runs the corresponding experiment through the harness
// and logs the resulting table (view with `go test -bench Fig04 -v`); the
// benchmark's wall time is the cost of regenerating that figure. Key series
// are also exported as benchmark metrics so regressions show up in
// benchstat. The workload scale defaults to 0.5% of the paper's packet
// counts so the full suite completes in minutes; set HK_BENCH_SCALE (e.g.
// 0.1 or 1.0) for higher-fidelity runs.
//
// The per-packet hot-path benchmarks live next to their packages (e.g.
// internal/core, internal/topk); this file covers the paper-level
// experiments.
package heavykeeper_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	heavykeeper "repro"
	"repro/internal/gen"
	"repro/internal/harness"
)

func benchScale() float64 {
	if s := os.Getenv("HK_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.005
}

var (
	runnerOnce sync.Once
	runner     *harness.Runner
)

// sharedRunner caches traces and oracles across all figure benchmarks.
func sharedRunner() *harness.Runner {
	runnerOnce.Do(func() {
		runner = harness.NewRunner(harness.RunConfig{Scale: benchScale(), Seed: 31337})
	})
	return runner
}

// benchFigure runs figure id once per b.N iteration and logs the table.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		tab, err := r.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
			reportKeySeries(b, tab)
		}
	}
}

// reportKeySeries exports the HeavyKeeper series' last sweep point (the
// most generous setting) and first point (the tightest) as metrics.
func reportKeySeries(b *testing.B, tab *harness.Table) {
	for _, col := range []string{harness.AlgoHK, harness.AlgoHKMinimum} {
		if series := tab.Column(col); series != nil && len(series) > 0 {
			b.ReportMetric(series[0], "HK_first")
			b.ReportMetric(series[len(series)-1], "HK_last")
			return
		}
	}
}

func benchAblation(b *testing.B, id string) {
	b.Helper()
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		tab, err := r.Ablation(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab)
		}
	}
}

func BenchmarkFig04PrecisionVsMemoryCampus(b *testing.B)   { benchFigure(b, "4") }
func BenchmarkFig05PrecisionVsMemoryCAIDA(b *testing.B)    { benchFigure(b, "5") }
func BenchmarkFig06PrecisionVsKCampus(b *testing.B)        { benchFigure(b, "6") }
func BenchmarkFig07PrecisionVsKCAIDA(b *testing.B)         { benchFigure(b, "7") }
func BenchmarkFig08PrecisionVsSkew(b *testing.B)           { benchFigure(b, "8") }
func BenchmarkFig09AREVsMemoryCampus(b *testing.B)         { benchFigure(b, "9") }
func BenchmarkFig10PrecisionVsMemoryMB(b *testing.B)       { benchFigure(b, "10") }
func BenchmarkFig11AREVsMemoryCAIDA(b *testing.B)          { benchFigure(b, "11") }
func BenchmarkFig12AREVsKCampus(b *testing.B)              { benchFigure(b, "12") }
func BenchmarkFig13AREVsKCAIDA(b *testing.B)               { benchFigure(b, "13") }
func BenchmarkFig14AREVsSkew(b *testing.B)                 { benchFigure(b, "14") }
func BenchmarkFig15AAEVsMemoryCampus(b *testing.B)         { benchFigure(b, "15") }
func BenchmarkFig16AAEVsMemoryCAIDA(b *testing.B)          { benchFigure(b, "16") }
func BenchmarkFig17AAEVsKCampus(b *testing.B)              { benchFigure(b, "17") }
func BenchmarkFig18AAEVsKCAIDA(b *testing.B)               { benchFigure(b, "18") }
func BenchmarkFig19AAEVsSkew(b *testing.B)                 { benchFigure(b, "19") }
func BenchmarkFig20PrecisionRecentWorks(b *testing.B)      { benchFigure(b, "20") }
func BenchmarkFig21ARERecentWorks(b *testing.B)            { benchFigure(b, "21") }
func BenchmarkFig22AAERecentWorks(b *testing.B)            { benchFigure(b, "22") }
func BenchmarkFig23PrecisionParallelVsMin(b *testing.B)    { benchFigure(b, "23") }
func BenchmarkFig24AREParallelVsMin(b *testing.B)          { benchFigure(b, "24") }
func BenchmarkFig25AAEParallelVsMin(b *testing.B)          { benchFigure(b, "25") }
func BenchmarkFig26PrecisionVsKParallelVsMin(b *testing.B) { benchFigure(b, "26") }
func BenchmarkFig27AREVsKParallelVsMin(b *testing.B)       { benchFigure(b, "27") }
func BenchmarkFig28AAEVsKParallelVsMin(b *testing.B)       { benchFigure(b, "28") }
func BenchmarkFig29PrecisionVsSkewVersions(b *testing.B)   { benchFigure(b, "29") }
func BenchmarkFig30AREVsSkewVersions(b *testing.B)         { benchFigure(b, "30") }
func BenchmarkFig31AAEVsSkewVersions(b *testing.B)         { benchFigure(b, "31") }
func BenchmarkFig32PrecisionVsPackets(b *testing.B)        { benchFigure(b, "32") }
func BenchmarkFig33ThroughputVsMemory(b *testing.B)        { benchFigure(b, "33") }
func BenchmarkFig34OVSThroughput(b *testing.B)             { benchFigure(b, "34") }
func BenchmarkFig35ErrorBoundEps16(b *testing.B)           { benchFigure(b, "35") }
func BenchmarkFig36ErrorBoundEps17(b *testing.B)           { benchFigure(b, "36") }

func BenchmarkAblationDecayFunctions(b *testing.B) { benchAblation(b, "decay-functions") }
func BenchmarkAblationDepth(b *testing.B)          { benchAblation(b, "depth") }
func BenchmarkAblationFingerprint(b *testing.B)    { benchAblation(b, "fingerprint-bits") }
func BenchmarkAblationOptimizations(b *testing.B)  { benchAblation(b, "optimizations") }
func BenchmarkAblationExpansion(b *testing.B)      { benchAblation(b, "expansion") }

// ---------------------------------------------------------------------------
// Parallel ingest benchmarks: WithConcurrency's single mutex (a one-shard
// Sharded) vs Sharded's per-shard locks, per-packet vs batched, across
// goroutine counts.
//
// Run with: go test -bench Ingest -benchtime 2s .
// The acceptance target for the sharded subsystem is Sharded.AddBatch at
// ≥ 2× the throughput of one-shard Add at 8 goroutines.
// ---------------------------------------------------------------------------

var (
	ingestKeysOnce sync.Once
	ingestKeys     [][]byte
	lowSkewOnce    sync.Once
	lowSkewKeys    [][]byte
)

// traceKeys generates spec's packet stream as a key slice. Every ingest
// benchmark indexes it modulo its length, so spec.Packets must be a power
// of two.
func traceKeys(spec gen.Spec) [][]byte {
	tr := gen.MustGenerate(spec)
	keys := make([][]byte, 0, tr.Len())
	tr.ForEach(func(key []byte) { keys = append(keys, key) })
	return keys
}

// sharedIngestKeys is a zipfian key stream (16k distinct draws over ~3k
// flows) shared by all ingest benchmarks. Replayed into a 100-flow
// tracker, about half of its packets still probe the top-k store.
func sharedIngestKeys() [][]byte {
	ingestKeysOnce.Do(func() {
		ingestKeys = traceKeys(gen.Spec{
			Name: "bench", Packets: 1 << 14, Flows: 3000, Skew: 1.0,
			Kind: gen.IDTwoTuple, Seed: 7,
		})
	})
	return ingestKeys
}

// sharedLowSkewKeys is a mouse-heavy stream (64k draws at zipf 0.6 over
// 60k flows). The top-k minimum sits above nearly every mouse counter, so
// fewer than 1 % of its packets probe the store: the path where the
// tracker's probe gate skips almost every probe.
func sharedLowSkewKeys() [][]byte {
	lowSkewOnce.Do(func() {
		lowSkewKeys = traceKeys(gen.Spec{
			Name: "bench-low-skew", Packets: 1 << 16, Flows: 60_000, Skew: 0.6,
			Kind: gen.IDTwoTuple, Seed: 7,
		})
	})
	return lowSkewKeys
}

// benchIngest runs body via b.RunParallel with exactly g goroutines by
// pinning GOMAXPROCS to g for the duration (RunParallel spawns GOMAXPROCS ×
// parallelism goroutines). Each goroutine walks keys from its own offset.
// The timed region ends with a read of sum, which applies whatever a
// Sharded still has queued, so handed-off work is counted.
func benchIngest(b *testing.B, g int, keys [][]byte, sum heavykeeper.Summarizer, body func(pb *testing.PB, keys [][]byte)) {
	b.Helper()
	prev := runtime.GOMAXPROCS(g)
	defer runtime.GOMAXPROCS(prev)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) { body(pb, keys) })
	sum.Stats()
}

func BenchmarkIngestConcurrentAdd(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			c, err := heavykeeper.New(100, heavykeeper.WithConcurrency())
			if err != nil {
				b.Fatal(err)
			}
			benchIngest(b, g, sharedIngestKeys(), c, func(pb *testing.PB, keys [][]byte) {
				i := 0
				for pb.Next() {
					c.Add(keys[i&(len(keys)-1)])
					i++
				}
			})
		})
	}
}

func BenchmarkIngestShardedAdd(b *testing.B) {
	for _, s := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("s=%d/g=%d", s, s), func(b *testing.B) {
			sh, err := heavykeeper.New(100, heavykeeper.WithShards(s))
			if err != nil {
				b.Fatal(err)
			}
			benchIngest(b, s, sharedIngestKeys(), sh, func(pb *testing.PB, keys [][]byte) {
				i := 0
				for pb.Next() {
					sh.Add(keys[i&(len(keys)-1)])
					i++
				}
			})
		})
	}
}

// batchedBody drains the stream in contiguous windows of size bs per
// iteration batch; pb.Next is consumed once per packet so ns/op stays
// per-packet comparable with the unbatched benchmarks.
func batchedBody(add func([][]byte), bs int) func(pb *testing.PB, keys [][]byte) {
	return func(pb *testing.PB, keys [][]byte) {
		i := 0
		for {
			n := 0
			for n < bs && pb.Next() {
				n++
			}
			if n == 0 {
				return
			}
			lo := i & (len(keys) - 1)
			if lo+n > len(keys) {
				lo = 0
			}
			add(keys[lo : lo+n])
			i += n
		}
	}
}

func BenchmarkIngestConcurrentAddBatch(b *testing.B) {
	run := func(name string, bs int, keys func() [][]byte) {
		b.Run(name, func(b *testing.B) {
			c, err := heavykeeper.New(100, heavykeeper.WithConcurrency())
			if err != nil {
				b.Fatal(err)
			}
			benchIngest(b, 8, keys(), c, batchedBody(c.AddBatch, bs))
		})
	}
	for _, bs := range []int{64, 256} {
		run(fmt.Sprintf("g=8/batch=%d", bs), bs, sharedIngestKeys)
	}
	run("g=8/batch=256/zipf=0.6", 256, sharedLowSkewKeys)
}

func BenchmarkIngestShardedAddBatch(b *testing.B) {
	for _, s := range []int{1, 4, 8} {
		for _, bs := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("s=%d/g=%d/batch=%d", s, s, bs), func(b *testing.B) {
				sh, err := heavykeeper.New(100, heavykeeper.WithShards(s))
				if err != nil {
					b.Fatal(err)
				}
				benchIngest(b, s, sharedIngestKeys(), sh, batchedBody(sh.AddBatch, bs))
			})
		}
	}
	// hkd's shape: two shards fed 256-key frames by one or two connection
	// goroutines, at the GOMAXPROCS the binary runs with (-cpu), so the
	// shard drainers have the same cores the producers have.
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("s=2/producers=%d/batch=256", p), func(b *testing.B) {
			sh, err := heavykeeper.New(100, heavykeeper.WithShards(2))
			if err != nil {
				b.Fatal(err)
			}
			benchProducers(b, p, sh, 256)
		})
	}
}

// benchProducers splits b.N packets across p goroutines, each feeding sh
// bs-key batches from its own offset of the shared stream; the timed region
// ends with a read of sh, so handed-off work is counted.
func benchProducers(b *testing.B, p int, sh heavykeeper.Summarizer, bs int) {
	b.Helper()
	keys := sharedIngestKeys()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		n := b.N / p
		if g < b.N%p {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := g * len(keys) / p
			for n > 0 {
				m := min(bs, n, len(keys)-lo)
				sh.AddBatch(keys[lo : lo+m])
				n -= m
				if lo += m; lo == len(keys) {
					lo = 0
				}
			}
		}()
	}
	wg.Wait()
	sh.Stats()
}

// BenchmarkInsertPerPacket measures the end-to-end per-packet cost of the
// default public-API configuration — the number behind the paper's Mps
// claims, on this machine.
func BenchmarkInsertPerPacket(b *testing.B) {
	for _, name := range []string{harness.AlgoHK, harness.AlgoHKMinimum, harness.AlgoSS, harness.AlgoCM} {
		b.Run(name, func(b *testing.B) {
			a := harness.MustBuild(name, 50*1024, 100, 1)
			keys := make([][]byte, 1<<14)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("flow-%d", i%3000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Insert(keys[i&(len(keys)-1)])
			}
		})
	}
}

// BenchmarkShardedList times the global report of a Sharded whose shards
// each hold a full k = 100 store: every shard's List plus the fold of the
// shard lists into the top 100. hkagg's collect of a sharded hkd member
// pays this once per collect.
//
// Run with: go test -run - -bench ShardedList -benchtime 1s .
func BenchmarkShardedList(b *testing.B) {
	for _, s := range []int{2, 4} {
		b.Run(fmt.Sprintf("s=%d/k=100", s), func(b *testing.B) {
			sh := heavykeeper.MustNew(100, heavykeeper.WithShards(s))
			sh.AddBatch(sharedIngestKeys())
			if n := len(sh.List()); n != 100 {
				b.Fatalf("List holds %d flows, want 100", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.List()
			}
		})
	}
}
