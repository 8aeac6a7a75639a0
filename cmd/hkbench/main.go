// Command hkbench regenerates the HeavyKeeper paper's evaluation figures
// (Figs 4–36) as text tables, plus this repository's ablation studies and an
// ingest-throughput comparison of the concurrency frontends.
//
// Usage:
//
//	hkbench -figure 4              # one figure
//	hkbench -figure all            # every figure (takes a while)
//	hkbench -figure ablations      # the repository's extra ablations
//	hkbench -figure 8 -scale 0.1   # closer to paper-scale workloads
//	hkbench -throughput -shards 8 -batch 256   # TopK vs one shard vs Sharded
//	hkbench -throughput -algo spacesaving      # same comparison, another engine
//	hkbench -throughput -json                  # machine-readable results
//	hkbench -throughput -cpuprofile cpu.pprof  # attach pprof evidence
//	hkbench -list
//	hkbench -list-algos            # registered algorithm names, one per line
//
// Client mode drives a running hkd daemon over the wire protocol:
//
//	hkbench -connect 127.0.0.1:4774 -batch 256            # TCP load generator
//	hkbench -connect-udp 127.0.0.1:4774 -rate 5000        # UDP, capped frames/s
//	hkbench -connect HOST:4774 -verify HOST:8474          # send, then check /topk
//	hkbench -verify HOST:8474 -scale 0.02                 # verify only (restart check)
//	hkbench -connect HOST:4774 -repeat 16 -json           # >= 10M keys, JSON report
//
// Cluster mode replicates the trace across several hkd nodes through a
// consistent-hash ring and verifies the hkagg global answer against the
// trace's exact truth counts:
//
//	hkbench -cluster H1:4774/H1:8474,H2:4774/H2:8474,H3:4774/H3:8474 \
//	        -replicas 2 -verify AGG:8574 -coverage full
//	hkbench -cluster ...same spec... -verify AGG:8574 \
//	        -coverage degraded -verify-only             # after killing a node
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	heavykeeper "repro"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

// run carries main's body so that deferred profile writers execute before
// the process exits, even on error paths (os.Exit in main would skip them,
// truncating the CPU profile and dropping the heap profile).
func run() int {
	var (
		figure     = flag.String("figure", "", "figure number (4-36), 'all', 'ablations', or an ablation name")
		scale      = flag.Float64("scale", 0.02, "scale factor on the paper's packet/flow counts (1.0 = full)")
		seed       = flag.Uint64("seed", 31337, "seed")
		list       = flag.Bool("list", false, "list available figures")
		throughput = flag.Bool("throughput", false, "run the ingest throughput comparison instead of a figure")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count (and writer goroutines) for -throughput")
		batch      = flag.Int("batch", 256, "batch size for the batched ingest variants of -throughput")
		algo       = flag.String("algo", heavykeeper.AlgorithmHeavyKeeper, "registered algorithm backing the -throughput frontends (-list-algos to enumerate)")
		listAlgos  = flag.Bool("list-algos", false, "list registered algorithm names, one per line")
		jsonOut    = flag.Bool("json", false, "emit -throughput results as JSON (for BENCH_*.json trend files)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		connect    = flag.String("connect", "", "client mode: stream the trace to this hkd TCP ingest address")
		connectUDP = flag.String("connect-udp", "", "client mode: send the trace to this hkd UDP ingest address")
		verify     = flag.String("verify", "", "client mode: after sending (or alone), verify this hkd HTTP API against a local twin")
		rate       = flag.Int("rate", 0, "client mode: cap on frames per second (0 = unlimited)")
		repeat     = flag.Int("repeat", 1, "client mode: times to replay the trace (scale total keys sent)")
		dialTO     = flag.Duration("dial-timeout", 5*time.Second, "client mode: per-dial timeout")
		ioTO       = flag.Duration("io-timeout", 10*time.Second, "client mode: per-frame write deadline (0 disables)")
		maxRetries = flag.Int("max-retries", 3, "client mode: reconnect attempts after a failed send (0 disables resend)")
		token      = flag.String("token", "", "client/cluster mode: tenant-scoped bearer token for authenticated daemons (hello on ingest, Bearer on queries)")
		tenant     = flag.String("tenant", "", "client/cluster mode: tenant id stamped on ingest frames and query requests (open daemons; with -token it must match the token's scope)")
		caCert     = flag.String("ca", "", "client/cluster mode: PEM CA certificate file to trust for TLS daemons")
		clusterTo  = flag.String("cluster", "", "cluster mode: comma-separated hkd nodes (TCPADDR or TCPADDR/HTTPADDR), ring-replicated fan-out ingest")
		replicas   = flag.Int("replicas", 2, "cluster mode: ring replicas per flow (MaxReplica)")
		coverage   = flag.String("coverage", "any", "cluster mode: coverage the aggregator must report before -verify (full, degraded, any)")
		verifyOnly = flag.Bool("verify-only", false, "cluster mode: skip ingest, only verify the aggregator against the trace truth (post-kill re-check)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hkbench:", err)
		return 2
	}
	blog := obs.Component(logger, "bench")

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hkbench: ", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hkbench: ", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hkbench: ", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hkbench: ", err)
			}
		}()
	}

	if *listAlgos {
		for _, name := range heavykeeper.Algorithms() {
			fmt.Println(name)
		}
		return 0
	}

	auth := clientAuth{token: *token, tenant: *tenant, caFile: *caCert}

	if *clusterTo != "" {
		if *connect != "" || *connectUDP != "" {
			fmt.Fprintln(os.Stderr, "hkbench: -cluster and -connect/-connect-udp are mutually exclusive")
			return 1
		}
		if err := runCluster(*clusterTo, *verify, *coverage, auth, *replicas, *repeat, *batch, *scale, *seed, *dialTO, *ioTO, *maxRetries, *jsonOut, *verifyOnly, blog); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *connect != "" || *connectUDP != "" || *verify != "" {
		if *connect != "" && *connectUDP != "" {
			fmt.Fprintln(os.Stderr, "hkbench: -connect and -connect-udp are mutually exclusive")
			return 1
		}
		if err := runClient(*connect, *connectUDP, *verify, auth, *rate, *repeat, *batch, *scale, *seed, *dialTO, *ioTO, *maxRetries, *jsonOut, blog); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *throughput {
		if err := runThroughput(*shards, *batch, *scale, *seed, *algo, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Println("paper figures:")
		for _, id := range harness.FigureIDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("ablations:")
		for _, id := range harness.AblationIDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("algorithms (for -algo):")
		for _, name := range heavykeeper.Algorithms() {
			fmt.Printf("  %s\n", name)
		}
		return 0
	}
	if *figure == "" {
		fmt.Fprintln(os.Stderr, "hkbench: -figure is required (-list to enumerate)")
		return 1
	}

	r := harness.NewRunner(harness.RunConfig{Scale: *scale, Seed: *seed})
	fmt.Printf("scale %.3g, seed %d\n\n", r.Config().Scale, r.Config().Seed)

	var ids []string
	switch *figure {
	case "all":
		ids = harness.FigureIDs()
	case "ablations":
		ids = harness.AblationIDs()
	default:
		ids = []string{*figure}
	}
	for _, id := range ids {
		tab, err := runFigure(r, id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(tab)
	}
	return 0
}

func runFigure(r *harness.Runner, id string) (*harness.Table, error) {
	if tab, err := r.Figure(id); err == nil {
		return tab, nil
	}
	return r.Ablation(id)
}

// throughputResult is one -throughput row, as emitted by -json.
type throughputResult struct {
	Name       string  `json:"name"`
	Goroutines int     `json:"goroutines"`
	Mpps       float64 `json:"mpps"`
	Speedup    float64 `json:"speedup_vs_concurrent_add,omitempty"`
}

// storeIndexReport is the -json rendering of one frontend's store-index
// occupancy and probe-length histogram after the timed ingest.
type storeIndexReport struct {
	Source    string  `json:"source"`
	Capacity  int     `json:"capacity"`
	TableSize int     `json:"table_size"`
	Occupied  int     `json:"occupied"`
	Load      float64 `json:"load"`
	MaxProbe  int     `json:"max_probe"`
	ProbeHist []int   `json:"probe_hist"`
}

// throughputReport is the -json document for one -throughput invocation.
type throughputReport struct {
	Packets    int                `json:"packets"`
	Flows      int                `json:"flows"`
	Shards     int                `json:"shards"`
	Batch      int                `json:"batch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Algo       string             `json:"algo"`
	Results    []throughputResult `json:"results"`
	StoreIndex []storeIndexReport `json:"store_index,omitempty"`
}

// runThroughput measures ingest throughput (Mpps) of three deployment
// shapes on one zipfian trace: a single TopK (sequential baseline), the
// one-shard WithConcurrency Sharded with g writer goroutines (the
// "Concurrent" rows, per-packet and batched), and Sharded with s shards and
// s writers (per-packet and batched). The speedup column is relative to
// per-packet Concurrent, the paper-era default. algo selects the backing
// engine from the public registry, so every registered algorithm gets the
// same three-shape comparison.
func runThroughput(shards, batch int, scale float64, seed uint64, algo string, jsonOut bool) error {
	if shards < 1 || batch < 1 {
		return fmt.Errorf("hkbench: -shards and -batch must be >= 1")
	}
	opts := []heavykeeper.Option{heavykeeper.WithAlgorithm(algo)}
	tr, err := gen.Generate(gen.Synthetic(1.0, seed).Scale(scale))
	if err != nil {
		return err
	}
	keys := make([][]byte, 0, tr.Len())
	tr.ForEach(func(key []byte) { keys = append(keys, key) })
	report := throughputReport{
		Packets: len(keys), Flows: tr.Flows(), Shards: shards, Batch: batch,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Algo: algo,
	}
	if !jsonOut {
		fmt.Printf("throughput: %d packets, %d flows, %d shards/goroutines, batch %d, algo %s, GOMAXPROCS %d\n\n",
			len(keys), tr.Flows(), shards, batch, algo, runtime.GOMAXPROCS(0))
	}

	const k = 100
	newSummarizer := func(extra ...heavykeeper.Option) (heavykeeper.Summarizer, error) {
		return heavykeeper.New(k, append(append([]heavykeeper.Option{}, opts...), extra...)...)
	}
	// Untimed warmup so the first timed variant doesn't pay the page-in of
	// the trace; it also validates the flag combination once up front.
	warm, err := newSummarizer()
	if err != nil {
		return fmt.Errorf("hkbench: %w", err)
	}
	for _, key := range keys {
		warm.Add(key)
	}

	must := func(extra ...heavykeeper.Option) heavykeeper.Summarizer {
		s, err := newSummarizer(extra...)
		if err != nil {
			panic(err)
		}
		return s
	}
	single := must()
	singleB := must()
	conc := must(heavykeeper.WithConcurrency())
	concB := must(heavykeeper.WithConcurrency())
	shrd := must(heavykeeper.WithShards(shards))
	shrdB := must(heavykeeper.WithShards(shards))

	var base float64
	for _, c := range []struct {
		name string
		g    int
		sum  heavykeeper.Summarizer
		run  func(part [][]byte)
	}{
		{"TopK.Add (sequential)", 1, single, func(p [][]byte) {
			for _, key := range p {
				single.Add(key)
			}
		}},
		{"TopK.AddBatch (sequential)", 1, singleB, func(p [][]byte) { drainBatches(p, batch, singleB.AddBatch) }},
		{"Concurrent.Add", shards, conc, func(p [][]byte) {
			for _, key := range p {
				conc.Add(key)
			}
		}},
		{"Concurrent.AddBatch", shards, concB, func(p [][]byte) { drainBatches(p, batch, concB.AddBatch) }},
		{"Sharded.Add", shards, shrd, func(p [][]byte) {
			for _, key := range p {
				shrd.Add(key)
			}
		}},
		{"Sharded.AddBatch", shards, shrdB, func(p [][]byte) { drainBatches(p, batch, shrdB.AddBatch) }},
	} {
		elapsed := timeParallel(keys, c.g, c.sum, c.run)
		mpps := float64(len(keys)) / elapsed.Seconds() / 1e6
		if c.name == "Concurrent.Add" {
			base = mpps
		}
		res := throughputResult{Name: c.name, Goroutines: c.g, Mpps: mpps}
		if base > 0 {
			res.Speedup = mpps / base
		}
		report.Results = append(report.Results, res)
		if !jsonOut {
			speedup := "      -"
			if base > 0 {
				speedup = fmt.Sprintf("%6.2fx", res.Speedup)
			}
			fmt.Printf("%-24s %2d goroutines  %8.2f Mpps  %s\n", c.name, c.g, mpps, speedup)
		}
	}
	for _, src := range []struct {
		name string
		s    heavykeeper.Summarizer
	}{{"TopK", single}, {"Sharded.AddBatch", shrdB}} {
		if r, ok := src.s.(heavykeeper.StoreIndexReporter); ok {
			if st, ok := r.StoreIndexStats(); ok {
				report.StoreIndex = append(report.StoreIndex, indexReport(src.name, st))
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	for _, st := range report.StoreIndex {
		fmt.Printf("\n%s store index: %d/%d slots (load %.2f), max probe %d, probe hist %v\n",
			st.Source, st.Occupied, st.TableSize, st.Load, st.MaxProbe, st.ProbeHist)
	}
	return nil
}

// indexReport converts store index stats into the -json shape.
func indexReport(source string, st heavykeeper.StoreIndexStats) storeIndexReport {
	load := 0.0
	if st.TableSize > 0 {
		load = float64(st.Occupied) / float64(st.TableSize)
	}
	return storeIndexReport{
		Source:    source,
		Capacity:  st.Capacity,
		TableSize: st.TableSize,
		Occupied:  st.Occupied,
		Load:      load,
		MaxProbe:  st.MaxProbe,
		ProbeHist: st.ProbeHist,
	}
}

// timeParallel splits keys into g contiguous parts and runs fn on each from
// its own goroutine, returning the wall time up to a final read of sum. The
// read applies whatever a Sharded still has queued for its shard drainers,
// so handed-off work is timed too.
func timeParallel(keys [][]byte, g int, sum heavykeeper.Summarizer, fn func(part [][]byte)) time.Duration {
	var wg sync.WaitGroup
	per := (len(keys) + g - 1) / g
	start := time.Now()
	for i := 0; i < g; i++ {
		lo := i * per
		hi := lo + per
		if lo >= len(keys) {
			break
		}
		if hi > len(keys) {
			hi = len(keys)
		}
		wg.Add(1)
		go func(part [][]byte) {
			defer wg.Done()
			fn(part)
		}(keys[lo:hi])
	}
	wg.Wait()
	sum.Stats()
	return time.Since(start)
}

// drainBatches feeds part to add in batches of size batch.
func drainBatches(part [][]byte, batch int, add func([][]byte)) {
	for lo := 0; lo < len(part); lo += batch {
		hi := lo + batch
		if hi > len(part) {
			hi = len(part)
		}
		add(part[lo:hi])
	}
}
