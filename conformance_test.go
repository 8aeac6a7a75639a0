// Interface-conformance suite: every registered algorithm, under every
// frontend (TopK, one-shard and four-shard Sharded), must honor the Summarizer contract
// — top-k recovery on a skewed stream, its estimate discipline (never-over
// for the decay sketches and Misra–Gries, never-under for the Space-Saving
// family and Lossy Counting's upper-bound report), descending List order,
// All ≡ List, batch ≡ sequential ingest, weighted arrivals, uniform
// K/MemoryBytes/Stats, and merge-or-typed-error.
package heavykeeper_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	heavykeeper "repro"
)

// conformanceProps flags the estimate discipline and merge support of one
// algorithm; everything else in the suite is identical across algorithms.
type conformanceProps struct {
	// neverOver: List counts never exceed the true count (HeavyKeeper's
	// Theorem 2; Misra–Gries decrements; HeavyGuardian's guarded cells).
	neverOver bool
	// neverUnder: List counts never fall below the true count
	// (Space-Saving's admit-all inheritance; Lossy Counting's count+Δ).
	neverUnder bool
	// merges: Merge folds two instances; false expects ErrMergeUnsupported.
	merges bool
	// batch: the engine implements BatchEngine (a chunked staged batch
	// path); false means a plain Engine whose AddBatch falls back to the
	// per-key loop. Either way batch ingest must equal sequential ingest.
	batch bool
	// minRecall is the required recall of the true top-k in List, at the
	// suite's 32 KB budget on its 50k-packet zipfian stream.
	minRecall float64
}

// conformanceAlgos enumerates every built-in algorithm with its discipline.
// A new registry algorithm must be added here (the suite fails if the
// registry and this table drift apart).
var conformanceAlgos = map[string]conformanceProps{
	heavykeeper.AlgorithmHeavyKeeper:        {neverOver: true, merges: true, batch: true, minRecall: 0.85},
	heavykeeper.AlgorithmHeavyKeeperMinimum: {neverOver: true, merges: true, batch: true, minRecall: 0.85},
	heavykeeper.AlgorithmHeavyKeeperBasic:   {neverOver: true, merges: true, batch: true, minRecall: 0.85},
	heavykeeper.AlgorithmSpaceSaving:        {neverUnder: true, batch: true, minRecall: 0.75},
	heavykeeper.AlgorithmCSS:                {neverUnder: true, batch: true, minRecall: 0.75},
	heavykeeper.AlgorithmHeavyGuardian:      {neverOver: true, batch: true, minRecall: 0.75},
	heavykeeper.AlgorithmFrequent:           {neverOver: true, minRecall: 0.75},
	heavykeeper.AlgorithmLossyCounting:      {neverUnder: true, minRecall: 0.75},
}

// conformanceFrontends builds each deployment shape from the same options.
var conformanceFrontends = map[string]func(k int, opts ...heavykeeper.Option) heavykeeper.Summarizer{
	"topk": func(k int, opts ...heavykeeper.Option) heavykeeper.Summarizer {
		return heavykeeper.MustNew(k, opts...)
	},
	"concurrent": func(k int, opts ...heavykeeper.Option) heavykeeper.Summarizer {
		return heavykeeper.MustNew(k, append(opts, heavykeeper.WithConcurrency())...)
	},
	"sharded": func(k int, opts ...heavykeeper.Option) heavykeeper.Summarizer {
		return heavykeeper.MustNew(k, append(opts, heavykeeper.WithShards(4))...)
	},
}

// conformanceOpts is the common configuration: a fixed seed for
// reproducibility and a budget at which every algorithm recovers the head
// of the suite's stream.
func conformanceOpts(algo string) []heavykeeper.Option {
	return []heavykeeper.Option{
		heavykeeper.WithAlgorithm(algo),
		heavykeeper.WithMemory(32 << 10),
		heavykeeper.WithSeed(42),
	}
}

// TestConformanceTableCoversRegistry pins the suite table to the registry:
// a newly registered built-in must declare its discipline here.
func TestConformanceTableCoversRegistry(t *testing.T) {
	for _, name := range heavykeeper.Algorithms() {
		if _, ok := conformanceAlgos[name]; !ok {
			t.Errorf("algorithm %q registered but missing from the conformance table", name)
		}
	}
	if len(conformanceAlgos) < 5 {
		t.Fatalf("conformance table has %d algorithms, want >= 5", len(conformanceAlgos))
	}
}

func TestConformance(t *testing.T) {
	const k = 20
	stream, exact := skewedConformance(50_000, 2_000, 9)
	trueTop := topKSet(exact, k)

	for algo, props := range conformanceAlgos {
		for front, build := range conformanceFrontends {
			t.Run(algo+"/"+front, func(t *testing.T) {
				s := build(k, conformanceOpts(algo)...)
				for _, p := range stream {
					s.Add(p)
				}
				checkReport(t, s, props, exact, trueTop, k)
				checkUniformSurface(t, s, k, uint64(len(stream)))
				checkBatchEquivalence(t, build, k, algo, stream)
				checkWeighted(t, build, k, algo)
				checkMerge(t, build, k, algo, props, stream, trueTop)
			})
		}
	}
}

// TestEngineBatchConformance pins the engine-level batch contract beneath
// the frontends: each algorithm's declared BatchEngine support matches what
// BuildEngine returns, and for batch engines InsertBatchHashed — self-hashing
// (nil hashes) and with caller-precomputed hashes — is bit-identical to a
// loop over Insert: same Top report, same estimates, same event counters
// (the counters also pin one-hash accounting: a batch that hashed twice or
// probed differently would shift them).
func TestEngineBatchConformance(t *testing.T) {
	const k = 20
	stream, exact := skewedConformance(50_000, 2_000, 9)
	cfg := heavykeeper.EngineConfig{K: k, MemoryBytes: 32 << 10, Seed: 42}

	for algo, props := range conformanceAlgos {
		t.Run(algo, func(t *testing.T) {
			mk := func() heavykeeper.Engine {
				e, err := heavykeeper.BuildEngine(algo, cfg)
				if err != nil {
					t.Fatalf("BuildEngine(%q): %v", algo, err)
				}
				return e
			}
			seq := mk()
			_, isBatch := seq.(heavykeeper.BatchEngine)
			if isBatch != props.batch {
				t.Fatalf("BatchEngine support = %v, conformance table says %v", isBatch, props.batch)
			}
			if !isBatch {
				return
			}
			self := mk().(heavykeeper.BatchEngine)
			pre := mk().(heavykeeper.BatchEngine)

			hashes := make([]uint64, len(stream))
			for i, key := range stream {
				hashes[i] = pre.KeyHash(key)
			}
			for _, key := range stream {
				seq.Insert(key)
			}
			for off := 0; off < len(stream); {
				n := 1 + (off*7)%613 // ragged batch sizes, some > any internal chunk
				if off+n > len(stream) {
					n = len(stream) - off
				}
				self.InsertBatchHashed(stream[off:off+n], nil)
				off += n
			}
			pre.InsertBatchHashed(stream, hashes)

			for name, got := range map[string]heavykeeper.Engine{"self-hashing": self, "prehashed": pre} {
				if gs, ss := got.Stats(), seq.Stats(); gs != ss {
					t.Errorf("%s: stats diverge from sequential:\nbatch      %+v\nsequential %+v", name, gs, ss)
				}
				gt, st := got.Top(k), seq.Top(k)
				if len(gt) != len(st) {
					t.Fatalf("%s: Top lengths diverge: %d vs %d", name, len(gt), len(st))
				}
				for i := range gt {
					if !bytes.Equal(gt[i].ID, st[i].ID) || gt[i].Count != st[i].Count {
						t.Fatalf("%s: Top[%d] = %q/%d, sequential %q/%d",
							name, i, gt[i].ID, gt[i].Count, st[i].ID, st[i].Count)
					}
				}
				for f := range exact {
					if a, b := seq.Query([]byte(f)), got.Query([]byte(f)); a != b {
						t.Fatalf("%s: Query(%q) = %d, sequential %d", name, f, b, a)
					}
				}
			}
		})
	}
}

// checkReport verifies recall, order, the estimate discipline, and All≡List.
func checkReport(t *testing.T, s heavykeeper.Summarizer, props conformanceProps,
	exact map[string]uint64, trueTop map[string]bool, k int) {
	t.Helper()
	flows := s.List()
	if len(flows) == 0 || len(flows) > k {
		t.Fatalf("List returned %d flows, want 1..%d", len(flows), k)
	}
	hit := 0
	for i, f := range flows {
		if trueTop[string(f.ID)] {
			hit++
		}
		if i > 0 && f.Count > flows[i-1].Count {
			t.Fatalf("List not descending at %d: %d > %d", i, f.Count, flows[i-1].Count)
		}
		truth := exact[string(f.ID)]
		if props.neverOver && f.Count > truth {
			t.Errorf("flow %q over-estimated: %d > true %d", f.ID, f.Count, truth)
		}
		if props.neverUnder && f.Count < truth {
			t.Errorf("flow %q under-estimated: %d < true %d", f.ID, f.Count, truth)
		}
	}
	if recall := float64(hit) / float64(k); recall < props.minRecall {
		t.Errorf("recall %.2f below %.2f (%d/%d true top flows reported)",
			recall, props.minRecall, hit, k)
	}
	// All yields the same report in the same order, and supports early break.
	var viaAll []heavykeeper.Flow
	for f := range s.All() {
		viaAll = append(viaAll, f)
	}
	if !flowsEqual(flows, viaAll) {
		t.Errorf("All() disagrees with List(): %d vs %d flows", len(viaAll), len(flows))
	}
	n := 0
	for range s.All() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 && len(flows) >= 3 {
		t.Errorf("All() early break consumed %d flows, want 3", n)
	}
}

// checkUniformSurface pins the drift-prone accessors to one behavior
// everywhere: K echoes the configuration, MemoryBytes is positive, and
// Stats().Packets counts exactly the ingested packets on every frontend.
func checkUniformSurface(t *testing.T, s heavykeeper.Summarizer, k int, packets uint64) {
	t.Helper()
	if s.K() != k {
		t.Errorf("K() = %d want %d", s.K(), k)
	}
	if s.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes() = %d, want > 0", s.MemoryBytes())
	}
	if got := s.Stats().Packets; got != packets {
		t.Errorf("Stats().Packets = %d want %d", got, packets)
	}
}

// checkBatchEquivalence verifies AddBatch against per-packet Add on two
// identically configured instances: same stream, same report.
func checkBatchEquivalence(t *testing.T, build func(int, ...heavykeeper.Option) heavykeeper.Summarizer,
	k int, algo string, stream [][]byte) {
	t.Helper()
	a := build(k, conformanceOpts(algo)...)
	b := build(k, conformanceOpts(algo)...)
	for _, p := range stream {
		a.Add(p)
	}
	for lo := 0; lo < len(stream); lo += 97 {
		hi := min(lo+97, len(stream))
		b.AddBatch(stream[lo:hi])
	}
	if !flowsEqual(a.List(), b.List()) {
		t.Error("AddBatch diverges from sequential Add")
	}
}

// checkWeighted verifies AddN: a lone weighted arrival reports its exact
// weight on every algorithm (nothing else contests the structure).
func checkWeighted(t *testing.T, build func(int, ...heavykeeper.Option) heavykeeper.Summarizer,
	k int, algo string) {
	t.Helper()
	s := build(k, conformanceOpts(algo)...)
	s.AddN([]byte("weighted-flow"), 100)
	flows := s.List()
	if len(flows) != 1 || string(flows[0].ID) != "weighted-flow" || flows[0].Count != 100 {
		t.Errorf("lone AddN(100) reported %v, want [weighted-flow/100]", flows)
	}
}

// checkMerge verifies the collector pattern where the algorithm supports it
// and the typed error where it does not.
func checkMerge(t *testing.T, build func(int, ...heavykeeper.Option) heavykeeper.Summarizer,
	k int, algo string, props conformanceProps, stream [][]byte, trueTop map[string]bool) {
	t.Helper()
	a := build(k, conformanceOpts(algo)...)
	b := build(k, conformanceOpts(algo)...)
	for i, p := range stream {
		if i%2 == 0 {
			a.Add(p)
		} else {
			b.Add(p)
		}
	}
	err := a.Merge(b)
	if !props.merges {
		if !errors.Is(err, heavykeeper.ErrMergeUnsupported) {
			t.Errorf("Merge error = %v, want ErrMergeUnsupported", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	hit := 0
	for f := range a.All() {
		if trueTop[string(f.ID)] {
			hit++
		}
	}
	if recall := float64(hit) / float64(k); recall < props.minRecall-0.1 {
		t.Errorf("merged recall %.2f too low", recall)
	}
}

// TestMergeMismatchAcrossFrontends pins the typed error for every
// cross-shape merge, nil included.
func TestMergeMismatchAcrossFrontends(t *testing.T) {
	tk := heavykeeper.MustNew(5)
	conc := heavykeeper.MustNew(5, heavykeeper.WithConcurrency())
	shrd := heavykeeper.MustNew(5, heavykeeper.WithShards(2))
	// Same seed and width, different fingerprint width: the flow's
	// fingerprints never match across the two, so a merge would drop it.
	fp16 := heavykeeper.MustNew(5, heavykeeper.WithSeed(1), heavykeeper.WithWidth(64), heavykeeper.WithFingerprintBits(16))
	fp8 := heavykeeper.MustNew(5, heavykeeper.WithSeed(1), heavykeeper.WithWidth(64), heavykeeper.WithFingerprintBits(8))
	for i := 0; i < 1000; i++ {
		fp16.Add([]byte("elephant"))
		fp8.Add([]byte("elephant"))
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"topk<-conc", tk.Merge(conc)},
		{"fp16<-fp8", fp16.Merge(fp8)},
		{"conc<-sharded", conc.Merge(shrd)},
		{"sharded<-topk", shrd.Merge(tk)},
		{"topk<-nil", tk.Merge(nil)},
		{"conc<-nil", conc.Merge(nil)},
		{"sharded<-nil", shrd.Merge(nil)},
	} {
		if !errors.Is(c.err, heavykeeper.ErrMergeMismatch) {
			t.Errorf("%s: error = %v, want ErrMergeMismatch", c.name, c.err)
		}
	}
	// Same frontend, different algorithm: also a mismatch.
	ss := heavykeeper.MustNew(5, heavykeeper.WithAlgorithm(heavykeeper.AlgorithmSpaceSaving))
	if err := tk.Merge(ss); !errors.Is(err, heavykeeper.ErrMergeMismatch) {
		t.Errorf("heavykeeper<-spacesaving: error = %v, want ErrMergeMismatch", err)
	}
}

// --- helpers ---

// skewedConformance returns a deterministic zipf-ish stream and its exact
// counts (rank r gets weight ~ 1/r^1.2).
func skewedConformance(npkts, nflows int, seed uint64) ([][]byte, map[string]uint64) {
	// A tiny xorshift so the suite needs no internal imports.
	x := seed*2685821657736338717 + 1
	next := func() uint64 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 2685821657736338717
	}
	cdf := make([]float64, nflows)
	total := 0.0
	for i := range cdf {
		total += 1.0 / math.Pow(float64(i+1), 1.2)
		cdf[i] = total
	}
	stream := make([][]byte, npkts)
	exact := map[string]uint64{}
	for p := range stream {
		u := float64(next()>>11) / (1 << 53) * total
		i, _ := slices.BinarySearch(cdf, u)
		if i >= nflows {
			i = nflows - 1
		}
		key := []byte(fmt.Sprintf("conf-flow-%d", i))
		stream[p] = key
		exact[string(key)]++
	}
	return stream, exact
}

func topKSet(exact map[string]uint64, k int) map[string]bool {
	type kv struct {
		key string
		n   uint64
	}
	all := make([]kv, 0, len(exact))
	for key, n := range exact {
		all = append(all, kv{key, n})
	}
	slices.SortFunc(all, func(a, b kv) int {
		if a.n != b.n {
			if a.n > b.n {
				return -1
			}
			return 1
		}
		return bytes.Compare([]byte(a.key), []byte(b.key))
	})
	set := map[string]bool{}
	for i := 0; i < k && i < len(all); i++ {
		set[all[i].key] = true
	}
	return set
}

func flowsEqual(a, b []heavykeeper.Flow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].ID, b[i].ID) || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}
