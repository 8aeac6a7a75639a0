package topk

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/streamsummary"
	"repro/internal/xrand"
)

func key(i int) []byte { return []byte(fmt.Sprintf("flow-%d", i)) }

// zipfStream generates a deterministic skewed stream over nflows flows and
// returns it with the exact per-flow counts.
func zipfStream(t testing.TB, npkts, nflows int, seed uint64) ([][]byte, map[string]uint64) {
	t.Helper()
	rng := xrand.NewXorshift64Star(seed)
	// Zipf-ish: flow i gets weight 1/(i+1); sample by inverse CDF over a
	// precomputed prefix table for determinism and speed.
	weights := make([]float64, nflows)
	total := 0.0
	for i := range weights {
		total += 1.0 / float64(i+1)
		weights[i] = total
	}
	stream := make([][]byte, npkts)
	exact := map[string]uint64{}
	for p := 0; p < npkts; p++ {
		x := rng.Float64() * total
		i := sort.SearchFloat64s(weights, x)
		if i >= nflows {
			i = nflows - 1
		}
		k := key(i)
		stream[p] = k
		exact[string(k)]++
	}
	return stream, exact
}

// trueTopK returns the keys of the k largest flows by exact count.
func trueTopK(exact map[string]uint64, k int) map[string]bool {
	type kv struct {
		k string
		v uint64
	}
	var all []kv
	for k, v := range exact {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	out := map[string]bool{}
	for i := 0; i < k && i < len(all); i++ {
		out[all[i].k] = true
	}
	return out
}

func precision(reported []Entry, truth map[string]bool) float64 {
	if len(reported) == 0 {
		return 0
	}
	hit := 0
	for _, e := range reported {
		if truth[e.Key] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{K: 0, Sketch: core.Config{W: 10}}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Options{K: 10, Sketch: core.Config{W: 0}}); err == nil {
		t.Error("invalid sketch config accepted")
	}
}

func TestVersionString(t *testing.T) {
	if Basic.String() != "basic" || Parallel.String() != "parallel" || Minimum.String() != "minimum" {
		t.Error("Version.String() broken")
	}
	if Version(42).String() != "Version(42)" {
		t.Error("unknown Version.String() broken")
	}
}

// TestFindsTopKAllVersionsAndStores is the headline behaviour: on a skewed
// stream each version must recover the true top-k with high precision
// given adequate memory. Subtest names carry the store byte a snapshot of
// the tracker records.
func TestFindsTopKAllVersionsAndStores(t *testing.T) {
	stream, exact := zipfStream(t, 200000, 10000, 42)
	const k = 20
	truth := trueTopK(exact, k)
	for _, version := range []Version{Basic, Parallel, Minimum} {
		t.Run(fmt.Sprintf("%v/%d", version, StoreSummary), func(t *testing.T) {
			tr := MustNew(Options{
				K:       k,
				Version: version,
				Sketch:  core.Config{W: 1024, Seed: 7},
			})
			for _, p := range stream {
				tr.Insert(p)
			}
			got := tr.Top()
			if len(got) == 0 {
				t.Fatal("no flows reported")
			}
			if p := precision(got, truth); p < 0.9 {
				t.Errorf("precision = %v, want >= 0.9", p)
			}
			// Reported sizes must not exceed the truth (Theorem 2; no
			// fingerprint collisions expected at this scale with 16-bit
			// fingerprints over 10k flows... collisions possible but the
			// admission filter should keep them out of the report).
			over := 0
			for _, e := range got {
				if e.Count > exact[e.Key] {
					over++
				}
			}
			if over > 1 {
				t.Errorf("%d reported flows over-estimated", over)
			}
		})
	}
}

// TestMinimumBeatsParallelUnderTightMemory reproduces the paper's §VI-G
// finding: under very tight memory the Minimum version retains much higher
// precision than the Parallel version.
func TestMinimumBeatsParallelUnderTightMemory(t *testing.T) {
	stream, exact := zipfStream(t, 300000, 30000, 11)
	const k = 100
	truth := trueTopK(exact, k)
	run := func(v Version) float64 {
		tr := MustNew(Options{
			K:       k,
			Version: v,
			Sketch:  core.Config{W: 220, Seed: 5}, // ~2×220 buckets: very tight
		})
		for _, p := range stream {
			tr.Insert(p)
		}
		return precision(tr.Top(), truth)
	}
	pPar, pMin := run(Parallel), run(Minimum)
	if pMin < pPar {
		t.Errorf("Minimum precision %v < Parallel precision %v; paper expects Minimum >= Parallel under tight memory", pMin, pPar)
	}
}

func TestTopSortedDescending(t *testing.T) {
	stream, _ := zipfStream(t, 50000, 1000, 3)
	tr := MustNew(Options{K: 50, Sketch: core.Config{W: 512, Seed: 1}})
	for _, p := range stream {
		tr.Insert(p)
	}
	top := tr.Top()
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("Top() not descending at %d", i)
		}
	}
	if len(top) > 50 {
		t.Errorf("Top() returned %d entries, want <= 50", len(top))
	}
}

func TestQueryMatchesSketch(t *testing.T) {
	tr := MustNew(Options{K: 10, Sketch: core.Config{W: 128, Seed: 1}})
	for i := 0; i < 100; i++ {
		tr.Insert(key(1))
	}
	if got := tr.Query(key(1)); got != 100 {
		t.Errorf("Query = %d want 100", got)
	}
	if got := tr.Query(key(2)); got != 0 {
		t.Errorf("Query(unknown) = %d want 0", got)
	}
}

// TestOptimizationIBlocksCollisions: with Optimization I, a flow whose
// estimate jumps far above n_min+1 (possible only via fingerprint collision)
// must not enter the top-k structure.
func TestOptimizationIBlocksCollisions(t *testing.T) {
	// Force collisions with 4-bit fingerprints over many flows.
	mk := func(disable bool) int {
		tr := MustNew(Options{
			K:           10,
			Version:     Parallel,
			DisableOptI: disable,
			Sketch:      core.Config{W: 64, Seed: 13, FingerprintBits: 4},
		})
		stream, exact := zipfStream(t, 100000, 5000, 21)
		for _, p := range stream {
			tr.Insert(p)
		}
		over := 0
		for _, e := range tr.Top() {
			if e.Count > 2*exact[e.Key]+10 {
				over++ // grossly over-estimated: collision artifact
			}
		}
		return over
	}
	withOpt := mk(false)
	if withOpt > 1 {
		t.Errorf("Optimization I on: %d grossly over-estimated flows in top-k", withOpt)
	}
	// Sanity: the ablation path also runs (no assertion on its quality —
	// it is expected to be worse, which the ablation bench quantifies).
	_ = mk(true)
}

// TestAccuracyOfReportedSizes checks the ARE of reported top-k sizes is
// small with adequate memory — the paper's central accuracy claim.
func TestAccuracyOfReportedSizes(t *testing.T) {
	stream, exact := zipfStream(t, 200000, 10000, 17)
	tr := MustNew(Options{K: 20, Version: Minimum, Sketch: core.Config{W: 2048, Seed: 23}})
	for _, p := range stream {
		tr.Insert(p)
	}
	var are float64
	top := tr.Top()
	for _, e := range top {
		truth := float64(exact[e.Key])
		are += abs(float64(e.Count)-truth) / truth
	}
	are /= float64(len(top))
	if are > 0.01 {
		t.Errorf("ARE = %v, want <= 0.01 with generous memory", are)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMemoryBytesAccounting(t *testing.T) {
	tr := MustNew(Options{K: 100, Sketch: core.Config{W: 1000, FingerprintBits: 16, CounterBits: 16}})
	want := 2*1000*4 + 100*streamsummary.BytesPerEntry
	if got := tr.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d want %d", got, want)
	}
}

func TestDeterministicTopK(t *testing.T) {
	run := func() []Entry {
		stream, _ := zipfStream(t, 50000, 2000, 9)
		tr := MustNew(Options{K: 25, Sketch: core.Config{W: 512, Seed: 3}})
		for _, p := range stream {
			tr.Insert(p)
		}
		return tr.Top()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkTrackerInsertParallel(b *testing.B) {
	benchInsert(b, Parallel)
}

func BenchmarkTrackerInsertMinimum(b *testing.B) {
	benchInsert(b, Minimum)
}

func BenchmarkTrackerInsertBasic(b *testing.B) {
	benchInsert(b, Basic)
}

func benchInsert(b *testing.B, v Version) {
	stream, _ := zipfStream(b, 1<<17, 20000, 1)
	tr := MustNew(Options{K: 100, Version: v, Sketch: core.Config{W: 4096, Seed: 1}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(stream[i&(len(stream)-1)])
	}
}
