package heavykeeper

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// skewed returns a deterministic skewed stream and its exact counts.
func skewed(npkts, nflows int, seed uint64) ([][]byte, map[string]uint64) {
	rng := xrand.NewXorshift64Star(seed)
	cdf := make([]float64, nflows)
	total := 0.0
	for i := range cdf {
		total += 1.0 / float64(i+1)
		cdf[i] = total
	}
	stream := make([][]byte, npkts)
	exact := map[string]uint64{}
	for p := range stream {
		x := rng.Float64() * total
		i := sort.SearchFloat64s(cdf, x)
		if i >= nflows {
			i = nflows - 1
		}
		k := []byte(fmt.Sprintf("flow-%d", i))
		stream[p] = k
		exact[string(k)]++
	}
	return stream, exact
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		k    int
		opts []Option
		want error
	}{
		{"k=0", 0, nil, ErrInvalidK},
		{"bad memory", 10, []Option{WithMemory(-1)}, ErrInvalidMemory},
		{"bad width", 10, []Option{WithWidth(0)}, ErrInvalidWidth},
		{"bad depth", 10, []Option{WithDepth(0)}, ErrInvalidDepth},
		{"bad base", 10, []Option{WithDecayBase(1.0)}, ErrInvalidDecayBase},
		{"bad fp", 10, []Option{WithFingerprintBits(40)}, ErrInvalidFingerprintBits},
		{"bad version", 10, []Option{WithVersion(Version(99))}, ErrInvalidVersion},
		{"width+memory", 10, []Option{WithWidth(10), WithMemory(1000)}, ErrOptionConflict},
		{"bad expansion", 10, []Option{WithExpansion(0, 4)}, ErrInvalidExpansion},
		{"bad shards", 10, []Option{WithShards(0)}, ErrInvalidShards},
		{"shards+concurrency", 10, []Option{WithShards(2), WithConcurrency()}, ErrOptionConflict},
		{"unknown algorithm", 10, []Option{WithAlgorithm("nope")}, ErrUnknownAlgorithm},
		{"empty algorithm", 10, []Option{WithAlgorithm("")}, ErrUnknownAlgorithm},
		{"hk option on engine", 10, []Option{WithAlgorithm(AlgorithmSpaceSaving), WithExpansion(100, 4)}, ErrOptionConflict},
		{"width on engine", 10, []Option{WithAlgorithm(AlgorithmFrequent), WithWidth(64)}, ErrOptionConflict},
		{
			"version vs versioned algorithm", 10,
			[]Option{WithVersion(VersionBasic), WithAlgorithm(AlgorithmHeavyKeeperMinimum)},
			ErrOptionConflict,
		},
	}
	for _, c := range cases {
		_, err := New(c.k, c.opts...)
		if err == nil {
			t.Errorf("%s: invalid configuration accepted", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want errors.Is %v", c.name, err, c.want)
		}
	}
	// The agreeing counterpart of "version vs versioned algorithm" is no
	// conflict.
	if _, err := New(10, WithVersion(VersionMinimum), WithAlgorithm(AlgorithmHeavyKeeperMinimum)); err != nil {
		t.Errorf("agreeing WithVersion + versioned algorithm rejected: %v", err)
	}
}

// TestNewDispatch pins the unified constructor's frontend selection: the
// options, not parallel constructors, decide the concrete type.
func TestNewDispatch(t *testing.T) {
	if s := MustNew(10); s == nil {
		t.Fatal("nil summarizer")
	} else if _, ok := s.(*TopK); !ok {
		t.Errorf("New(k) = %T, want *TopK", s)
	}
	for _, tc := range []struct {
		name   string
		opt    Option
		shards int
	}{
		{"WithConcurrency()", WithConcurrency(), 1},
		{"WithShards(4)", WithShards(4), 4},
	} {
		sh, ok := MustNew(10, tc.opt).(*Sharded)
		if !ok {
			t.Errorf("New(k, %s) is not a *Sharded", tc.name)
		} else if sh.Shards() != tc.shards {
			t.Errorf("New(k, %s).Shards() = %d want %d", tc.name, sh.Shards(), tc.shards)
		}
	}
}

func TestDefaultsAreUsable(t *testing.T) {
	tk := MustNew(10).(*TopK)
	if tk.MemoryBytes() > DefaultMemory+1024 {
		t.Errorf("default memory %d exceeds DefaultMemory %d", tk.MemoryBytes(), DefaultMemory)
	}
	if tk.Version() != VersionParallel {
		t.Errorf("default version = %v want parallel", tk.Version())
	}
	if tk.Algorithm() != AlgorithmHeavyKeeper {
		t.Errorf("default algorithm = %q want %q", tk.Algorithm(), AlgorithmHeavyKeeper)
	}
	tk.AddString("hello")
	if got := tk.Query([]byte("hello")); got != 1 {
		t.Errorf("Query = %d want 1", got)
	}
}

func TestVersionString(t *testing.T) {
	if VersionParallel.String() != "parallel" ||
		VersionMinimum.String() != "minimum" ||
		VersionBasic.String() != "basic" {
		t.Error("Version.String broken")
	}
	if Version(42).String() != "Version(42)" {
		t.Error("unknown Version.String broken")
	}
}

func TestFindsTopKAllVersions(t *testing.T) {
	stream, exact := skewed(200000, 10000, 42)
	type kv struct {
		k string
		v uint64
	}
	var all []kv
	for k, v := range exact {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	const k = 50
	trueTop := map[string]bool{}
	for i := 0; i < k; i++ {
		trueTop[all[i].k] = true
	}

	for _, v := range []Version{VersionParallel, VersionMinimum, VersionBasic} {
		t.Run(v.String(), func(t *testing.T) {
			tk := MustNew(k, WithVersion(v), WithMemory(32<<10), WithSeed(7))
			for _, p := range stream {
				tk.Add(p)
			}
			flows := tk.List()
			hit := 0
			for _, f := range flows {
				if trueTop[string(f.ID)] {
					hit++
				}
			}
			if prec := float64(hit) / k; prec < 0.9 {
				t.Errorf("precision = %v want >= 0.9", prec)
			}
			for i := 1; i < len(flows); i++ {
				if flows[i].Count > flows[i-1].Count {
					t.Fatalf("List not descending at %d", i)
				}
			}
			// No over-estimation of reported flows (Theorem 2 + admission
			// filter).
			for _, f := range flows {
				if f.Count > exact[string(f.ID)] {
					t.Errorf("flow %s over-estimated: %d > %d", f.ID, f.Count, exact[string(f.ID)])
				}
			}
		})
	}
}

func TestQueryNeverOverestimates(t *testing.T) {
	f := func(seed uint64) bool {
		tk := MustNew(5, WithSeed(seed), WithWidth(16), WithFingerprintBits(32))
		counts := map[string]int{}
		rng := xrand.NewXorshift64Star(seed ^ 0xabc)
		for i := 0; i < 2000; i++ {
			id := fmt.Sprintf("f%d", rng.Uint64n(50))
			counts[id]++
			tk.AddString(id)
		}
		for id, n := range counts {
			if tk.Query([]byte(id)) > uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestExpansionOption(t *testing.T) {
	// A single one-bucket array saturates regardless of hash placement: the
	// heavy flow owns the lone bucket, so every new flow finds only a large
	// counter and trips the §III-F overflow counter.
	tk := MustNew(5, WithWidth(1), WithDepth(1), WithSeed(1), WithExpansion(50, 3))
	for i := 0; i < 600; i++ {
		tk.AddString("heavy")
	}
	for i := 0; i < 5000; i++ {
		tk.AddString(fmt.Sprintf("new-%d", i))
	}
	if tk.Stats().Expansions == 0 {
		t.Error("expansion never triggered despite saturation")
	}
}

func TestStatsExposed(t *testing.T) {
	tk := MustNew(5, WithWidth(64), WithSeed(2))
	for i := 0; i < 100; i++ {
		tk.AddString("x")
	}
	if tk.Stats().Packets != 100 {
		t.Errorf("Stats().Packets = %d want 100", tk.Stats().Packets)
	}
}

func TestConcurrentSafety(t *testing.T) {
	c, err := New(20, WithConcurrency(), WithMemory(32<<10), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.AddString(fmt.Sprintf("flow-%d", (i*7+g)%500))
				if i%100 == 0 {
					c.List()
					c.Query([]byte("flow-1"))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.K() != 20 {
		t.Errorf("K = %d want 20", c.K())
	}
	if len(c.List()) == 0 {
		t.Error("empty report after 40k inserts")
	}
	if c.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
}

func BenchmarkAdd(b *testing.B) {
	tk := MustNew(100, WithMemory(64<<10), WithSeed(1))
	stream, _ := skewed(1<<16, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(stream[i&(len(stream)-1)])
	}
}

func BenchmarkAddBatch(b *testing.B) {
	tk := MustNew(100, WithMemory(64<<10), WithSeed(1))
	stream, _ := skewed(1<<16, 20000, 1)
	const bs = 256
	b.ResetTimer()
	for i := 0; i < b.N; i += bs {
		lo := i & (len(stream) - 1)
		if lo+bs > len(stream) {
			lo = 0
		}
		tk.AddBatch(stream[lo : lo+bs])
	}
}

func BenchmarkAddMinimum(b *testing.B) {
	tk := MustNew(100, WithMemory(64<<10), WithSeed(1), WithVersion(VersionMinimum))
	stream, _ := skewed(1<<16, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(stream[i&(len(stream)-1)])
	}
}

func BenchmarkConcurrentAdd(b *testing.B) {
	c := MustNew(100, WithConcurrency(), WithMemory(64<<10), WithSeed(1))
	stream, _ := skewed(1<<16, 20000, 1)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Add(stream[i&(len(stream)-1)])
			i++
		}
	})
}
