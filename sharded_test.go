package heavykeeper

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// mustSharded is MustNew for options that include WithShards.
func mustSharded(k int, opts ...Option) *Sharded {
	return MustNew(k, opts...).(*Sharded)
}

// genTrace builds a small zipfian workload from internal/gen.
func genTrace(t testing.TB, skew float64, scale float64, seed uint64) *gen.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Synthetic(skew, seed).Scale(scale))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestShardedMatchesSingleInstance feeds the same zipfian stream to a single
// TopK and to a Sharded with the same total memory, and checks that the
// sharded top-k recalls the ground-truth elephants at least as well (small
// slack allowed: the shards' summaries jointly monitor n×k candidates but
// each shard has a narrower sketch).
func TestShardedMatchesSingleInstance(t *testing.T) {
	const k = 50
	tr := genTrace(t, 1.2, 0.002, 4242) // 64k packets over ~4.3k flows
	single := MustNew(k, WithSeed(1))
	sharded := mustSharded(k, WithSeed(1), WithShards(4))

	tr.ForEach(single.Add)
	tr.ForEach(sharded.Add)

	truth := map[string]bool{}
	for _, i := range tr.TopK(k) {
		truth[string(tr.IDs[i])] = true
	}
	recall := func(flows []Flow) int {
		n := 0
		for _, f := range flows {
			if truth[string(f.ID)] {
				n++
			}
		}
		return n
	}
	rs, r1 := recall(sharded.List()), recall(single.List())
	t.Logf("recall: single %d/%d, sharded %d/%d", r1, k, rs, k)
	if rs < r1-3 {
		t.Fatalf("sharded recall %d/%d much worse than single-instance %d/%d", rs, k, r1, k)
	}
	// Per-flow estimates stay exact in the HeavyKeeper sense: never above
	// the true count for the heavy flows (Theorem 2 per shard).
	for _, i := range tr.TopK(10) {
		id := tr.IDs[i]
		if est, truth := sharded.Query(id), tr.Count(i); est > truth {
			t.Fatalf("sharded estimate for %x overshoots: %d > true %d", id, est, truth)
		}
	}
}

// TestShardedBatchMatchesUnbatched checks AddBatch against per-packet Add on
// two identically configured Shardeds: grouping preserves per-shard stream
// order and the sketch batch path is exactly equivalent, so the global
// top-k must be identical.
func TestShardedBatchMatchesUnbatched(t *testing.T) {
	tr := genTrace(t, 1.0, 0.001, 7)
	a := mustSharded(20, WithSeed(3), WithShards(8))
	b := mustSharded(20, WithSeed(3), WithShards(8))

	tr.ForEach(a.Add)
	var batch [][]byte
	tr.ForEach(func(key []byte) {
		batch = append(batch, key)
		if len(batch) == 97 {
			b.AddBatch(batch)
			batch = batch[:0]
		}
	})
	b.AddBatch(batch)

	la, lb := a.List(), b.List()
	if len(la) != len(lb) {
		t.Fatalf("list lengths diverge: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if !bytes.Equal(la[i].ID, lb[i].ID) || la[i].Count != lb[i].Count {
			t.Fatalf("entry %d diverges: %x/%d vs %x/%d", i, la[i].ID, la[i].Count, lb[i].ID, lb[i].Count)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge:\nunbatched %+v\nbatched   %+v", a.Stats(), b.Stats())
	}
}

// TestShardedMerge splits a stream across two Shardeds (two measurement
// points) and folds them; the combined top-k must recover the elephants
// with summed counts.
func TestShardedMerge(t *testing.T) {
	const k = 30
	tr := genTrace(t, 1.2, 0.002, 99)
	a := mustSharded(k, WithSeed(5), WithShards(4))
	b := mustSharded(k, WithSeed(5), WithShards(4))
	p := 0
	tr.ForEach(func(key []byte) {
		if p%2 == 0 {
			a.Add(key)
		} else {
			b.Add(key)
		}
		p++
	})
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	truth := map[string]bool{}
	for _, i := range tr.TopK(k) {
		truth[string(tr.IDs[i])] = true
	}
	matched := 0
	for _, f := range a.List() {
		if truth[string(f.ID)] {
			matched++
		}
	}
	t.Logf("merged recall %d/%d", matched, k)
	if matched < k*8/10 {
		t.Fatalf("merged recall too low: %d/%d", matched, k)
	}
	// The biggest flow was split evenly; the merged estimate must see both
	// halves (well above one half) without exceeding the truth.
	top := tr.TopK(1)[0]
	id, want := tr.IDs[top], tr.Count(top)
	got := a.Query(id)
	if got > want || got <= want/2 {
		t.Fatalf("merged estimate for top flow: got %d, want in (%d, %d]", got, want/2, want)
	}
}

// TestShardedMergeErrors covers layout-mismatch rejection.
func TestShardedMergeErrors(t *testing.T) {
	a := mustSharded(5, WithShards(2))
	if err := a.Merge(nil); err == nil {
		t.Fatal("merge with nil must fail")
	}
	if err := a.Merge(a); err == nil {
		t.Fatal("merge with self must fail")
	}
	if err := a.Merge(mustSharded(5, WithShards(3))); err == nil {
		t.Fatal("merge across shard counts must fail")
	}
	if err := a.Merge(mustSharded(5, WithShards(2), WithSeed(9))); err == nil {
		t.Fatal("merge across seeds must fail")
	}
}

// TestShardedOptions covers construction validation and accessors.
func TestShardedOptions(t *testing.T) {
	if _, err := New(10, WithShards(0)); err == nil {
		t.Fatal("WithShards(0) must fail")
	}
	if _, err := New(0, WithShards(2)); err == nil {
		t.Fatal("k=0 must fail")
	}
	s := mustSharded(10, WithShards(4), WithMemory(64<<10))
	if s.Shards() != 4 || s.K() != 10 {
		t.Fatalf("accessors: shards=%d k=%d", s.Shards(), s.K())
	}
	// The total footprint respects the shared budget (k-entry summaries are
	// per shard and come out of each shard's slice).
	if mb := s.MemoryBytes(); mb > 64<<10 {
		t.Fatalf("MemoryBytes %d exceeds the 64 KB budget", mb)
	}
}

// TestShardedConcurrentHammer drives Add/AddBatch/Query/List from many
// goroutines; run with -race in CI.
func TestShardedConcurrentHammer(t *testing.T) {
	tr := genTrace(t, 1.0, 0.0005, 31)
	s := mustSharded(20, WithShards(4))
	keys := make([][]byte, 0, tr.Len())
	tr.ForEach(func(key []byte) { keys = append(keys, key) })

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keys); i += 8 {
				switch {
				case g%4 == 3 && i%1024 == 3:
					s.List()
				case g%2 == 0:
					s.Add(keys[i])
				case i+64 <= len(keys):
					s.AddBatch(keys[i : i+64])
				default:
					s.Query(keys[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Stats().Packets == 0 {
		t.Fatal("no packets recorded")
	}
	if len(s.List()) == 0 {
		t.Fatal("empty list after ingest")
	}
}

// contractKeys is a zipfian stream of about 16k packets over about 1.6k
// flows, long enough that every shard's inbox sees many chunks, with the
// distinct flow ids.
func contractKeys(t *testing.T) (keys, ids [][]byte) {
	tr := genTrace(t, 1.0, 0.0005, 21)
	tr.ForEach(func(key []byte) { keys = append(keys, key) })
	return keys, tr.IDs
}

// snapshotBytes is s's WriteTo serialization.
func snapshotBytes(t *testing.T, s *Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestShardedReadYourWrites checks the read contract: every read method,
// called right after AddBatch returns, sees that batch. The reference gets
// the same keys through per-key Add, which applies inline.
func TestShardedReadYourWrites(t *testing.T) {
	opts := []Option{WithSeed(11), WithShards(2), WithMemory(16 << 10)}
	keys, ids := contractKeys(t)
	const batch = 128
	reads := map[string]func(s *Sharded) any{
		"Query": func(s *Sharded) any {
			out := make([]uint64, len(ids))
			for i, id := range ids {
				out[i] = s.Query(id)
			}
			return out
		},
		"List":  func(s *Sharded) any { return s.List() },
		"All":   func(s *Sharded) any { return slices.Collect(s.All()) },
		"Stats": func(s *Sharded) any { return s.Stats() },
		"MemoryBytes": func(s *Sharded) any {
			return s.MemoryBytes()
		},
		"StoreIndexStats": func(s *Sharded) any {
			st, ok := s.StoreIndexStats()
			return []any{st, ok}
		},
		"WriteTo": func(s *Sharded) any { return snapshotBytes(t, s) },
		"Merge/source": func(s *Sharded) any {
			dst := mustSharded(20, opts...)
			if err := dst.Merge(s); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			return snapshotBytes(t, dst)
		},
		"Merge/receiver": func(s *Sharded) any {
			other := mustSharded(20, opts...)
			other.Add([]byte("merged-in"))
			if err := s.Merge(other); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			return snapshotBytes(t, s)
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			s, ref := mustSharded(20, opts...), mustSharded(20, opts...)
			for lo := 0; lo < len(keys); lo += batch {
				part := keys[lo:min(lo+batch, len(keys))]
				s.AddBatch(part)
				for _, k := range part {
					ref.Add(k)
				}
				if lo%(16*batch) != 0 {
					continue
				}
				if got, want := read(s), read(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d keys: %s right after AddBatch differs from the per-key reference", lo+len(part), name)
				}
			}
		})
	}
}

// TestShardedSingleProducerOrder: one producer interleaving Add, AddN and
// AddBatch builds state bit-identical to a per-key reference, because Add
// and AddN catch their shard up on queued batches before applying.
func TestShardedSingleProducerOrder(t *testing.T) {
	opts := []Option{WithSeed(12), WithShards(4), WithMemory(16 << 10)}
	s, ref := mustSharded(20, opts...), mustSharded(20, opts...)
	keys, _ := contractKeys(t)
	for lo, op := 0, 0; lo < len(keys); op++ {
		switch op % 3 {
		case 0:
			hi := min(lo+97, len(keys))
			s.AddBatch(keys[lo:hi])
			for _, k := range keys[lo:hi] {
				ref.Add(k)
			}
			lo = hi
		case 1:
			s.Add(keys[lo])
			ref.Add(keys[lo])
			lo++
		default:
			s.AddN(keys[lo], 5)
			ref.AddN(keys[lo], 5)
			lo++
		}
	}
	if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, ref)) {
		t.Fatal("interleaved Add/AddN/AddBatch state differs from the per-key reference")
	}
}

// TestShardedConcurrentReaders runs four AddBatch producers against
// concurrent List, Query, WriteTo and Merge (on both sides); run with
// -race. Every packet must be accounted for at the end.
func TestShardedConcurrentReaders(t *testing.T) {
	opts := []Option{WithSeed(13), WithShards(2), WithMemory(16 << 10)}
	s := mustSharded(20, opts...)
	keys, _ := contractKeys(t)
	const producers, rounds = 4, 3
	var prod, readers sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func() {
			defer prod.Done()
			for range rounds {
				for lo := p * 64; lo < len(keys); lo += producers * 64 {
					s.AddBatch(keys[lo:min(lo+64, len(keys))])
				}
			}
		}()
	}
	for _, read := range []func(){
		func() { s.List() },
		func() { s.Query(keys[0]) },
		func() { s.WriteTo(io.Discard) },
		func() { mustSharded(20, opts...).Merge(s) },
		func() { s.Merge(mustSharded(20, opts...)) },
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				read()
			}
		}()
	}
	prod.Wait()
	close(done)
	readers.Wait()
	if got, want := s.Stats().Packets, uint64(rounds*len(keys)); got != want {
		t.Fatalf("Stats().Packets = %d, want %d", got, want)
	}
}

// TestShardedBackpressure stalls the drainers by holding every shard lock
// while a producer keeps calling AddBatch: each inbox fills to its bound,
// the producer then blocks applying the backlog itself, and once the locks
// are released the state matches the per-key reference.
func TestShardedBackpressure(t *testing.T) {
	opts := []Option{WithSeed(14), WithShards(2), WithMemory(16 << 10)}
	s, ref := mustSharded(20, opts...), mustSharded(20, opts...)
	keys, _ := contractKeys(t)
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for lo := 0; lo < len(keys); lo += 50 {
			s.AddBatch(keys[lo:min(lo+50, len(keys))])
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.shards[0].inbox) < inboxDepth && len(s.shards[1].inbox) < inboxDepth {
		if time.Now().After(deadline) {
			t.Fatal("no inbox filled while the drainers were stalled")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-finished:
		t.Fatal("producer outran a full inbox without applying the backlog")
	case <-time.After(20 * time.Millisecond):
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	<-finished
	for _, k := range keys {
		ref.Add(k)
	}
	if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, ref)) {
		t.Fatal("state after backpressure differs from the per-key reference")
	}
}

// TestShardedDrainersStop: a drainer exits once its shard has caught up, so
// dropped Shardeds — evicted tenants, test instances — leak no goroutines.
func TestShardedDrainersStop(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	for range 1000 {
		s := mustSharded(10, WithShards(2), WithMemory(4<<10))
		s.AddBatch(keys)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after dropping 1000 Shardeds, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentHammer drives Add/AddString/AddBatch/Query/List/MemoryBytes
// on a WithConcurrency (one-shard) Sharded from many goroutines at once; its
// value is as a -race target (CI runs the root package under the race
// detector), with a sanity check on the result.
func TestConcurrentHammer(t *testing.T) {
	c, err := New(10, WithConcurrency(), WithMemory(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := skewed(40_000, 1_000, 17)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(stream); i += 8 {
				switch {
				case i%4096 == g:
					c.List()
					c.MemoryBytes()
				case g%4 == 1:
					c.AddString(string(stream[i]))
				case g%4 == 2 && i+32 <= len(stream):
					c.AddBatch(stream[i : i+32])
				case g%4 == 3:
					c.Query(stream[i])
				default:
					c.Add(stream[i])
				}
			}
		}(g)
	}
	wg.Wait()

	// The heaviest flow must be visible; under the interleaving above a
	// majority of packets were Adds, so flow-0 dominates.
	list := c.List()
	if len(list) == 0 {
		t.Fatal("empty list after ingest")
	}
	if got := c.Query([]byte("flow-0")); got == 0 {
		t.Fatal("heaviest flow reports 0")
	}
	if c.K() != 10 {
		t.Fatalf("K() = %d", c.K())
	}
}

// TestConcurrencyListTieOrder: a one-shard Sharded reports its shard's own
// List, so flows with equal counts come out in the order a plain TopK gives
// them, not re-sorted by ID as the multi-shard merge sorts them.
func TestConcurrencyListTieOrder(t *testing.T) {
	opts := []Option{WithSeed(3), WithMemory(16 << 10)}
	plain := MustNew(20, opts...)
	conc := MustNew(20, append(opts, WithConcurrency())...)
	// Twenty flows, five packets each, arriving in ascending-ID order.
	for range 5 {
		for i := range 20 {
			id := []byte{'f', byte('a' + i)}
			plain.Add(id)
			conc.Add(id)
		}
	}
	want := plain.List()
	if slices.IsSortedFunc(want, func(a, b Flow) int { return bytes.Compare(a.ID, b.ID) }) {
		t.Fatalf("plain List %v has its ties in ID order; the stream shows nothing", want)
	}
	if got := conc.List(); !reflect.DeepEqual(got, want) {
		t.Errorf("WithConcurrency List = %v, want the plain TopK's %v", got, want)
	}
	if got := slices.Collect(conc.All()); !reflect.DeepEqual(got, want) {
		t.Errorf("WithConcurrency All = %v, want the plain TopK's %v", got, want)
	}
}
