package heavykeeper

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(10, 1); !errors.Is(err, ErrInvalidWindow) {
		t.Fatalf("window size 1: got %v, want ErrInvalidWindow", err)
	}
	if _, err := NewWindow(0, 100); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k 0: got %v, want ErrInvalidK", err)
	}
	if _, err := NewWindow(10, 100, WithAlgorithm("spacesaving")); !errors.Is(err, ErrOptionConflict) {
		t.Fatalf("non-HK algorithm: got %v, want ErrOptionConflict", err)
	}
	if _, err := NewWindow(10, 100, WithShards(4)); !errors.Is(err, ErrOptionConflict) {
		t.Fatalf("WithShards: got %v, want ErrOptionConflict", err)
	}
	if _, err := NewWindow(10, 100, WithConcurrency()); !errors.Is(err, ErrOptionConflict) {
		t.Fatalf("WithConcurrency: got %v, want ErrOptionConflict", err)
	}
	if _, err := NewWindow(10, 100, WithWidth(0)); !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("bad sketch option: got %v, want ErrInvalidWidth", err)
	}
}

func TestWindowForgetsOldTraffic(t *testing.T) {
	w := MustNewWindow(5, 1000, WithSeed(9))
	heavy := []byte("early-elephant")
	for i := 0; i < 400; i++ {
		w.Add(heavy)
	}
	if got := w.Query(heavy); got != 400 {
		t.Fatalf("fresh elephant reports %d, want 400", got)
	}
	// Push two full windows of other traffic past it; the early elephant
	// must be gone from the report and the estimate.
	for i := 0; i < 2000; i++ {
		w.Add(fmt.Appendf(nil, "late-%04d", i%50))
	}
	if got := w.Query(heavy); got != 0 {
		t.Fatalf("elephant older than the window still reports %d", got)
	}
	for _, f := range w.List() {
		if bytes.Equal(f.ID, heavy) {
			t.Fatal("expired elephant still listed")
		}
	}
	if w.Rotations() < 2 {
		t.Fatalf("expected >= 2 rotations, got %d", w.Rotations())
	}
}

func TestWindowBatchMatchesSequential(t *testing.T) {
	seq := MustNewWindow(10, 500, WithSeed(3))
	bat := MustNewWindow(10, 500, WithSeed(3))
	keys := make([][]byte, 0, 3000)
	for i := 0; i < 3000; i++ {
		keys = append(keys, fmt.Appendf(nil, "flow-%03d", i%200))
	}
	for _, k := range keys {
		seq.Add(k)
	}
	// Batches that straddle pane boundaries must rotate identically.
	for lo := 0; lo < len(keys); lo += 171 {
		hi := min(lo+171, len(keys))
		bat.AddBatch(keys[lo:hi])
	}
	if seq.Rotations() != bat.Rotations() {
		t.Fatalf("rotations differ: %d vs %d", seq.Rotations(), bat.Rotations())
	}
	ls, lb := seq.List(), bat.List()
	if len(ls) != len(lb) {
		t.Fatalf("report sizes differ: %d vs %d", len(ls), len(lb))
	}
	for i := range ls {
		if !bytes.Equal(ls[i].ID, lb[i].ID) || ls[i].Count != lb[i].Count {
			t.Fatalf("report[%d]: %q/%d vs %q/%d", i, ls[i].ID, ls[i].Count, lb[i].ID, lb[i].Count)
		}
	}
}

func TestWindowSummarizerSurface(t *testing.T) {
	var s Summarizer = MustNewWindow(5, 100)
	s.AddString("hello")
	s.AddN([]byte("hello"), 3)
	if got := s.Query([]byte("hello")); got != 4 {
		t.Fatalf("Query = %d, want 4", got)
	}
	if s.K() != 5 {
		t.Fatalf("K = %d", s.K())
	}
	if s.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
	if s.Stats().Packets == 0 {
		t.Fatal("Stats.Packets is zero after ingest")
	}
	n := 0
	for range s.All() {
		n++
	}
	if n != 1 {
		t.Fatalf("All yielded %d flows, want 1", n)
	}
	if err := s.Merge(MustNew(5)); !errors.Is(err, ErrMergeUnsupported) {
		t.Fatalf("Merge: got %v, want ErrMergeUnsupported", err)
	}
}

func TestWindowConcurrentUse(t *testing.T) {
	w := MustNewWindow(10, 2048)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w.Add(fmt.Appendf(nil, "g%d-%04d", g, i%64))
				if i%128 == 0 {
					w.List()
					w.Query([]byte("g0-0000"))
				}
			}
		}(g)
	}
	wg.Wait()
	// Retired panes take their counters with them, so Stats covers at most
	// the live panes' share of the 8000 adds — but never zero or more than
	// one full window.
	if p := w.Stats().Packets; p == 0 || p > 2048 {
		t.Fatalf("Packets = %d, want within (0, 2048]", p)
	}
}

func TestWindowRotationCadence(t *testing.T) {
	w := MustNewWindow(5, 100, WithSeed(3)) // pane = 50
	for i := 0; i < 49; i++ {
		w.Add([]byte("x"))
	}
	if w.Rotations() != 0 {
		t.Fatalf("rotated after %d items", 49)
	}
	w.Add([]byte("x"))
	if w.Rotations() != 1 {
		t.Fatalf("no rotation at pane boundary")
	}
	if w.WindowSize() != 100 {
		t.Errorf("WindowSize = %d want 100", w.WindowSize())
	}
	// A zero-weight arrival records nothing and does not age the window;
	// a weighted one ages it by one item.
	w.AddN([]byte("x"), 0)
	w.AddN([]byte("x"), 7)
	if got := w.Query([]byte("x")); got != 57 {
		t.Errorf("Query = %d, want 57", got)
	}
	for i := 0; i < 48; i++ {
		w.Add([]byte("y"))
	}
	if w.Rotations() != 1 {
		t.Fatalf("zero-weight AddN advanced the pane")
	}
	w.Add([]byte("y"))
	if w.Rotations() != 2 {
		t.Fatalf("no rotation at the second pane boundary")
	}
}

// TestWindowOldTrafficExpires: a flow seen only in the first pane is gone
// at the earliest rotation that can drop it, not a full window later.
func TestWindowOldTrafficExpires(t *testing.T) {
	w := MustNewWindow(3, 1000, WithSeed(3), WithWidth(512)) // pane = 500
	old := []byte("old")
	for i := 0; i < 400; i++ {
		w.Add(old)
	}
	if got := w.Query(old); got != 400 {
		t.Fatalf("fresh query = %d want 400", got)
	}
	// 1100 more items end the first pane, fill the second and close it
	// too, so the pane holding "old" leaves the window.
	for i := 0; i < 1100; i++ {
		w.Add(fmt.Appendf(nil, "fresh-%d", i%5))
	}
	if got := w.Query(old); got != 0 {
		t.Errorf("expired flow still reports %d", got)
	}
	for _, f := range w.List() {
		if bytes.Equal(f.ID, old) {
			t.Error("expired flow still in the windowed top-k")
		}
	}
}

func TestWindowCountsSpanPanes(t *testing.T) {
	w := MustNewWindow(3, 200, WithSeed(3)) // pane = 100
	// A flow active across the rotation keeps its combined count.
	for i := 0; i < 150; i++ {
		w.Add([]byte("span"))
	}
	if got := w.Query([]byte("span")); got != 150 {
		t.Errorf("spanning flow reports %d want 150", got)
	}
	top := w.List()
	if len(top) == 0 || string(top[0].ID) != "span" || top[0].Count != 150 {
		t.Errorf("List = %v", top)
	}
}

func TestWindowTracksRecentElephants(t *testing.T) {
	const pane = 5000
	w := MustNewWindow(5, 2*pane, WithSeed(3), WithWidth(512))
	rng := xrand.NewXorshift64Star(9)
	// Phase 1: elephants A0..A4 dominate; phase 2: B0..B4 take over for
	// two full panes.
	for _, phase := range []string{"A", "B"} {
		for i := 0; i < 2*pane; i++ {
			if i%3 == 0 {
				w.Add(fmt.Appendf(nil, "%s%d", phase, i%5))
			} else {
				w.Add(fmt.Appendf(nil, "m%d", rng.Uint64n(3000)))
			}
		}
	}
	top := w.List()
	bs := 0
	for _, f := range top {
		switch f.ID[0] {
		case 'B':
			bs++
		case 'A':
			t.Errorf("stale elephant %s still reported", f.ID)
		}
	}
	if bs < 4 {
		t.Errorf("only %d/5 recent elephants reported: %v", bs, top)
	}
}

// TestWindowListBeforeFirstRotation: with one live pane, List is that
// pane's report, ordered like every other List (count descending, then ID
// ascending) and cut at k.
func TestWindowListBeforeFirstRotation(t *testing.T) {
	w := MustNewWindow(3, 1000, WithSeed(3))
	for _, id := range []string{"a", "a", "c", "b"} {
		w.Add([]byte(id))
	}
	top := w.List()
	if w.Rotations() != 0 || len(top) != 3 ||
		string(top[0].ID) != "a" || top[0].Count != 2 ||
		string(top[1].ID) != "b" || top[1].Count != 1 ||
		string(top[2].ID) != "c" || top[2].Count != 1 {
		t.Errorf("List = %v", top)
	}
}
