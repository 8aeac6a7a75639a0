package heavykeeper

import (
	"sync"
	"testing"
)

// TestConcurrentHammer drives Add/AddString/AddBatch/Query/List/MemoryBytes
// from many goroutines at once; its value is as a -race target (CI runs the
// root package under the race detector), with a sanity check on the result.
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
