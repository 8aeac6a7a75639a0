package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is an io.Writer safe for the server's concurrent loggers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitLogRecord polls the JSON log in buf until a record with message msg
// appears, and returns its fields.
func waitLogRecord(t *testing.T, buf *lockedBuffer, msg string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(buf.String(), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == msg {
				return rec
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %q record in the log:\n%s", msg, buf.String())
	return nil
}

// TestDegradedEntryLogsTrigger pins the degraded-mode entry log for both
// triggers: it names the watermark that tripped and carries the queue
// depth, the heap bytes and that watermark's value.
func TestDegradedEntryLogsTrigger(t *testing.T) {
	t.Run("queue", func(t *testing.T) {
		var buf lockedBuffer
		srv, _ := startTestServer(t, func(c *Config) {
			c.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
			c.OverloadHighWater = 5
			c.OverloadLowWater = 1
		})
		// The monitor's next tick sees the queue at its high watermark.
		srv.waiting.Store(5)
		rec := waitLogRecord(t, &buf, "entering degraded mode")
		srv.waiting.Store(0)
		if rec["trigger"] != "queue" || rec["queue"] != 5.0 || rec["watermark"] != 5.0 {
			t.Errorf("queue entry logged %v, want trigger=queue queue=5 watermark=5", rec)
		}
		if heap, _ := rec["heap_bytes"].(float64); heap <= 0 {
			t.Errorf("queue entry logged heap_bytes %v, want the live heap", rec["heap_bytes"])
		}
	})
	t.Run("heap", func(t *testing.T) {
		var buf lockedBuffer
		srv, _ := startTestServer(t, func(c *Config) {
			c.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
			c.MemHighWater = 1 // any live heap is past it
		})
		rec := waitLogRecord(t, &buf, "entering degraded mode")
		if rec["trigger"] != "heap" || rec["queue"] != 0.0 || rec["watermark"] != 1.0 {
			t.Errorf("heap entry logged %v, want trigger=heap queue=0 watermark=1", rec)
		}
		if heap, _ := rec["heap_bytes"].(float64); heap < 1 {
			t.Errorf("heap entry logged heap_bytes %v, want >= the watermark", rec["heap_bytes"])
		}
		if !srv.degraded.Load() {
			t.Error("heap trigger logged but the server is not degraded")
		}
	})
}
