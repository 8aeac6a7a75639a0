package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/wire"
)

// testKeys builds a deterministic skewed keyset: flow i dominates flow
// i+1, so the top of the report is stable across orderings.
func testKeys(n int) [][]byte {
	keys := make([][]byte, 0, n)
	for p := 0; p < n; p++ {
		i := 0
		for r := p; r%2 == 1 && i < 199; r /= 2 {
			i++
		}
		keys = append(keys, fmt.Appendf(nil, "flow-%05d", i))
	}
	return keys
}

// startTestServer builds a Concurrent-backed server on ephemeral
// loopback ports and returns it with a same-configuration twin for
// equivalence checks.
func startTestServer(t *testing.T, opts ...func(*Config)) (*Server, heavykeeper.Summarizer) {
	t.Helper()
	newSum := func() heavykeeper.Summarizer {
		return heavykeeper.MustNew(20, heavykeeper.WithConcurrency(),
			heavykeeper.WithSeed(42), heavykeeper.WithMemory(32<<10))
	}
	cfg := Config{
		Summarizer: newSum(),
		TCPAddr:    "127.0.0.1:0",
		UDPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Info:       map[string]string{"algo": "heavykeeper"},
	}
	for _, o := range opts {
		o(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, newSum()
}

// sendTCP streams keys to addr as wire frames of the given batch size.
func sendTCP(t *testing.T, addr net.Addr, keys [][]byte, batch int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial %v: %v", addr, err)
	}
	defer conn.Close()
	var frame []byte
	for lo := 0; lo < len(keys); lo += batch {
		hi := min(lo+batch, len(keys))
		frame, err = wire.AppendFrame(frame[:0], keys[lo:hi], nil)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
}

// waitRecords polls /stats until the server has ingested want records.
func waitRecords(t *testing.T, httpAddr net.Addr, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Server struct {
				Records uint64 `json:"records"`
			} `json:"server"`
		}
		getJSON(t, httpAddr, "/stats", &st)
		if st.Server.Records >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never reached %d ingested records", want)
}

func getJSON(t *testing.T, addr net.Addr, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", path, err)
	}
}

type topKDoc struct {
	K     int `json:"k"`
	Flows []struct {
		ID    string `json:"id"`
		Count uint64 `json:"count"`
	} `json:"flows"`
}

// assertMatchesTwin checks the server's /topk and /query answers against
// a twin summarizer that ingested the same keys directly.
func assertMatchesTwin(t *testing.T, httpAddr net.Addr, twin heavykeeper.Summarizer) {
	t.Helper()
	var doc topKDoc
	getJSON(t, httpAddr, "/topk", &doc)
	want := twin.List()
	if len(doc.Flows) != len(want) {
		t.Fatalf("/topk has %d flows, twin has %d", len(doc.Flows), len(want))
	}
	for i, f := range doc.Flows {
		wantID := hex.EncodeToString(want[i].ID)
		if f.ID != wantID || f.Count != want[i].Count {
			t.Fatalf("/topk[%d] = %s/%d, twin %s/%d", i, f.ID, f.Count, wantID, want[i].Count)
		}
	}
	for _, probe := range []string{"flow-00000", "flow-00003", "flow-00199", "never-seen"} {
		var q struct {
			Count uint64 `json:"count"`
		}
		getJSON(t, httpAddr, "/query?id="+hex.EncodeToString([]byte(probe)), &q)
		if wantC := twin.Query([]byte(probe)); q.Count != wantC {
			t.Fatalf("/query %s = %d, twin %d", probe, q.Count, wantC)
		}
	}
}

func TestEndToEndTCP(t *testing.T) {
	srv, twin := startTestServer(t)
	keys := testKeys(30000)
	sendTCP(t, srv.TCPAddr(), keys, 256)
	waitRecords(t, srv.HTTPAddr(), uint64(len(keys)))

	for lo := 0; lo < len(keys); lo += 256 {
		twin.AddBatch(keys[lo:min(lo+256, len(keys))])
	}
	assertMatchesTwin(t, srv.HTTPAddr(), twin)
}

func TestEndToEndUDP(t *testing.T) {
	srv, twin := startTestServer(t)
	keys := testKeys(12800)
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatalf("dial udp: %v", err)
	}
	defer conn.Close()
	var frame []byte
	const batch = 64
	for lo := 0; lo < len(keys); lo += batch {
		hi := min(lo+batch, len(keys))
		frame, err = wire.AppendFrame(frame[:0], keys[lo:hi], nil)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("udp write: %v", err)
		}
		// Loopback UDP can still overrun the receive buffer; a short
		// breather every few frames keeps the test deterministic.
		if (lo/batch)%8 == 7 {
			time.Sleep(time.Millisecond)
		}
	}
	waitRecords(t, srv.HTTPAddr(), uint64(len(keys)))

	for lo := 0; lo < len(keys); lo += batch {
		twin.AddBatch(keys[lo:min(lo+batch, len(keys))])
	}
	assertMatchesTwin(t, srv.HTTPAddr(), twin)
}

func TestEndToEndWeightedFrames(t *testing.T) {
	srv, twin := startTestServer(t)
	keys := [][]byte{[]byte("wa"), []byte("wb"), []byte("wc")}
	weights := []uint64{100, 10, 1}
	frame, err := wire.AppendFrame(nil, keys, weights)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.Close()
	waitRecords(t, srv.HTTPAddr(), uint64(len(keys)))

	for i, k := range keys {
		twin.AddN(k, weights[i])
	}
	assertMatchesTwin(t, srv.HTTPAddr(), twin)
}

func TestMalformedStreamCounted(t *testing.T) {
	srv, _ := startTestServer(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte("definitely not a frame header"))
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Server struct {
				DecodeErrors uint64 `json:"decode_errors"`
			} `json:"server"`
		}
		getJSON(t, srv.HTTPAddr(), "/stats", &st)
		if st.Server.DecodeErrors >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("decode error never counted")
}

func TestHTTPEndpoints(t *testing.T) {
	srv, _ := startTestServer(t)
	sendTCP(t, srv.TCPAddr(), testKeys(1000), 100)
	waitRecords(t, srv.HTTPAddr(), 1000)

	var ix struct {
		Available bool `json:"available"`
		Stats     *struct {
			TableSize int `json:"table_size"`
		} `json:"stats"`
	}
	getJSON(t, srv.HTTPAddr(), "/indexstats", &ix)
	if !ix.Available || ix.Stats == nil || ix.Stats.TableSize == 0 {
		t.Errorf("/indexstats not surfaced for Concurrent: %+v", ix)
	}

	var cfg map[string]string
	getJSON(t, srv.HTTPAddr(), "/config", &cfg)
	if cfg["algo"] != "heavykeeper" || cfg["k"] != "20" {
		t.Errorf("/config = %v", cfg)
	}

	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE hkd_ingest_records_total counter",
		"hkd_ingest_records_total 1000",
		`hkd_ingest_frames_total{transport="tcp"} 10`,
		"hkd_engine_packets_total 1000",
		"# TYPE hkd_store_index_occupied gauge",
		"# TYPE hkd_tcp_reads_total counter",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var st statsDoc
	getJSON(t, srv.HTTPAddr(), "/stats", &st)
	if st.Server.TCPReads == 0 || st.Server.TCPReads > 21 {
		t.Errorf("/stats tcp_reads = %d for 10 frames, want 1..21", st.Server.TCPReads)
	}

	resp, err = http.Get("http://" + srv.HTTPAddr().String() + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestSnapshotRestartRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "hkd.snap")
	srv, twin := startTestServer(t, func(c *Config) {
		c.SnapshotPath = snap
		c.SnapshotInterval = time.Hour // periodic loop stays quiet; shutdown writes
	})
	keys := testKeys(20000)
	sendTCP(t, srv.TCPAddr(), keys, 256)
	waitRecords(t, srv.HTTPAddr(), uint64(len(keys)))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	restored, err := LoadSnapshot(snap)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if restored == nil {
		t.Fatal("snapshot file missing after shutdown")
	}
	srv2, err := New(Config{Summarizer: restored, TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatalf("Start (restart): %v", err)
	}
	defer srv2.Shutdown(context.Background())

	for lo := 0; lo < len(keys); lo += 256 {
		twin.AddBatch(keys[lo:min(lo+256, len(keys))])
	}
	// The restarted daemon answers with the pre-restart counts...
	assertMatchesTwin(t, srv2.HTTPAddr(), twin)
	// ...and keeps ingesting on top of them.
	more := testKeys(5000)
	sendTCP(t, srv2.TCPAddr(), more, 128)
	waitRecords(t, srv2.HTTPAddr(), uint64(len(more)))
	for lo := 0; lo < len(more); lo += 128 {
		twin.AddBatch(more[lo:min(lo+128, len(more))])
	}
	assertMatchesTwin(t, srv2.HTTPAddr(), twin)
}

func TestLoadSnapshotMissingFile(t *testing.T) {
	sum, err := LoadSnapshot(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || sum != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", sum, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil summarizer accepted")
	}
	if _, err := New(Config{Summarizer: heavykeeper.MustNew(5, heavykeeper.WithConcurrency())}); err == nil {
		t.Error("no listener accepted")
	}
	// A bare TopK has no synchronization; serving it would race.
	if _, err := New(Config{Summarizer: heavykeeper.MustNew(5), TCPAddr: ":0"}); err == nil {
		t.Error("bare *TopK accepted")
	}
	if _, err := New(Config{Summarizer: heavykeeper.Synchronized(heavykeeper.MustNew(5)), TCPAddr: "127.0.0.1:0"}); err != nil {
		t.Errorf("Synchronized-wrapped TopK rejected: %v", err)
	}
	// A registry-engine summarizer cannot back a snapshotting server.
	reg := heavykeeper.MustNew(5, heavykeeper.WithAlgorithm("spacesaving"))
	if _, err := New(Config{Summarizer: reg, TCPAddr: ":0", SnapshotPath: "x"}); err == nil {
		t.Error("snapshot path with snapshot-incapable summarizer accepted")
	}
}

// getBody fetches a path and returns status and body.
func getBody(t *testing.T, addr net.Addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// statsDoc mirrors the /stats server-counter block the resilience tests
// care about.
type statsDoc struct {
	Server struct {
		Records         uint64 `json:"records"`
		TCPReads        uint64 `json:"tcp_reads"`
		ConnsActive     int64  `json:"conns_active"`
		ConnsRejected   uint64 `json:"conns_rejected"`
		IdleEvictions   uint64 `json:"idle_evictions"`
		UDPOversized    uint64 `json:"udp_oversized"`
		UDPTruncated    uint64 `json:"udp_truncated"`
		Degraded        bool   `json:"degraded"`
		DegradedEntries uint64 `json:"degraded_entries"`
		DegradedExits   uint64 `json:"degraded_exits"`
		ShedBatches     uint64 `json:"shed_batches"`
		ShedRecords     uint64 `json:"shed_records"`
	} `json:"server"`
}

// waitStats polls /stats until pred accepts the document.
func waitStats(t *testing.T, addr net.Addr, what string, pred func(statsDoc) bool) statsDoc {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st statsDoc
	for time.Now().Before(deadline) {
		getJSON(t, addr, "/stats", &st)
		if pred(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last stats: %+v", what, st.Server)
	return st
}

func TestDrainGraceValidation(t *testing.T) {
	sum := func() heavykeeper.Summarizer {
		return heavykeeper.MustNew(5, heavykeeper.WithConcurrency())
	}
	for _, grace := range []time.Duration{-time.Second, 11 * time.Minute} {
		_, err := New(Config{Summarizer: sum(), TCPAddr: ":0", DrainGrace: grace})
		if !errors.Is(err, ErrInvalidDrainGrace) {
			t.Errorf("DrainGrace %v: got %v, want ErrInvalidDrainGrace", grace, err)
		}
	}
	for _, bad := range []Config{
		{MaxInflight: -1},
		{OverloadHighWater: -3},
		{OverloadLowWater: 9, OverloadHighWater: 4},
		{ShedKeepOneIn: -2},
		{IdleTimeout: -time.Second},
	} {
		bad.Summarizer = sum()
		bad.TCPAddr = ":0"
		if _, err := New(bad); !errors.Is(err, ErrInvalidLimit) {
			t.Errorf("config %+v: got %v, want ErrInvalidLimit", bad, err)
		}
	}
	if _, err := New(Config{Summarizer: sum(), TCPAddr: "127.0.0.1:0", DrainGrace: 5 * time.Second}); err != nil {
		t.Errorf("valid DrainGrace rejected: %v", err)
	}
}

// TestMaxConnsRejection: the admission cap closes connections past
// MaxConns and counts them, and slots free up when a peer leaves.
func TestMaxConnsRejection(t *testing.T) {
	srv, _ := startTestServer(t, func(c *Config) { c.MaxConns = 2 })
	c1, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	defer c1.Close()
	c2, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	waitStats(t, srv.HTTPAddr(), "2 active conns", func(st statsDoc) bool {
		return st.Server.ConnsActive == 2
	})

	c3, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial 3: %v", err)
	}
	defer c3.Close()
	// The server must close the over-cap connection without serving it.
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c3.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection was served")
	}
	waitStats(t, srv.HTTPAddr(), "a rejected conn", func(st statsDoc) bool {
		return st.Server.ConnsRejected >= 1
	})

	// Freeing the slots re-admits new peers: a fresh connection ingests.
	c1.Close()
	c2.Close()
	waitStats(t, srv.HTTPAddr(), "free slots", func(st statsDoc) bool {
		return st.Server.ConnsActive == 0
	})
	sendTCP(t, srv.TCPAddr(), testKeys(64), 64)
	waitRecords(t, srv.HTTPAddr(), 64)
}

// TestIdleEviction: a silent peer is evicted after IdleTimeout and
// counted apart from decode and transport errors; an active peer's
// deadline keeps sliding.
func TestIdleEviction(t *testing.T) {
	srv, _ := startTestServer(t, func(c *Config) { c.IdleTimeout = 300 * time.Millisecond })
	idle, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer idle.Close()

	// An active connection outlives many idle windows: each delivered
	// frame slides its deadline.
	activeDone := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", srv.TCPAddr().String())
		if err != nil {
			activeDone <- err
			return
		}
		defer conn.Close()
		frame, _ := wire.AppendFrame(nil, [][]byte{[]byte("alive")}, nil)
		for i := 0; i < 10; i++ {
			if _, err := conn.Write(frame); err != nil {
				activeDone <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			time.Sleep(50 * time.Millisecond) // well under the idle window
		}
		activeDone <- nil
	}()

	st := waitStats(t, srv.HTTPAddr(), "idle eviction", func(st statsDoc) bool {
		return st.Server.IdleEvictions >= 1
	})
	if st.Server.IdleEvictions != 1 {
		t.Errorf("evictions = %d, want exactly the idle conn", st.Server.IdleEvictions)
	}
	// The evicted side observes the close.
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle conn still open after eviction")
	}
	if err := <-activeDone; err != nil {
		t.Fatalf("active conn: %v", err)
	}
	waitRecords(t, srv.HTTPAddr(), 10)
}

// TestUDPDropAccounting: datagrams whose header declares an impossible
// payload and datagrams shorter than their declared records are counted
// apart from generic decode corruption, and neither disturbs ingest.
func TestUDPDropAccounting(t *testing.T) {
	srv, _ := startTestServer(t)
	conn, err := net.Dial("udp", srv.UDPAddr().String())
	if err != nil {
		t.Fatalf("dial udp: %v", err)
	}
	defer conn.Close()

	// Header declaring a payload past MaxPayload: oversized.
	over := []byte{'H', 'K', 1, 1, 0xff, 0xff, 0xff, 0xff}
	if _, err := conn.Write(over); err != nil {
		t.Fatalf("oversized write: %v", err)
	}
	// Valid header, payload cut short: truncated.
	valid, err := wire.AppendFrame(nil, [][]byte{[]byte("whole-frame-key")}, nil)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	if _, err := conn.Write(valid[:len(valid)-4]); err != nil {
		t.Fatalf("truncated write: %v", err)
	}
	// A healthy frame still lands.
	if _, err := conn.Write(valid); err != nil {
		t.Fatalf("valid write: %v", err)
	}

	st := waitStats(t, srv.HTTPAddr(), "udp drop counters", func(st statsDoc) bool {
		return st.Server.UDPOversized >= 1 && st.Server.UDPTruncated >= 1 && st.Server.Records >= 1
	})
	if st.Server.UDPOversized != 1 || st.Server.UDPTruncated != 1 {
		t.Errorf("drops = %d oversized / %d truncated, want 1/1", st.Server.UDPOversized, st.Server.UDPTruncated)
	}

	_, body := getBody(t, srv.HTTPAddr(), "/metrics")
	for _, want := range []string{
		`hkd_udp_dropped_total{reason="oversized"} 1`,
		`hkd_udp_dropped_total{reason="truncated"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// slowSummarizer delays every mutation, so a test can pile up the ingest
// queue on demand.
type slowSummarizer struct {
	heavykeeper.Summarizer
	delay time.Duration
}

func (s *slowSummarizer) AddBatch(keys [][]byte) {
	time.Sleep(s.delay)
	s.Summarizer.AddBatch(keys)
}

func (s *slowSummarizer) AddN(key []byte, n uint64) {
	time.Sleep(s.delay)
	s.Summarizer.AddN(key, n)
}

// TestDegradedEntryAndRecovery drives the server into overload with a
// deliberately slow summarizer and many concurrent senders, watches it
// enter degraded mode (healthz flips, shedding starts, entry counted),
// then stops the load and watches hysteresis bring it back to exact
// mode.
func TestDegradedEntryAndRecovery(t *testing.T) {
	srv, _ := startTestServer(t, func(c *Config) {
		c.Summarizer = &slowSummarizer{Summarizer: c.Summarizer, delay: 2 * time.Millisecond}
		c.MaxInflight = 1
		c.OverloadHighWater = 3
		c.OverloadLowWater = 1
		c.ShedKeepOneIn = 2
		c.RecoveryWindow = 100 * time.Millisecond
	})

	// Senders flood until torn down. The teardown is an RST (SetLinger 0),
	// discarding the many megabytes of frames the kernel buffered during
	// the flood — the test is about the overload episode, not about
	// patiently draining its backlog at the slow summarizer's pace.
	var senders sync.WaitGroup
	var mu sync.Mutex
	var conns []*net.TCPConn
	stopSenders := func() {
		mu.Lock()
		for _, c := range conns {
			c.SetLinger(0)
			c.Close()
		}
		conns = nil
		mu.Unlock()
		// Sever the server side too: each handler stops at its next frame
		// read instead of grinding through kernel-buffered backlog first.
		srv.mu.Lock()
		for c := range srv.conns {
			c.Close()
		}
		srv.mu.Unlock()
		senders.Wait()
	}
	defer stopSenders()
	for i := 0; i < 8; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			conn, err := net.Dial("tcp", srv.TCPAddr().String())
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn.(*net.TCPConn))
			mu.Unlock()
			frame, _ := wire.AppendFrame(nil, testKeys(20), nil)
			for {
				if _, err := conn.Write(frame); err != nil {
					return
				}
			}
		}()
	}

	waitStats(t, srv.HTTPAddr(), "degraded entry", func(st statsDoc) bool {
		return st.Server.DegradedEntries >= 1
	})
	// Degraded health is standard HTTP semantics: 503 with Retry-After,
	// body unchanged so humans still see which state they hit.
	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	healthBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while degraded = %d want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("/healthz while degraded missing Retry-After")
	}
	var health healthzResponse
	if err := json.Unmarshal(healthBody, &health); err != nil || health.Status != "degraded" || health.SchemaVersion != StatsSchemaVersion {
		t.Errorf("/healthz while degraded = %q (err %v)", healthBody, err)
	}
	if _, body := getBody(t, srv.HTTPAddr(), "/metrics"); !strings.Contains(body, "hkd_degraded 1") {
		t.Errorf("/metrics while degraded missing hkd_degraded 1")
	}
	// Give the shedder a few batches to sample while still overloaded.
	waitStats(t, srv.HTTPAddr(), "shed batches", func(st statsDoc) bool {
		return st.Server.ShedBatches >= 1
	})

	stopSenders()
	st := waitStats(t, srv.HTTPAddr(), "recovery", func(st statsDoc) bool {
		return !st.Server.Degraded && st.Server.DegradedExits >= 1
	})
	if st.Server.ShedRecords == 0 {
		t.Error("shed batches counted but no shed records")
	}
	if code, body := getBody(t, srv.HTTPAddr(), "/healthz"); code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz after recovery = %d %q", code, body)
	}
	// Post-recovery ingest is exact again: a fresh batch must land whole.
	before := st.Server.Records
	sendTCP(t, srv.TCPAddr(), testKeys(128), 128)
	waitStats(t, srv.HTTPAddr(), "post-recovery ingest", func(st statsDoc) bool {
		return st.Server.Records >= before+128
	})
}

// TestSnapshotGenerations: Snapshot writes retained, pruned generation
// files; LoadSnapshot restores the newest and walks past a corrupt
// newest generation to the next intact one.
func TestSnapshotGenerations(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "hkd.snap")
	srv, _ := startTestServer(t, func(c *Config) {
		c.SnapshotPath = snap
		c.SnapshotInterval = time.Hour
		c.SnapshotKeep = 2
	})

	sendTCP(t, srv.TCPAddr(), testKeys(1000), 100)
	waitRecords(t, srv.HTTPAddr(), 1000)
	stateA := srv.cfg.Summarizer.List()
	for i := 0; i < 3; i++ {
		if err := srv.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	sendTCP(t, srv.TCPAddr(), testKeys(5000), 100)
	waitRecords(t, srv.HTTPAddr(), 6000)
	stateB := srv.cfg.Summarizer.List()
	if err := srv.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}

	gens, err := (&genStore{base: snap}).generations()
	if err != nil {
		t.Fatalf("generations: %v", err)
	}
	if len(gens) != 2 {
		t.Fatalf("retention kept %d generations, want 2", len(gens))
	}
	if gens[0].seq <= gens[1].seq {
		t.Fatalf("generations not newest-first: %+v", gens)
	}

	assertRestores := func(want []heavykeeper.Flow) {
		t.Helper()
		restored, err := LoadSnapshot(snap)
		if err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		got := restored.List()
		if len(got) != len(want) {
			t.Fatalf("restored %d flows, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].ID, want[i].ID) || got[i].Count != want[i].Count {
				t.Fatalf("restored[%d] = %s/%d, want %s/%d",
					i, got[i].ID, got[i].Count, want[i].ID, want[i].Count)
			}
		}
	}
	// Newest generation intact: restore sees stateB.
	assertRestores(stateB)

	// Tear the newest generation mid-file: restore walks to the previous
	// one, which holds stateA.
	raw, err := os.ReadFile(gens[0].path)
	if err != nil {
		t.Fatalf("read newest gen: %v", err)
	}
	if err := os.WriteFile(gens[0].path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatalf("truncate newest gen: %v", err)
	}
	assertRestores(stateA)

	// Every generation corrupt and no legacy file: restore must fail
	// loudly rather than start empty.
	if err := os.WriteFile(gens[1].path, raw[:8], 0o644); err != nil {
		t.Fatalf("truncate older gen: %v", err)
	}
	if _, err := LoadSnapshot(snap); err == nil {
		t.Fatal("all-corrupt snapshot state restored silently")
	}
}
