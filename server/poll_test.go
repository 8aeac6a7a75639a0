package server

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/wire"
)

// TestSnapshotLongPoll: ?after=G parks while the state token equals G,
// answers 304 after ?wait, and answers at once with the new state once
// an ingest batch advances the token.
func TestSnapshotLongPoll(t *testing.T) {
	srv, _ := startTestServer(t)
	resp, _ := getSnapshot(t, srv, "?live=1&report=1")
	g := resp.Header.Get(generationHeader)
	if resp.StatusCode != http.StatusOK || g == "" {
		t.Fatalf("first poll = %d, generation %q", resp.StatusCode, g)
	}

	start := time.Now()
	resp, body := getSnapshot(t, srv, "?live=1&report=1&wait=50ms&after="+g)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("idle poll = %d with %d bytes, want 304 and no body", resp.StatusCode, len(body))
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("idle poll answered after %v, before its 50ms wait", d)
	}
	if got := resp.Header.Get(generationHeader); got != g {
		t.Errorf("304 generation %q, want %q", got, g)
	}
	if n := srv.ctr.snapshotUnchanged.Load(); n != 1 {
		t.Errorf("hkd_snapshot_unchanged_total = %d after one 304, want 1", n)
	}

	// A batch sent while the poll is parked wakes it.
	frame, _ := wire.AppendFrame(nil, [][]byte{[]byte("woken")}, nil)
	go func() {
		time.Sleep(20 * time.Millisecond)
		if conn, err := net.Dial("tcp", srv.TCPAddr().String()); err == nil {
			conn.Write(frame)
			conn.Close()
		}
	}()
	start = time.Now()
	resp, body = getSnapshot(t, srv, "?live=1&report=1&wait=10s&after="+g)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("woken poll = %d: %s", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("poll took %v to see the batch", d)
	}
	rep, err := wire.DecodeReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if strconv.FormatUint(rep.Generation, 10) != resp.Header.Get(generationHeader) || resp.Header.Get(generationHeader) == g {
		t.Errorf("report generation %d, header %q, previous %q", rep.Generation, resp.Header.Get(generationHeader), g)
	}
	if rep.K != 20 || len(rep.Flows) != 1 || string(rep.Flows[0].ID) != "woken" || rep.Flows[0].Count != 1 {
		t.Errorf("report = %+v", rep)
	}

	// "Differs", not "greater": a token from another process lifetime
	// answers at once.
	resp, _ = getSnapshot(t, srv, "?live=1&report=1&wait=10s&after=1")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("poll with a foreign token = %d, want 200 at once", resp.StatusCode)
	}

	for _, q := range []string{"?after=x", "?after=1&wait=-1s", "?after=1&wait=soon"} {
		if resp, _ := getSnapshot(t, srv, q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /snapshot%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSnapshotLongPollReconfig: grow_k and rotate_epoch advance the
// generation like ingest does.
func TestSnapshotLongPollReconfig(t *testing.T) {
	srv, _ := startTestServer(t, func(c *Config) {
		c.Summarizer = heavykeeper.MustNewWindow(10, 1000, heavykeeper.WithSeed(1))
		c.NewSummarizer = func(k int) (heavykeeper.Summarizer, error) {
			return heavykeeper.NewWindow(k, 1000, heavykeeper.WithSeed(1))
		}
	})
	for _, body := range []string{`{"rotate_epoch": true}`, `{"grow_k": 30}`} {
		resp, _ := getSnapshot(t, srv, "?report=1")
		g := resp.Header.Get(generationHeader)
		post, err := http.Post("http://"+srv.HTTPAddr().String()+"/config", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		post.Body.Close()
		if post.StatusCode != http.StatusOK {
			t.Fatalf("POST /config %s = %d", body, post.StatusCode)
		}
		if resp, _ := getSnapshot(t, srv, "?report=1&wait=1ms&after="+g); resp.StatusCode != http.StatusOK {
			t.Errorf("after %s: poll = %d, want 200", body, resp.StatusCode)
		}
	}
}

// TestSnapshotLongPollGeneration: without ?live the token is the newest
// written generation's seq, so a poll waits for the next snapshot write,
// not for ingest.
func TestSnapshotLongPollGeneration(t *testing.T) {
	srv, _ := startTestServer(t, func(c *Config) {
		c.SnapshotPath = filepath.Join(t.TempDir(), "snap")
	})
	sendTCP(t, srv.TCPAddr(), testKeys(64), 64)
	waitRecords(t, srv.HTTPAddr(), 64)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	resp, body := getSnapshot(t, srv, "?report=1")
	seq := resp.Header.Get("X-Snapshot-Seq")
	if resp.Header.Get(generationHeader) != seq || resp.Header.Get("X-Snapshot-Source") != "generation" {
		t.Fatalf("disk report: generation %q, seq %q, source %q",
			resp.Header.Get(generationHeader), seq, resp.Header.Get("X-Snapshot-Source"))
	}
	rep, err := wire.DecodeReport(body)
	if err != nil || len(rep.Flows) == 0 {
		t.Fatalf("disk report %+v, %v", rep, err)
	}

	sendTCP(t, srv.TCPAddr(), testKeys(64), 64)
	waitRecords(t, srv.HTTPAddr(), 128)
	if resp, _ := getSnapshot(t, srv, "?report=1&wait=20ms&after="+seq); resp.StatusCode != http.StatusNotModified {
		t.Errorf("ingest without a write: poll = %d, want 304", resp.StatusCode)
	}
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	resp, _ = getSnapshot(t, srv, "?wait=20ms&after="+seq)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Snapshot-Seq") == seq {
		t.Errorf("after a write: poll = %d, seq %q (was %s)", resp.StatusCode, resp.Header.Get("X-Snapshot-Seq"), seq)
	}
}

// TestGenCounterWait: a wait returns at the bound with the unchanged
// value, on an advance with the new one, and at once when a done channel
// closes.
func TestGenCounterWait(t *testing.T) {
	g := newGenCounter(7)
	if v := g.wait(7, time.Millisecond, nil, nil); v != 7 {
		t.Errorf("bound: %d", v)
	}
	if v := g.wait(6, time.Hour, nil, nil); v != 7 {
		t.Errorf("already differs: %d", v)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		g.advance()
	}()
	if v := g.wait(7, time.Hour, nil, nil); v != 8 {
		t.Errorf("advance: %d", v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v := g.wait(8, time.Hour, nil, ctx.Done()); v != 8 {
		t.Errorf("done: %d", v)
	}
	if n := g.waiters.Load(); n != 0 {
		t.Errorf("%d waiters left", n)
	}
}
