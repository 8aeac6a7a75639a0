package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/wire"
)

// gatedSummarizer holds its first AddBatch until release is closed, so a
// test can keep a connection handler inside one frame.
type gatedSummarizer struct {
	heavykeeper.Summarizer
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedSummarizer) AddBatch(keys [][]byte) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	g.Summarizer.AddBatch(keys)
}

// preloadListener hands out connections whose reads first drain stream,
// then the socket: a peer whose frames are all queued before the handler
// makes its first read.
type preloadListener struct {
	net.Listener
	stream []byte
}

func (l preloadListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &preloadConn{Conn: c, r: io.MultiReader(bytes.NewReader(l.stream), c)}, nil
}

type preloadConn struct {
	net.Conn
	r io.Reader
}

func (c *preloadConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestSeveredConnStopsAtFrameBoundary: a connection the server severs
// while its handler is inside one frame, with thousands more frames
// already read ahead, stops at the frame boundary. It applies none of the
// buffered frames, counts one transport error, and its handler exits.
// Both ways the server severs are covered: closing the tracked conn (what
// TestDegradedEntryAndRecovery does) and Shutdown's force-close after the
// grace expires.
func TestSeveredConnStopsAtFrameBoundary(t *testing.T) {
	for _, how := range []string{"close", "shutdown"} {
		t.Run(how, func(t *testing.T) { severRun(t, how == "shutdown") })
	}
}

func severRun(t *testing.T, viaShutdown bool) {
	const frames = 10000
	var stream []byte
	var err error
	for i := 0; i < frames; i++ {
		if stream, err = wire.AppendFrame(stream, [][]byte{{byte(i)}}, nil); err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	frameLen := len(stream) / frames
	gate := &gatedSummarizer{
		Summarizer: heavykeeper.MustNew(10, heavykeeper.WithConcurrency(), heavykeeper.WithMemory(16<<10)),
		entered:    make(chan struct{}),
		release:    make(chan struct{}),
	}
	srv, err := New(Config{Summarizer: gate, TCPAddr: "127.0.0.1:0", DrainGrace: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.tcpListen = func(addr string) (net.Listener, error) {
		ln, err := net.Listen("tcp", addr)
		return preloadListener{Listener: ln, stream: stream}, err
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	released := false
	t.Cleanup(func() {
		if !released {
			close(gate.release)
		}
		srv.Shutdown(context.Background())
	})
	peer, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer peer.Close() // the peer stays open: no EOF ends the handler

	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never applied the first frame")
	}
	if buffered := int(srv.ctr.tcpBytes.Load())/frameLen - 1; buffered < 1000 {
		t.Fatalf("only %d frames read ahead behind the held one; the test needs thousands", buffered)
	}

	shutdownErr := make(chan error, 1)
	if viaShutdown {
		// The grace expires while the handler is still held, so Shutdown
		// force-closes the connection.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		go func() { shutdownErr <- srv.Shutdown(ctx) }()
		waitFor(t, "force-close", func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			for c := range srv.conns {
				if c.severed.Load() {
					return true
				}
			}
			return false
		})
	} else {
		srv.mu.Lock()
		for c := range srv.conns {
			c.Close()
		}
		srv.mu.Unlock()
		shutdownErr <- nil
	}
	close(gate.release)
	released = true
	waitFor(t, "handler exit", func() bool { return srv.ctr.connsActive.Load() == 0 })
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if got := srv.ctr.tcpFrames.Load(); got != 1 {
		t.Errorf("applied %d frames after the sever, want only the one in flight", got)
	}
	if got := srv.ctr.records.Load(); got != 1 {
		t.Errorf("records = %d, want 1", got)
	}
	if got := gate.Stats().Packets; got != 1 {
		t.Errorf("summarizer saw %d packets, want 1", got)
	}
	if got := srv.ctr.transportErrors.Load(); got != 1 {
		t.Errorf("transport errors = %d, want 1 for the severed connection", got)
	}
	if got := srv.ctr.decodeErrors.Load(); got != 0 {
		t.Errorf("decode errors = %d, want 0", got)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownReturnsNil: starting and stopping a server with all three
// listeners succeeds every time. The HTTP listener used to be closed
// twice, by closeListeners and again by http.Server.Shutdown, which then
// failed with "use of closed network connection" whenever Serve had not
// returned yet.
func TestShutdownReturnsNil(t *testing.T) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 200; i++ {
		srv, err := New(Config{
			Summarizer: heavykeeper.MustNew(10, heavykeeper.WithConcurrency(), heavykeeper.WithMemory(16<<10)),
			TCPAddr:    "127.0.0.1:0",
			UDPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
		})
		if err != nil {
			t.Fatalf("run %d: New: %v", i, err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("run %d: Start: %v", i, err)
		}
		// Serve must be in its accept loop; before it starts, Shutdown
		// never sees the listener at all.
		resp, err := client.Get("http://" + srv.HTTPAddr().String() + "/healthz")
		if err != nil {
			t.Fatalf("run %d: GET /healthz: %v", i, err)
		}
		resp.Body.Close()
		// Every tenth run parks a long-poll first: Shutdown must answer it
		// at once rather than wait out its minute.
		var polled chan error
		if i%10 == 0 {
			polled = make(chan error, 1)
			g := srv.reg.def.gen.load()
			go func() {
				resp, err := client.Get(fmt.Sprintf("http://%s/snapshot?live=1&wait=1m&after=%d", srv.HTTPAddr(), g))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusNotModified {
						err = fmt.Errorf("parked poll answered %d, want 304", resp.StatusCode)
					}
				}
				polled <- err
			}()
			for srv.reg.def.gen.waiters.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		start := time.Now()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("run %d: Shutdown: %v", i, err)
		}
		if polled != nil {
			if err := <-polled; err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("run %d: Shutdown with a parked long-poll took %v", i, d)
			}
		}
	}
}
