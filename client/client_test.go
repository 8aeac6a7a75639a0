package client_test

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	heavykeeper "repro"
	"repro/client"
	"repro/server"
	"repro/wire"
)

// newSum builds the test summarizer shape shared by servers and twins.
func newSum(k int) (heavykeeper.Summarizer, error) {
	return heavykeeper.New(k, heavykeeper.WithConcurrency(),
		heavykeeper.WithSeed(42), heavykeeper.WithMemory(32<<10))
}

// startServer boots an hkd server on ephemeral loopback ports.
func startServer(t *testing.T, mutate ...func(*server.Config)) *server.Server {
	t.Helper()
	sum, err := newSum(20)
	if err != nil {
		t.Fatalf("newSum: %v", err)
	}
	cfg := server.Config{
		Summarizer:    sum,
		NewSummarizer: newSum,
		TCPAddr:       "127.0.0.1:0",
		HTTPAddr:      "127.0.0.1:0",
		Info:          map[string]string{"algo": "heavykeeper", "seed": "42", "mem_bytes": "32768"},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// keysFor builds n distinct keys under a prefix with a skewed repeat
// pattern, so top-k reports have a stable head.
func keysFor(prefix string, n int) [][]byte {
	var keys [][]byte
	for i := 0; i < n; i++ {
		// Key j appears roughly n/2^j times: heavy head, long tail.
		for j := 0; (1 << j) <= n; j++ {
			if i%(1<<j) == 0 {
				keys = append(keys, fmt.Appendf(nil, "%s-%03d", prefix, j))
			}
		}
	}
	return keys
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestSDKAgainstOpenServer is the quickstart path: ingest through the
// SDK, wait for the drain, and read every query surface back.
func TestSDKAgainstOpenServer(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)

	in, err := client.Dial("tcp", srv.TCPAddr().String(), client.IngestWithSeed(7))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	keys := keysFor("flow", 256)
	if err := in.SendBatch(keys); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if err := in.AddN([]byte("heavy"), 500); err != nil {
		t.Fatalf("AddN: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := in.Stats()
	want := uint64(len(keys) + 1)
	if st.Records != len(keys)+1 || st.Frames != 2 {
		t.Fatalf("ingest stats = %+v, want %d records in 2 frames", st, want)
	}

	c, err := client.New(srv.HTTPAddr().String())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.WaitForRecords(ctx, want); err != nil {
		t.Fatalf("WaitForRecords: %v", err)
	}

	// The daemon's report must match a twin fed the same arrivals.
	twin, _ := newSum(20)
	twin.AddBatch(keys)
	twin.AddN([]byte("heavy"), 500)
	flows, err := c.TopK(ctx, 0)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	wantFlows := twin.List()
	if len(flows) != len(wantFlows) {
		t.Fatalf("TopK = %d flows, twin has %d", len(flows), len(wantFlows))
	}
	for i := range flows {
		if !bytes.Equal(flows[i].ID, wantFlows[i].ID) || flows[i].Count != wantFlows[i].Count {
			t.Fatalf("TopK[%d] = %q/%d, twin %q/%d", i,
				flows[i].ID, flows[i].Count, wantFlows[i].ID, wantFlows[i].Count)
		}
	}

	if n, err := c.Query(ctx, []byte("heavy")); err != nil || n != twin.Query([]byte("heavy")) {
		t.Fatalf("Query(heavy) = %d, %v; twin %d", n, err, twin.Query([]byte("heavy")))
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.SchemaVersion != server.StatsSchemaVersion {
		t.Fatalf("Stats.SchemaVersion = %d, want %d", stats.SchemaVersion, server.StatsSchemaVersion)
	}
	if stats.Tenant != server.DefaultTenant || stats.K != 20 || stats.Server.Records != want {
		t.Fatalf("Stats = tenant %q k %d records %d", stats.Tenant, stats.K, stats.Server.Records)
	}

	info, err := c.Config(ctx)
	if err != nil || info["k"] != "20" || info["algo"] != "heavykeeper" {
		t.Fatalf("Config = %v, %v", info, err)
	}

	h, err := c.Healthz(ctx)
	if err != nil || !h.OK || h.Status != "ok" || h.SchemaVersion != server.StatsSchemaVersion {
		t.Fatalf("Healthz = %+v, %v", h, err)
	}

	snap, _, err := c.Snapshot(ctx, true)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := heavykeeper.VerifySnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatalf("VerifySnapshot: %v", err)
	}

	// The report form carries the same top-k as /topk, and a long-poll on
	// its generation comes back unchanged while nothing is ingested.
	p, err := c.PollSnapshot(ctx, client.SnapshotRequest{Live: true, Report: true})
	if err != nil || p.Report == nil || p.Generation == "" {
		t.Fatalf("PollSnapshot(report) = %+v, %v", p, err)
	}
	if p.Report.K != 20 || len(p.Report.Flows) != len(flows) || !bytes.Equal(p.Report.Flows[0].ID, flows[0].ID) {
		t.Fatalf("report = k %d, %d flows; /topk has %d", p.Report.K, len(p.Report.Flows), len(flows))
	}
	idle, err := c.PollSnapshot(ctx, client.SnapshotRequest{Live: true, Report: true, After: p.Generation, Wait: 10 * time.Millisecond})
	if err != nil || !idle.Unchanged || idle.Generation != p.Generation || idle.Data != nil || idle.Waited < 10*time.Millisecond {
		t.Fatalf("idle PollSnapshot = %+v, %v", idle, err)
	}
}

// TestTenantIsolation is the conformance suite for the multi-tenant
// contract: two tenants ingesting disjoint keys concurrently never
// observe each other's flows in /topk, /query, /stats or snapshots.
func TestTenantIsolation(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)

	send := func(tenant, prefix string) uint64 {
		in, err := client.Dial("tcp", srv.TCPAddr().String(),
			client.IngestWithTenant(tenant), client.IngestWithSeed(11))
		if err != nil {
			t.Errorf("Dial(%s): %v", tenant, err)
			return 0
		}
		keys := keysFor(prefix, 512)
		if err := in.SendBatch(keys); err != nil {
			t.Errorf("SendBatch(%s): %v", tenant, err)
		}
		if err := in.Close(); err != nil {
			t.Errorf("Close(%s): %v", tenant, err)
		}
		return uint64(len(keys))
	}
	var wg sync.WaitGroup
	var sentA, sentB uint64
	wg.Add(2)
	go func() { defer wg.Done(); sentA = send("tenant-a", "alpha") }()
	go func() { defer wg.Done(); sentB = send("tenant-b", "beta") }()
	wg.Wait()
	if sentA == 0 || sentB == 0 {
		t.Fatal("sends failed")
	}

	base := srv.HTTPAddr().String()
	ca, _ := client.New(base, client.WithTenant("tenant-a"))
	cb, _ := client.New(base, client.WithTenant("tenant-b"))
	cAll, _ := client.New(base)
	if err := cAll.WaitForRecords(ctx, sentA+sentB); err != nil {
		t.Fatalf("WaitForRecords: %v", err)
	}

	checkOnly := func(name string, c *client.Client, wantPrefix, otherPrefix string) {
		flows, err := c.TopK(ctx, 0)
		if err != nil {
			t.Fatalf("%s TopK: %v", name, err)
		}
		if len(flows) == 0 {
			t.Fatalf("%s TopK empty", name)
		}
		for _, f := range flows {
			if !bytes.HasPrefix(f.ID, []byte(wantPrefix)) {
				t.Fatalf("%s TopK leaked flow %q", name, f.ID)
			}
		}
		// Point queries across the boundary estimate zero.
		if n, err := c.Query(ctx, []byte(otherPrefix+"-000")); err != nil || n != 0 {
			t.Fatalf("%s Query(%s-000) = %d, %v; want 0", name, otherPrefix, n, err)
		}
		// Snapshots are tenant-scoped too.
		snap, _, err := c.Snapshot(ctx, true)
		if err != nil {
			t.Fatalf("%s Snapshot: %v", name, err)
		}
		sum, err := heavykeeper.ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s ReadSnapshot: %v", name, err)
		}
		for _, f := range sum.List() {
			if !bytes.HasPrefix(f.ID, []byte(wantPrefix)) {
				t.Fatalf("%s snapshot leaked flow %q", name, f.ID)
			}
		}
	}
	checkOnly("tenant-a", ca, "alpha", "beta")
	checkOnly("tenant-b", cb, "beta", "alpha")

	// The default tenant saw nothing.
	flows, err := cAll.TopK(ctx, 0)
	if err != nil {
		t.Fatalf("default TopK: %v", err)
	}
	if len(flows) != 0 {
		t.Fatalf("default tenant observed %d flows, want 0", len(flows))
	}

	// The audit roster accounts for both tenants' frames and records.
	stats, err := cAll.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	got := map[string]client.TenantStats{}
	for _, ts := range stats.Tenants {
		got[ts.Name] = ts
	}
	if got["tenant-a"].Records != sentA || got["tenant-b"].Records != sentB {
		t.Fatalf("tenant audit = %+v, want %d/%d records", stats.Tenants, sentA, sentB)
	}
	if got["tenant-a"].Frames == 0 || got["tenant-b"].Frames == 0 {
		t.Fatalf("tenant audit missing frames: %+v", stats.Tenants)
	}
}

// writeTestCert generates a self-signed localhost certificate, the
// deployment shape cmd/hkcert produces.
func writeTestCert(t *testing.T) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("generate key: %v", err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "hkd-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1)},
		DNSNames:              []string{"localhost"},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatalf("create cert: %v", err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatalf("marshal key: %v", err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// TestTLSAuthEndToEnd is the secure serving path: TLS on both
// listeners, tenant tokens on ingest and query, wrong tokens rejected
// with typed errors, audit counters accounting every frame.
func TestTLSAuthEndToEnd(t *testing.T) {
	certFile, keyFile := writeTestCert(t)
	srv := startServer(t, func(cfg *server.Config) {
		cfg.TLSCertFile = certFile
		cfg.TLSKeyFile = keyFile
		cfg.Tokens = map[string]string{
			"token-a": "tenant-a",
			"token-b": "tenant-b",
		}
		cfg.AdminToken = "admin-token"
	})
	if !srv.AuthRequired() {
		t.Fatal("server should require auth")
	}
	ctx := ctxT(t)

	ingest := func(token, prefix string) uint64 {
		in, err := client.Dial("tcp", srv.TCPAddr().String(),
			client.IngestWithToken(token),
			client.IngestWithCACertFile(certFile),
			client.IngestWithSeed(3),
			client.IngestWithMaxRetries(1))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		keys := keysFor(prefix, 128)
		if err := in.SendBatch(keys); err != nil {
			t.Fatalf("SendBatch(%s): %v", token, err)
		}
		if err := in.Close(); err != nil {
			t.Fatalf("Close(%s): %v", token, err)
		}
		return uint64(len(keys))
	}
	sentA := ingest("token-a", "alpha")
	sentB := ingest("token-b", "beta")

	base := srv.HTTPAddr().String()
	ca, err := client.New(base, client.WithToken("token-a"), client.WithCACertFile(certFile))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	admin, _ := client.New(base, client.WithToken("admin-token"), client.WithCACertFile(certFile))
	if err := admin.WaitForRecords(ctx, sentA+sentB); err != nil {
		t.Fatalf("WaitForRecords: %v", err)
	}

	// Token A sees only tenant A's flows, without naming the tenant.
	flows, err := ca.TopK(ctx, 0)
	if err != nil {
		t.Fatalf("TopK(a): %v", err)
	}
	for _, f := range flows {
		if !bytes.HasPrefix(f.ID, []byte("alpha")) {
			t.Fatalf("token-a observed flow %q", f.ID)
		}
	}

	// Typed rejections: no token, unknown token, cross-tenant scope.
	noAuth, _ := client.New(base, client.WithCACertFile(certFile))
	if _, err := noAuth.TopK(ctx, 0); !errors.Is(err, client.ErrUnauthorized) {
		t.Fatalf("no-token TopK err = %v, want ErrUnauthorized", err)
	}
	bad, _ := client.New(base, client.WithToken("revoked"), client.WithCACertFile(certFile))
	if _, err := bad.TopK(ctx, 0); !errors.Is(err, client.ErrUnauthorized) {
		t.Fatalf("bad-token TopK err = %v, want ErrUnauthorized", err)
	}
	cross, _ := client.New(base, client.WithToken("token-a"),
		client.WithTenant("tenant-b"), client.WithCACertFile(certFile))
	if _, err := cross.TopK(ctx, 0); !errors.Is(err, client.ErrForbidden) {
		t.Fatalf("cross-tenant TopK err = %v, want ErrForbidden", err)
	}
	if _, err := ca.Reconfigure(ctx, client.Reconfig{GrowK: 40}); !errors.Is(err, client.ErrForbidden) {
		t.Fatalf("tenant-token Reconfigure err = %v, want ErrForbidden", err)
	}

	// A wire connection without a hello (or with a bad token) is closed
	// before any frame ingests.
	badIn, err := client.Dial("tcp", srv.TCPAddr().String(),
		client.IngestWithToken("revoked"),
		client.IngestWithCACertFile(certFile),
		client.IngestWithSeed(5),
		client.IngestWithMaxRetries(1))
	if err != nil {
		t.Fatalf("Dial(bad): %v", err)
	}
	badIn.SendBatch(keysFor("gamma", 64)) // may not error: writes race the server-side close
	badIn.Close()

	// The audit counters account for every authenticated frame and only
	// those; the rejected connection contributed auth failures instead.
	stats, err := admin.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	got := map[string]client.TenantStats{}
	for _, ts := range stats.Tenants {
		got[ts.Name] = ts
	}
	if got["tenant-a"].Records != sentA || got["tenant-b"].Records != sentB {
		t.Fatalf("tenant audit = %+v, want %d/%d", stats.Tenants, sentA, sentB)
	}
	if stats.Server.Records != sentA+sentB {
		t.Fatalf("server records = %d, want %d (gamma frames must not ingest)",
			stats.Server.Records, sentA+sentB)
	}
	if stats.Server.AuthFailures == 0 {
		t.Fatal("expected auth failures from the rejected connection and bad tokens")
	}

	// Hot rotation: revoke token-a, grant token-c, through the SDK.
	res, err := admin.Reconfigure(ctx, client.Reconfig{
		AddTokens:    map[string]string{"token-c": "tenant-a"},
		RevokeTokens: []string{"token-a"},
	})
	if err != nil || res.TokensAdded != 1 || res.TokensRevoked != 1 {
		t.Fatalf("Reconfigure = %+v, %v", res, err)
	}
	if _, err := ca.TopK(ctx, 0); !errors.Is(err, client.ErrUnauthorized) {
		t.Fatalf("revoked token err = %v, want ErrUnauthorized", err)
	}
	cc, _ := client.New(base, client.WithToken("token-c"), client.WithCACertFile(certFile))
	if _, err := cc.TopK(ctx, 0); err != nil {
		t.Fatalf("rotated token TopK: %v", err)
	}
}

// TestReconfigureGrowK grows the default tenant's report size through
// the SDK and checks the carried-over estimates.
func TestReconfigureGrowK(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)
	c, _ := client.New(srv.HTTPAddr().String())

	in, err := client.Dial("tcp", srv.TCPAddr().String(), client.IngestWithSeed(13))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := in.AddN([]byte("heavy"), 1000); err != nil {
		t.Fatalf("AddN: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.WaitForRecords(ctx, 1); err != nil {
		t.Fatalf("WaitForRecords: %v", err)
	}

	res, err := c.Reconfigure(ctx, client.Reconfig{GrowK: 64})
	if err != nil || res.K != 64 {
		t.Fatalf("Reconfigure = %+v, %v", res, err)
	}
	info, err := c.Config(ctx)
	if err != nil || info["k"] != "64" {
		t.Fatalf("Config after grow = %v, %v", info, err)
	}
	if n, err := c.Query(ctx, []byte("heavy")); err != nil || n != 1000 {
		t.Fatalf("Query after grow = %d, %v; want 1000", n, err)
	}
	// Shrinking or matching k is rejected as a bad request.
	if _, err := c.Reconfigure(ctx, client.Reconfig{GrowK: 10}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("shrink err = %v, want ErrBadRequest", err)
	}
	// Unknown tenants are not admitted by queries.
	ghost, _ := client.New(srv.HTTPAddr().String(), client.WithTenant("never-ingested"))
	if _, err := ghost.TopK(ctx, 0); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("unknown tenant err = %v, want ErrNotFound", err)
	}
}

// TestIngestReconnect proves the resilient sender survives a severed
// connection: the frame that failed is replayed on a fresh connection
// and the resend is accounted.
func TestIngestReconnect(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)

	// A local proxy between SDK and daemon whose first connection is
	// severed after one frame, forcing the sender through its
	// reconnect+replay path against a live backend.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", srv.TCPAddr().String())
			if err != nil {
				conn.Close()
				return
			}
			go func(i int, conn, back net.Conn) {
				defer conn.Close()
				defer back.Close()
				if i == 0 {
					// First connection: pass one read through, then sever.
					buf := make([]byte, 4<<10)
					n, _ := conn.Read(buf)
					back.Write(buf[:n])
					time.Sleep(10 * time.Millisecond)
					return
				}
				buf := make([]byte, 32<<10)
				for {
					n, err := conn.Read(buf)
					if n > 0 {
						back.Write(buf[:n])
					}
					if err != nil {
						return
					}
				}
			}(i, conn, back)
		}
	}()

	in, err := client.Dial("tcp", ln.Addr().String(),
		client.IngestWithSeed(17),
		client.IngestWithIOTimeout(time.Second),
		client.IngestWithMaxRetries(5))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	keys := [][]byte{[]byte("r-1"), []byte("r-2")}
	deadline := time.Now().Add(20 * time.Second)
	for in.Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sender never reconnected; stats %+v", in.Stats())
		}
		if err := in.SendBatch(keys); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	}
	st := in.Stats()
	if st.ResentFrames == 0 || st.ResentRecords == 0 {
		t.Fatalf("reconnect without resend accounting: %+v", st)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every frame the sender counted as delivered must eventually land
	// (resends may double-count, so daemon records >= sender records is
	// the only honest bound).
	c, _ := client.New(srv.HTTPAddr().String())
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Server.Records == 0 {
		t.Fatal("no records ingested despite successful sends")
	}
}

// TestIngestBuffering covers the Add/AddN buffered path: frames flush
// at the batch size and on Close, and weights backfill correctly.
func TestIngestBuffering(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)
	in, err := client.Dial("tcp", srv.TCPAddr().String(),
		client.IngestWithBatchSize(4), client.IngestWithSeed(19))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := in.AddString("buf"); err != nil {
			t.Fatalf("AddString: %v", err)
		}
	}
	if err := in.AddN([]byte("buf"), 10); err != nil { // forces the weighted path
		t.Fatalf("AddN: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c, _ := client.New(srv.HTTPAddr().String())
	if err := c.WaitForRecords(ctx, 6); err != nil {
		t.Fatalf("WaitForRecords: %v", err)
	}
	if n, err := c.QueryString(ctx, "buf"); err != nil || n != 15 {
		t.Fatalf("Query(buf) = %d, %v; want 15", n, err)
	}
}

// TestWireV1Compat pins backward compatibility: a hand-rolled v1 frame
// (no SDK, no tenant) still ingests into the default tenant.
func TestWireV1Compat(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, [][]byte{[]byte("v1-flow")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	c, _ := client.New(srv.HTTPAddr().String())
	if err := c.WaitForRecords(ctx, 1); err != nil {
		t.Fatalf("WaitForRecords: %v", err)
	}
	if n, err := c.QueryString(ctx, "v1-flow"); err != nil || n != 1 {
		t.Fatalf("Query(v1-flow) = %d, %v; want 1", n, err)
	}
}

// TestRequestIDPropagation pins the tracing contract: the SDK stamps an
// X-Request-Id on every request (honoring one pinned via WithRequestID),
// and the server echoes it back on the response.
func TestRequestIDPropagation(t *testing.T) {
	srv := startServer(t)
	ctx := ctxT(t)
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	c, err := client.New(srv.HTTPAddr().String(), client.WithLogger(logger))
	if err != nil {
		t.Fatal(err)
	}

	// Auto-generated ID: the server must echo a non-empty header.
	resp, err := c.Healthz(ctx)
	if err != nil || resp.Status != "ok" {
		t.Fatalf("Healthz = %+v, %v", resp, err)
	}
	logged := buf.String()
	if !strings.Contains(logged, "request_id=") || !strings.Contains(logged, "component=client") {
		t.Fatalf("client debug log missing request_id/component: %q", logged)
	}

	// Pinned ID: WithRequestID carries through to the wire and the echo.
	const pinned = "cafebabe00000001"
	hc := srv.HTTPAddr().String()
	req, err := http.NewRequestWithContext(client.WithRequestID(ctx, pinned),
		http.MethodGet, "http://"+hc+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(client.RequestIDHeader, pinned)
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if got := raw.Header.Get(client.RequestIDHeader); got != pinned {
		t.Fatalf("server echoed request id %q, want %q", got, pinned)
	}

	// And through the SDK path: the pinned ID shows up in the client log.
	buf.Reset()
	if _, err := c.Stats(client.WithRequestID(ctx, pinned)); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !strings.Contains(buf.String(), "request_id="+pinned) {
		t.Fatalf("client log missing pinned request id: %q", buf.String())
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}
