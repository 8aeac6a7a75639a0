// Package client is the Go SDK for the hkd top-k telemetry daemon and
// the hkagg cluster aggregator: a typed HTTP query client (this file)
// and a resilient wire-protocol ingest client (Ingest) that batches
// arrivals into framed writes with reconnect, exponential backoff and
// resend accounting.
//
// # Quickstart
//
//	c, _ := client.New("127.0.0.1:8080")
//	flows, err := c.TopK(ctx, 10)
//
//	in, _ := client.Dial("tcp", "127.0.0.1:4774")
//	defer in.Close()
//	in.Add([]byte("flow-a"))
//	in.Flush()
//
// # Auth and tenancy
//
// Against an authenticated daemon, construct with WithToken — the HTTP
// client sends it as a bearer token and the ingest client opens every
// connection with a wire hello handshake. Tokens are scoped to one
// tenant; the server routes and isolates accordingly. WithTenant stamps
// ingest frames (and query requests) with an explicit tenant id, which
// must match the token's scope when both are set.
//
// # Errors
//
// API failures are *APIError values that errors.Is-match the sentinel
// families (ErrUnauthorized, ErrNotFound, ...); see errors.go.
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	heavykeeper "repro"
	"repro/internal/obs"
	"repro/wire"
)

// RequestIDHeader is the correlation header the SDK stamps on every
// request (X-Request-Id). The daemon echoes it on the response and
// access-logs it, so one logical operation is greppable across client
// and server logs. Use WithRequestID to pin an explicit ID; otherwise
// each request gets a fresh one.
const RequestIDHeader = obs.RequestIDHeader

// WithRequestID returns a context that makes the SDK stamp the given
// correlation ID instead of generating one — the hkagg collector uses
// it to carry one ID across its whole fan-out.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// Client queries the HTTP API of one hkd daemon or hkagg aggregator.
// It is safe for concurrent use.
type Client struct {
	base   string
	hc     *http.Client
	token  string
	tenant string
	log    *slog.Logger // component=client
}

// Option configures a Client.
type Option func(*options) error

type options struct {
	hc      *http.Client
	tlsConf *tls.Config
	caFile  string
	timeout time.Duration
	token   string
	tenant  string
	logger  *slog.Logger
}

// WithLogger attaches a structured logger; the client debug-logs every
// request with its request ID, status and duration (component=client).
func WithLogger(l *slog.Logger) Option {
	return func(o *options) error { o.logger = l; return nil }
}

// WithToken authenticates every request with the bearer token.
func WithToken(token string) Option {
	return func(o *options) error { o.token = token; return nil }
}

// WithTenant scopes queries to the named tenant (?tenant=...). Usually
// unnecessary with WithToken — the token already selects the tenant —
// but required to address a non-default tenant on an open server, or a
// specific tenant with the admin token.
func WithTenant(name string) Option {
	return func(o *options) error { o.tenant = name; return nil }
}

// WithHTTPClient substitutes the transport wholesale (custom timeouts,
// fault-injection round-trippers in tests, connection pools). It
// overrides WithTimeout and composes with WithTLSConfig/WithCACertFile
// only if the provided client's transport is left nil.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) error { o.hc = hc; return nil }
}

// WithTLSConfig dials the API over TLS with the given configuration and
// switches a scheme-less base address to https.
func WithTLSConfig(cfg *tls.Config) Option {
	return func(o *options) error { o.tlsConf = cfg; return nil }
}

// WithCACertFile trusts the PEM certificate(s) in path for the API's
// TLS handshake — the self-signed deployment shape (hkcert) — and
// switches a scheme-less base address to https.
func WithCACertFile(path string) Option {
	return func(o *options) error { o.caFile = path; return nil }
}

// WithTimeout bounds each request end to end (default 10s; 0 keeps the
// default, negative disables the bound).
func WithTimeout(d time.Duration) Option {
	return func(o *options) error { o.timeout = d; return nil }
}

// loadCACert builds a TLS config trusting the PEM roots in path.
func loadCACert(path string, base *tls.Config) (*tls.Config, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("client: read CA cert: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("client: no certificates found in %s", path)
	}
	cfg := &tls.Config{}
	if base != nil {
		cfg = base.Clone()
	}
	cfg.RootCAs = pool
	return cfg, nil
}

// New returns a Client for the API at base: a full URL
// ("https://host:port") or a bare "host:port", which gets http:// (or
// https:// when TLS options are present) prepended.
func New(base string, opts ...Option) (*Client, error) {
	o := options{timeout: 10 * time.Second}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	tlsConf := o.tlsConf
	if o.caFile != "" {
		var err error
		if tlsConf, err = loadCACert(o.caFile, o.tlsConf); err != nil {
			return nil, err
		}
	}
	if !strings.Contains(base, "://") {
		if tlsConf != nil {
			base = "https://" + base
		} else {
			base = "http://" + base
		}
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base address %q", base)
	}
	hc := o.hc
	if hc == nil {
		hc = &http.Client{}
		if o.timeout > 0 {
			hc.Timeout = o.timeout
		}
	}
	if tlsConf != nil && hc.Transport == nil {
		hc.Transport = &http.Transport{TLSClientConfig: tlsConf}
	}
	return &Client{
		base:   strings.TrimRight(u.String(), "/"),
		hc:     hc,
		token:  o.token,
		tenant: o.tenant,
		log:    obs.Component(o.logger, "client"),
	}, nil
}

// Base returns the resolved base URL the client targets.
func (c *Client) Base() string { return c.base }

// get performs one API GET; 2xx decodes into v (when non-nil), anything
// else becomes a typed *APIError.
func (c *Client) get(ctx context.Context, path string, query url.Values, v any) error {
	resp, err := c.do(ctx, http.MethodGet, path, query, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if v == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do issues one request with auth and tenant scoping applied, returning
// the response on 2xx and a typed error otherwise.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body io.Reader) (*http.Response, error) {
	if c.tenant != "" {
		if query == nil {
			query = url.Values{}
		}
		query.Set("tenant", c.tenant)
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := obs.RequestIDFrom(ctx)
	if id == "" {
		id = obs.NewRequestID()
	}
	req.Header.Set(obs.RequestIDHeader, id)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.log.Debug("request failed",
			"request_id", id, "method", method, "path", path, "err", err,
			"duration_us", time.Since(start).Microseconds())
		return nil, err
	}
	c.log.Debug("request",
		"request_id", id, "method", method, "path", path, "status", resp.StatusCode,
		"duration_us", time.Since(start).Microseconds())
	// 304 is a long-poll's "unchanged" answer (PollSnapshot), not a fault.
	if (resp.StatusCode < 200 || resp.StatusCode > 299) && resp.StatusCode != http.StatusNotModified {
		defer resp.Body.Close()
		return nil, apiErrorFrom(resp)
	}
	return resp, nil
}

// TopK returns the daemon's top-n flows in descending estimated count
// (n <= 0 asks for the full configured report).
func (c *Client) TopK(ctx context.Context, n int) ([]heavykeeper.Flow, error) {
	q := url.Values{}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	var doc struct {
		Flows []flowDoc `json:"flows"`
	}
	if err := c.get(ctx, "/topk", q, &doc); err != nil {
		return nil, err
	}
	return decodeFlows(doc.Flows)
}

// flowDoc is the wire shape of one flow: id hex-encoded.
type flowDoc struct {
	ID    string `json:"id"`
	Count uint64 `json:"count"`
}

func decodeFlows(docs []flowDoc) ([]heavykeeper.Flow, error) {
	flows := make([]heavykeeper.Flow, len(docs))
	for i, d := range docs {
		id, err := hex.DecodeString(d.ID)
		if err != nil {
			return nil, fmt.Errorf("client: flow id %q is not hex: %w", d.ID, err)
		}
		flows[i] = heavykeeper.Flow{ID: id, Count: d.Count}
	}
	return flows, nil
}

// GlobalTopK is the aggregator's /topk document: the folded global
// report plus the coverage annotation that distinguishes a complete
// answer from one leaning on stale data.
type GlobalTopK struct {
	Coverage float64            `json:"coverage"`
	Nodes    []json.RawMessage  `json:"nodes"`
	Flows    []heavykeeper.Flow `json:"-"`
}

// GlobalTopK queries an hkagg aggregator for the global top-n (n <= 0
// for the full report) along with its coverage fraction.
func (c *Client) GlobalTopK(ctx context.Context, n int) (*GlobalTopK, error) {
	q := url.Values{}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	var doc struct {
		Coverage float64           `json:"coverage"`
		Nodes    []json.RawMessage `json:"nodes"`
		Flows    []flowDoc         `json:"flows"`
	}
	if err := c.get(ctx, "/topk", q, &doc); err != nil {
		return nil, err
	}
	flows, err := decodeFlows(doc.Flows)
	if err != nil {
		return nil, err
	}
	return &GlobalTopK{Coverage: doc.Coverage, Nodes: doc.Nodes, Flows: flows}, nil
}

// Query returns the point estimate for one flow identifier.
func (c *Client) Query(ctx context.Context, key []byte) (uint64, error) {
	q := url.Values{"id": []string{hex.EncodeToString(key)}}
	var doc flowDoc
	if err := c.get(ctx, "/query", q, &doc); err != nil {
		return 0, err
	}
	return doc.Count, nil
}

// QueryString is Query for string identifiers.
func (c *Client) QueryString(ctx context.Context, key string) (uint64, error) {
	return c.Query(ctx, []byte(key))
}

// ServerCounters mirrors the daemon's /stats server block.
type ServerCounters struct {
	TCPFrames       uint64 `json:"tcp_frames"`
	UDPFrames       uint64 `json:"udp_frames"`
	Records         uint64 `json:"records"`
	TCPBytes        uint64 `json:"tcp_bytes"`
	TCPReads        uint64 `json:"tcp_reads"`
	UDPBytes        uint64 `json:"udp_bytes"`
	DecodeErrors    uint64 `json:"decode_errors"`
	TransportErrors uint64 `json:"transport_errors"`
	ConnsTotal      uint64 `json:"conns_total"`
	ConnsActive     int64  `json:"conns_active"`
	Degraded        bool   `json:"degraded"`
	ShedBatches     uint64 `json:"shed_batches"`
	ShedRecords     uint64 `json:"shed_records"`
	AuthFailures    uint64 `json:"auth_failures"`
	TenantsActive   int    `json:"tenants_active"`
	TenantEvictions uint64 `json:"tenant_evictions"`
	Snapshots       uint64 `json:"snapshots"`
}

// TenantStats is one tenant's audit line in /stats (admin or open
// servers only).
type TenantStats struct {
	Name        string `json:"name"`
	K           int    `json:"k"`
	MemoryBytes int    `json:"memory_bytes"`
	Frames      uint64 `json:"frames"`
	Records     uint64 `json:"records"`
}

// Stats is the daemon's /stats document. SchemaVersion lets the SDK
// evolve decoding against older and newer daemons; fields this struct
// does not model are preserved in Raw.
type Stats struct {
	SchemaVersion int               `json:"schema_version"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Tenant        string            `json:"tenant"`
	K             int               `json:"k"`
	MemoryBytes   int               `json:"memory_bytes"`
	Engine        heavykeeper.Stats `json:"engine"`
	Server        ServerCounters    `json:"server"`
	Tenants       []TenantStats     `json:"tenants,omitempty"`
	Raw           json.RawMessage   `json:"-"`
}

// Stats fetches and decodes /stats.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	resp, err := c.do(ctx, http.MethodGet, "/stats", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	st := &Stats{Raw: raw}
	if err := json.Unmarshal(raw, st); err != nil {
		return nil, fmt.Errorf("client: decoding /stats: %w", err)
	}
	return st, nil
}

// Config fetches the daemon's construction-parameter echo — enough to
// rebuild a twin summarizer (the hkbench verifier does).
func (c *Client) Config(ctx context.Context) (map[string]string, error) {
	info := map[string]string{}
	if err := c.get(ctx, "/config", nil, &info); err != nil {
		return nil, err
	}
	return info, nil
}

// Health is the /healthz document.
type Health struct {
	SchemaVersion int    `json:"schema_version"`
	Status        string `json:"status"`
	// OK is true when the endpoint answered 200.
	OK bool `json:"-"`
}

// Healthz probes liveness. A degraded daemon (503) is not an error —
// it is alive and answering — so the Health document distinguishes the
// states and err is reserved for transport failures and non-health
// statuses.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable {
		h := &Health{Status: "degraded"}
		json.Unmarshal([]byte(apiErr.Message), h)
		return h, nil
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	h := &Health{OK: true, Status: "ok"}
	if err := json.NewDecoder(resp.Body).Decode(h); err != nil && err != io.EOF {
		return nil, fmt.Errorf("client: decoding /healthz: %w", err)
	}
	return h, nil
}

// Snapshot fetches the daemon's CRC-checksummed snapshot envelope. With
// live, the daemon serializes current state on demand instead of
// serving its newest on-disk generation. seq is the generation sequence
// header ("" for live serves). The caller verifies the envelope
// (heavykeeper.VerifySnapshot) before trusting a byte, completing the
// end-to-end integrity check.
func (c *Client) Snapshot(ctx context.Context, live bool) (data []byte, seq string, err error) {
	p, err := c.PollSnapshot(ctx, SnapshotRequest{Live: live})
	if err != nil {
		return nil, "", err
	}
	return p.Data, p.Seq, nil
}

// SnapshotRequest selects what PollSnapshot asks GET /snapshot for.
type SnapshotRequest struct {
	// Live serializes current state instead of serving the newest
	// on-disk generation.
	Live bool
	// Report asks for the top-k report frame (package wire) instead of
	// the whole sketch.
	Report bool
	// After, when set, long-polls: the daemon answers once its state
	// token differs from After, or reports Unchanged after Wait. Pass
	// the Generation of the previous answer; leave it empty to fetch at
	// once.
	After string
	// Wait bounds a long-poll on the daemon; 0 leaves the daemon's
	// default (10s). Keep it inside the request's own deadline.
	Wait time.Duration
}

// SnapshotPoll is one GET /snapshot answer.
type SnapshotPoll struct {
	// Unchanged reports that the state token still equals After; Data
	// and Report are then empty.
	Unchanged bool
	// Generation is the answer's state token: pass it as After to wait
	// for the next change.
	Generation string
	// Seq is the on-disk generation served ("" for live state).
	Seq string
	// Waited is how long the daemon parked the long-poll before
	// answering: the part of the round trip spent waiting for a change.
	Waited time.Duration
	// Data is the raw body: a snapshot envelope, or a report frame.
	Data []byte
	// Report is the decoded, CRC-checked report frame when one was asked
	// for.
	Report *wire.Report
}

// PollSnapshot fetches the daemon's state as a snapshot envelope or a
// report frame, optionally long-polling for the next change: the
// collection call of the hkagg aggregator. A corrupt report frame is an
// error; an envelope in Data is the caller's to verify.
func (c *Client) PollSnapshot(ctx context.Context, req SnapshotRequest) (*SnapshotPoll, error) {
	q := url.Values{}
	if req.Live {
		q.Set("live", "1")
	}
	if req.Report {
		q.Set("report", "1")
	}
	if req.After != "" {
		q.Set("after", req.After)
		if req.Wait > 0 {
			q.Set("wait", req.Wait.String())
		}
	}
	resp, err := c.do(ctx, http.MethodGet, "/snapshot", q, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	p := &SnapshotPoll{
		Unchanged:  resp.StatusCode == http.StatusNotModified,
		Generation: resp.Header.Get("X-Snapshot-Generation"),
		Seq:        resp.Header.Get("X-Snapshot-Seq"),
	}
	if v := resp.Header.Get("X-Snapshot-Waited"); v != "" {
		// A malformed value leaves Waited zero: it only refines the
		// caller's latency accounting, never what was collected.
		p.Waited, _ = time.ParseDuration(v)
	}
	if p.Unchanged {
		return p, nil
	}
	if p.Data, err = io.ReadAll(resp.Body); err != nil {
		return nil, err
	}
	if req.Report {
		r, err := wire.DecodeReport(p.Data)
		if err != nil {
			return nil, fmt.Errorf("client: report from %s: %w", c.base, err)
		}
		p.Report = &r
	}
	return p, nil
}

// Reconfig is the hot-reconfiguration request for POST /config; on an
// authenticated daemon it requires the admin token. Zero-valued fields
// are no-ops, so one call can apply any subset.
type Reconfig struct {
	Tenant       string            `json:"tenant,omitempty"`
	GrowK        int               `json:"grow_k,omitempty"`
	RotateEpoch  bool              `json:"rotate_epoch,omitempty"`
	AddTokens    map[string]string `json:"add_tokens,omitempty"`
	RevokeTokens []string          `json:"revoke_tokens,omitempty"`
	EvictTenants []string          `json:"evict_tenants,omitempty"`
}

// ReconfigResult reports what the daemon applied.
type ReconfigResult struct {
	SchemaVersion int      `json:"schema_version"`
	Tenant        string   `json:"tenant,omitempty"`
	K             int      `json:"k,omitempty"`
	Rotated       bool     `json:"rotated,omitempty"`
	TokensAdded   int      `json:"tokens_added,omitempty"`
	TokensRevoked int      `json:"tokens_revoked,omitempty"`
	Evicted       []string `json:"evicted,omitempty"`
}

// Reconfigure applies a hot reconfiguration without restarting the
// daemon: grow k, rotate the epoch, rotate tenant tokens, evict
// tenants.
func (c *Client) Reconfigure(ctx context.Context, r Reconfig) (*ReconfigResult, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/config", nil, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &ReconfigResult{}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("client: decoding reconfig result: %w", err)
	}
	return out, nil
}

// WaitForRecords polls /stats until the daemon reports at least want
// ingested records, the context expires, or an auth/API error makes
// progress impossible. It is how senders that can outrun the daemon
// wait for the ingest queue to drain. A client scoped to a non-default
// tenant counts that tenant's own records (from its audit line), so two
// tenants draining concurrently never mistake each other's progress for
// their own.
func (c *Client) WaitForRecords(ctx context.Context, want uint64) error {
	for {
		st, err := c.Stats(ctx)
		switch {
		case err == nil && c.records(st) >= want:
			return nil
		case errors.Is(err, ErrUnauthorized) || errors.Is(err, ErrForbidden):
			return err // polling harder will not change the verdict
		}
		select {
		case <-ctx.Done():
			if err != nil {
				return fmt.Errorf("client: waiting for %d records: %w (last error: %v)", want, ctx.Err(), err)
			}
			return fmt.Errorf("client: waiting for %d records: %w", want, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// records extracts the drain counter WaitForRecords watches: the
// requesting tenant's own ingested records when the response is scoped
// to a non-default tenant and carries its audit line, the server-wide
// total otherwise (open single-tenant daemons, the admin token).
func (c *Client) records(st *Stats) uint64 {
	if st.Tenant != "" && st.Tenant != "default" {
		for _, ts := range st.Tenants {
			if ts.Name == st.Tenant {
				return ts.Records
			}
		}
	}
	return st.Server.Records
}
