// Package server implements hkd, the network-facing top-k telemetry
// daemon, as an embeddable component: TCP and UDP ingest listeners
// speaking the wire package's framed binary protocol, an HTTP JSON query
// API with a Prometheus-text /metrics endpoint, and periodic plus
// on-shutdown snapshotting through the heavykeeper package's public
// persistence surface.
//
// The ingest path is the paper's measurement-point deployment shape:
// collectors batch flow arrivals into frames, the daemon decodes each
// frame into the exact [][]byte shape Summarizer.AddBatch wants (keys
// aliasing the connection's reusable frame buffer — the ingest loop
// allocates only when a new flow is admitted), and queries are answered
// from the live structure without stopping ingest. The Summarizer must
// therefore be safe for concurrent use: a Concurrent, Sharded or Window
// frontend, not a bare TopK.
//
// # Overload resilience
//
// The server survives hostile load the way the sketch survives hostile
// traffic: by degrading gracefully instead of falling over.
//
//   - Admission control: MaxConns caps open stream connections (excess
//     accepts are counted and closed), IdleTimeout evicts silent peers,
//     and MaxInflight bounds concurrently-executing summarizer batch
//     calls — everything past the bound queues, and the queue depth is
//     the overload signal.
//
//   - Graceful degradation: when the ingest queue stays past its high
//     watermark (or the heap passes MemHighWater), the server enters
//     degraded mode and sheds load by probabilistic batch sampling —
//     keep 1 of every ShedKeepOneIn batches and compensate by scaling
//     the kept records' weights, so counts stay unbiased in expectation
//     while sketch-side work drops. This is the same contract as the
//     paper's count-with-exponential-decay: bounded resources, graceful
//     accuracy loss under pressure. Recovery has hysteresis: the queue
//     must stay at the low watermark for RecoveryWindow before the
//     server re-enters exact mode.
//
//   - Crash safety: snapshots are CRC-checksummed (heavykeeper
//     WriteSnapshot) generation files — keep-last-N, fsync'd, renamed
//     into place, directory-synced — and restore walks generations
//     newest to oldest past corrupt or torn files.
package server

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	heavykeeper "repro"
	"repro/internal/obs"
	"repro/wire"
)

// Config configures a Server. Empty listen addresses disable their
// listener; at least one of TCP/UDP/HTTP must be set. The zero value of
// every limit field selects a production-safe default; see each field.
type Config struct {
	// Summarizer receives every decoded arrival. It must be safe for
	// concurrent use (Concurrent, Sharded, Window). Required.
	Summarizer heavykeeper.Summarizer
	// TCPAddr is the stream-ingest listen address (e.g. ":4774" or
	// "127.0.0.1:0" for an ephemeral port).
	TCPAddr string
	// UDPAddr is the datagram-ingest listen address (one frame per
	// datagram).
	UDPAddr string
	// HTTPAddr is the query/metrics API listen address.
	HTTPAddr string

	// MaxConns caps concurrently-open stream-ingest connections; accepts
	// past the cap are counted (hkd_connections_rejected_total) and
	// closed. 0 selects the default (256); negative means unlimited.
	MaxConns int
	// IdleTimeout evicts a stream connection that delivers no complete
	// frame for this long, so stalled or silent peers cannot pin
	// connection slots. 0 disables idle eviction.
	IdleTimeout time.Duration
	// MaxInflight bounds summarizer batch calls executing at once;
	// arrivals past the bound queue, and the queue depth drives the
	// overload detector. 0 selects the default (2×GOMAXPROCS, min 4).
	MaxInflight int
	// DrainGrace is how long established ingest connections get to
	// finish in-flight frames at shutdown before their reads are
	// deadlined. 0 selects the default (1s); values outside [0, 10m]
	// are rejected with ErrInvalidDrainGrace.
	DrainGrace time.Duration

	// OverloadHighWater is the queued-batch depth that trips degraded
	// mode. 0 selects the default (4×MaxInflight, min 8).
	OverloadHighWater int
	// OverloadLowWater is the queue depth treated as recovered; the
	// queue must stay at or below it for RecoveryWindow before degraded
	// mode exits. 0 selects the default (OverloadHighWater/4, min 1).
	OverloadLowWater int
	// MemHighWater is a heap-bytes watermark (runtime HeapAlloc) that
	// also trips degraded mode. 0 disables the memory signal.
	MemHighWater uint64
	// ShedKeepOneIn is the sampling divisor while degraded: 1 of every
	// ShedKeepOneIn batches is kept and its records' weights are scaled
	// by ShedKeepOneIn to compensate, so estimates stay unbiased. 0
	// selects the default (4); 1 disables shedding (degraded mode then
	// only signals, never drops).
	ShedKeepOneIn int
	// RecoveryWindow is the sustained-calm hysteresis before degraded
	// mode exits. 0 selects the default (2s).
	RecoveryWindow time.Duration

	// SnapshotPath, when set, enables persistence: the summarizer is
	// snapshotted every SnapshotInterval and on Shutdown into
	// CRC-checksummed generation files next to this base path. The
	// summarizer must implement heavykeeper.SnapshotWriter.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence (default 1m;
	// ignored without SnapshotPath).
	SnapshotInterval time.Duration
	// SnapshotKeep is how many snapshot generations to retain (default
	// 3). Older generations are pruned after each successful write.
	SnapshotKeep int

	// NewSummarizer builds the summarizer for a dynamically-admitted
	// tenant with report size k (callers get Config.Summarizer's K). It
	// must return instances that are safe for concurrent use, shaped like
	// the default summarizer so /config describes every tenant. Nil
	// disables dynamic tenants: only the default tenant exists, and v2
	// frames naming any other tenant are rejected.
	NewSummarizer func(k int) (heavykeeper.Summarizer, error)
	// MaxTenants caps live tenants, including the default. Admitting past
	// the cap evicts the least-recently-used dynamic tenant. 0 selects
	// the default (64); negative is rejected with ErrInvalidLimit.
	MaxTenants int
	// TenantMemoryBudget bounds the summed MemoryBytes of all dynamic
	// tenants; admission past the budget evicts LRU tenants until the new
	// one fits. 0 means unlimited.
	TenantMemoryBudget int

	// Tokens maps bearer tokens to tenant names. A non-empty table (or a
	// non-empty AdminToken) switches the server into authenticated mode:
	// HTTP requests need Authorization: Bearer, and TCP ingest
	// connections must open with a wire hello frame carrying a valid
	// token before any batch. Empty leaves the server open
	// (loopback/dev). Tokens are hot-rotated via SetTokens/AddToken/
	// RevokeToken or POST /config.
	Tokens map[string]string
	// AdminToken, when set, authorizes POST /config (hot reconfig) and
	// unscoped queries across tenants. It grants no ingest rights.
	AdminToken string

	// TLSCertFile/TLSKeyFile, when both set, wrap the TCP-ingest and
	// HTTP listeners in TLS. UDP ingest has no TLS framing; under
	// authenticated mode UDP datagrams are dropped anyway (no handshake
	// is possible), so secure deployments simply leave UDPAddr empty.
	TLSCertFile string
	TLSKeyFile  string

	// Info is echoed verbatim by the /config endpoint, so a client can
	// rebuild a twin summarizer (the hkbench verifier does).
	Info map[string]string
	// Logger receives structured operational logs. The server derives
	// component-scoped children (component=server|snapshot|tenant) from
	// it. Nil falls back to Logf; when both are nil logs are discarded.
	Logger *slog.Logger
	// Logf receives printf-style log lines when Logger is nil — the
	// legacy seam the test harnesses hook. Structured records are
	// rendered onto it as "level=... msg=... k=v" lines.
	Logf func(format string, args ...any)
	// RestoreDuration, when positive, is how long the pre-start snapshot
	// restore took (cmd/hkd times LoadSnapshot before the server exists)
	// and is recorded as one observation in the snapshot-load latency
	// histogram so /metrics covers the full snapshot lifecycle.
	RestoreDuration time.Duration
}

// Typed configuration errors; callers branch with errors.Is.
var (
	// ErrInvalidDrainGrace is returned by New for a DrainGrace outside
	// [0, 10m] — a negative grace is meaningless and an hours-long one
	// turns every restart into an outage.
	ErrInvalidDrainGrace = errors.New("server: drain grace must be between 0 and 10m")
	// ErrInvalidLimit is returned by New for a nonsensical admission or
	// shedding limit (negative MaxInflight, watermarks out of order, ...).
	ErrInvalidLimit = errors.New("server: invalid limit")
)

// maxDrainGrace bounds the configurable shutdown drain grace.
const maxDrainGrace = 10 * time.Minute

// counters is the server's monitoring block; all fields are atomics so
// the ingest paths never take a lock to count.
type counters struct {
	tcpFrames       atomic.Uint64
	udpFrames       atomic.Uint64
	records         atomic.Uint64
	tcpBytes        atomic.Uint64
	tcpReads        atomic.Uint64
	udpBytes        atomic.Uint64
	decodeErrors    atomic.Uint64
	transportErrors atomic.Uint64
	connsTotal      atomic.Uint64
	connsActive     atomic.Int64
	connsRejected   atomic.Uint64
	idleEvictions   atomic.Uint64
	udpOversized    atomic.Uint64
	udpTruncated    atomic.Uint64
	shedBatches     atomic.Uint64
	shedRecords     atomic.Uint64
	authFailures    atomic.Uint64
	udpAuthDropped  atomic.Uint64
	degradedEntries atomic.Uint64
	degradedExits   atomic.Uint64
	snapshots       atomic.Uint64
	snapshotErrs    atomic.Uint64
	snapshotServes  atomic.Uint64
	snapshotServeEr atomic.Uint64
	// snapshotUnchanged counts long-polls answered 304; /metrics only.
	snapshotUnchanged atomic.Uint64
}

// errProbe is the sentinel the snapshot-capability probe writer returns;
// seeing it back from WriteTo proves the summarizer got past its own
// capability checks and started writing.
var errProbe = errors.New("server: snapshot capability probe")

// probeWriter fails every write with errProbe.
type probeWriter struct{}

func (probeWriter) Write([]byte) (int, error) { return 0, errProbe }

// Server is one running hkd instance.
type Server struct {
	cfg       Config
	log       *slog.Logger // component=server
	snapLog   *slog.Logger // component=snapshot
	tenantLog *slog.Logger // component=tenant (reconfig, token rotation)
	started   time.Time
	obs       *serverObs

	tcpLn  net.Listener
	udpLn  net.PacketConn
	httpLn net.Listener
	httpSv *http.Server

	mu     sync.Mutex
	conns  map[*ingestConn]struct{}
	closed bool

	// Ingest backpressure: sem bounds concurrently-executing summarizer
	// calls; waiting counts arrivals blocked behind it (the queue depth
	// the overload detector watches).
	sem      chan struct{}
	waiting  atomic.Int64
	inflight atomic.Int64

	// Degradation state machine. degraded flips on synchronously when
	// the queue crosses the high watermark (or the monitor sees the
	// memory watermark crossed) and off in the monitor after the queue
	// has stayed at the low watermark for RecoveryWindow. lastOver is
	// the last instant overload was observed (unix nanos); degradedAt
	// is when the current episode began, feeding the dwell histogram.
	degraded   atomic.Bool
	lastOver   atomic.Int64
	degradedAt atomic.Int64
	shedTick   atomic.Uint64

	// Shutdown drain coordination: draining tells serveConn to stop
	// extending idle deadlines; drainBy (unix nanos) is the deadline it
	// re-asserts if it raced a SetReadDeadline against Shutdown.
	draining atomic.Bool
	drainBy  atomic.Int64

	wg       sync.WaitGroup
	closing  chan struct{} // closed by Shutdown: parked long-polls answer at once
	stopSnap chan struct{}
	stopMon  chan struct{}
	ctr      counters

	snap *genStore

	// Multi-tenancy: reg holds per-tenant summarizers (the default
	// tenant wraps cfg.Summarizer), tokens is the hot-rotatable bearer
	// table, authRequired is fixed at construction — revoking every
	// token locks the server down, it never silently reopens it.
	reg          *registry
	tokens       *tokenTable
	authRequired bool
	tlsConf      *tls.Config

	// Test seams (package-internal): pollEvery paces the overload
	// monitor; tcpListen lets the chaos harness wrap the accept loop.
	pollEvery time.Duration
	tcpListen func(addr string) (net.Listener, error)
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Summarizer == nil {
		return nil, errors.New("server: Config.Summarizer is required")
	}
	// The ingest loops and HTTP handlers touch the summarizer from
	// separate goroutines; a bare TopK has no synchronization at all.
	// Callers that mean it should wrap it (heavykeeper.Synchronized).
	if _, bare := cfg.Summarizer.(*heavykeeper.TopK); bare {
		return nil, errors.New("server: bare *TopK is not safe for concurrent serving; wrap it with heavykeeper.Synchronized")
	}
	if cfg.TCPAddr == "" && cfg.UDPAddr == "" && cfg.HTTPAddr == "" {
		return nil, errors.New("server: no listen address configured")
	}
	switch {
	case cfg.DrainGrace == 0:
		cfg.DrainGrace = time.Second
	case cfg.DrainGrace < 0 || cfg.DrainGrace > maxDrainGrace:
		return nil, fmt.Errorf("%w: %v", ErrInvalidDrainGrace, cfg.DrainGrace)
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	switch {
	case cfg.MaxInflight == 0:
		cfg.MaxInflight = max(4, 2*runtime.GOMAXPROCS(0))
	case cfg.MaxInflight < 0:
		return nil, fmt.Errorf("%w: MaxInflight %d", ErrInvalidLimit, cfg.MaxInflight)
	}
	switch {
	case cfg.OverloadHighWater == 0:
		cfg.OverloadHighWater = max(8, 4*cfg.MaxInflight)
	case cfg.OverloadHighWater < 0:
		return nil, fmt.Errorf("%w: OverloadHighWater %d", ErrInvalidLimit, cfg.OverloadHighWater)
	}
	switch {
	case cfg.OverloadLowWater == 0:
		cfg.OverloadLowWater = max(1, cfg.OverloadHighWater/4)
	case cfg.OverloadLowWater < 0:
		return nil, fmt.Errorf("%w: OverloadLowWater %d", ErrInvalidLimit, cfg.OverloadLowWater)
	}
	if cfg.OverloadLowWater >= cfg.OverloadHighWater {
		return nil, fmt.Errorf("%w: OverloadLowWater %d must be below OverloadHighWater %d",
			ErrInvalidLimit, cfg.OverloadLowWater, cfg.OverloadHighWater)
	}
	switch {
	case cfg.ShedKeepOneIn == 0:
		cfg.ShedKeepOneIn = 4
	case cfg.ShedKeepOneIn < 0:
		return nil, fmt.Errorf("%w: ShedKeepOneIn %d", ErrInvalidLimit, cfg.ShedKeepOneIn)
	}
	if cfg.RecoveryWindow == 0 {
		cfg.RecoveryWindow = 2 * time.Second
	}
	if cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("%w: IdleTimeout %v", ErrInvalidLimit, cfg.IdleTimeout)
	}
	switch {
	case cfg.MaxTenants == 0:
		cfg.MaxTenants = 64
	case cfg.MaxTenants < 0:
		return nil, fmt.Errorf("%w: MaxTenants %d", ErrInvalidLimit, cfg.MaxTenants)
	}
	if cfg.TenantMemoryBudget < 0 {
		return nil, fmt.Errorf("%w: TenantMemoryBudget %d", ErrInvalidLimit, cfg.TenantMemoryBudget)
	}
	for tok, tenant := range cfg.Tokens {
		if tok == "" || tenant == "" {
			return nil, errors.New("server: Tokens entries need a non-empty token and tenant name")
		}
		if len(tok) > wire.MaxTokenLen {
			return nil, fmt.Errorf("server: token for tenant %q exceeds wire.MaxTokenLen", tenant)
		}
		if cfg.AdminToken != "" && tok == cfg.AdminToken {
			return nil, fmt.Errorf("server: tenant token for %q collides with AdminToken", tenant)
		}
		if tenant != DefaultTenant && cfg.NewSummarizer == nil {
			return nil, fmt.Errorf("server: token scoped to tenant %q requires Config.NewSummarizer", tenant)
		}
	}
	if (cfg.TLSCertFile == "") != (cfg.TLSKeyFile == "") {
		return nil, errors.New("server: TLSCertFile and TLSKeyFile must be set together")
	}
	var tlsConf *tls.Config
	if cfg.TLSCertFile != "" {
		cert, err := tls.LoadX509KeyPair(cfg.TLSCertFile, cfg.TLSKeyFile)
		if err != nil {
			return nil, fmt.Errorf("server: load TLS keypair: %w", err)
		}
		tlsConf = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	var snap *genStore
	if cfg.SnapshotPath != "" {
		// Every frontend type has a WriteTo method, but registry engines
		// reject it at call time — probe once now so a daemon that cannot
		// actually persist fails at startup, not at the first snapshot.
		// The probe writer fails on the first byte, so capability is
		// learned in O(1): a capable summarizer surfaces errProbe, an
		// incapable one its own error before writing anything.
		w, ok := cfg.Summarizer.(heavykeeper.SnapshotWriter)
		if !ok {
			return nil, fmt.Errorf("server: summarizer %T cannot snapshot", cfg.Summarizer)
		}
		if _, err := w.WriteTo(probeWriter{}); err != nil && !errors.Is(err, errProbe) {
			return nil, fmt.Errorf("server: summarizer cannot snapshot: %w", err)
		}
		if cfg.SnapshotInterval <= 0 {
			cfg.SnapshotInterval = time.Minute
		}
		if cfg.SnapshotKeep == 0 {
			cfg.SnapshotKeep = 3
		}
		if cfg.SnapshotKeep < 0 {
			return nil, fmt.Errorf("%w: SnapshotKeep %d", ErrInvalidLimit, cfg.SnapshotKeep)
		}
		var err error
		if snap, err = newGenStore(cfg.SnapshotPath, cfg.SnapshotKeep); err != nil {
			return nil, fmt.Errorf("server: snapshot store: %w", err)
		}
	}
	base := cfg.Logger
	if base == nil {
		base = obs.LogfLogger(cfg.Logf) // discards when Logf is nil too
	}
	sobs := newServerObs()
	if cfg.RestoreDuration > 0 {
		sobs.snapLoad.Observe(cfg.RestoreDuration)
	}
	return &Server{
		cfg:          cfg,
		log:          obs.Component(base, "server"),
		snapLog:      obs.Component(base, "snapshot"),
		tenantLog:    obs.Component(base, "tenant"),
		obs:          sobs,
		conns:        map[*ingestConn]struct{}{},
		sem:          make(chan struct{}, cfg.MaxInflight),
		closing:      make(chan struct{}),
		stopSnap:     make(chan struct{}),
		stopMon:      make(chan struct{}),
		snap:         snap,
		reg:          newRegistry(cfg.Summarizer, cfg.NewSummarizer, cfg.MaxTenants, cfg.TenantMemoryBudget),
		tokens:       newTokenTable(cfg.Tokens),
		authRequired: len(cfg.Tokens) > 0 || cfg.AdminToken != "",
		tlsConf:      tlsConf,
		pollEvery:    25 * time.Millisecond,
		tcpListen:    func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
	}, nil
}

// AuthRequired reports whether the server was constructed in
// authenticated mode (tenant tokens or an admin token configured).
func (s *Server) AuthRequired() bool { return s.authRequired }

// Start binds the configured listeners and launches the ingest, API,
// overload-monitor and snapshot loops. It returns once everything is
// listening; use the Addr accessors to learn ephemeral ports.
func (s *Server) Start() error {
	s.started = time.Now()
	if s.cfg.TCPAddr != "" {
		ln, err := s.tcpListen(s.cfg.TCPAddr)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("server: tcp listen: %w", err)
		}
		if s.tlsConf != nil {
			ln = tls.NewListener(ln, s.tlsConf)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if s.cfg.UDPAddr != "" {
		ln, err := net.ListenPacket("udp", s.cfg.UDPAddr)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("server: udp listen: %w", err)
		}
		s.udpLn = ln
		s.wg.Add(1)
		go s.udpLoop()
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("server: http listen: %w", err)
		}
		if s.tlsConf != nil {
			ln = tls.NewListener(ln, s.tlsConf)
		}
		s.httpLn = ln
		s.httpSv = &http.Server{Handler: s.apiHandler()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.httpSv.Serve(ln); err != nil && err != http.ErrServerClosed {
				s.log.Error("http serve failed", "err", err)
			}
		}()
	}
	if s.cfg.SnapshotPath != "" {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	s.wg.Add(1)
	go s.monitorLoop()
	s.log.Info("listening",
		"tcp", addrString(s.TCPAddr()),
		"udp", addrString(s.UDPAddr()),
		"http", addrString(s.HTTPAddr()))
	return nil
}

// addrString renders a possibly-nil listener address for logging.
func addrString(a net.Addr) string {
	if a == nil {
		return ""
	}
	return a.String()
}

// TCPAddr returns the bound stream-ingest address (nil when disabled).
func (s *Server) TCPAddr() net.Addr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// UDPAddr returns the bound datagram-ingest address (nil when disabled).
func (s *Server) UDPAddr() net.Addr {
	if s.udpLn == nil {
		return nil
	}
	return s.udpLn.LocalAddr()
}

// HTTPAddr returns the bound API address (nil when disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Degraded reports whether the server is currently shedding load.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// acceptLoop accepts stream-ingest connections until the listener
// closes, enforcing the MaxConns admission cap.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.tcpLn.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.cfg.MaxConns > 0 && s.ctr.connsActive.Load() >= int64(s.cfg.MaxConns) {
			s.ctr.connsRejected.Add(1)
			raw.Close()
			continue
		}
		conn := &ingestConn{Conn: raw}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.ctr.connsTotal.Add(1)
		s.ctr.connsActive.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// ingestConn is a tracked stream-ingest connection. Its Reader reads
// ahead, so closing the socket alone would not stop the handler until the
// frames already buffered had been applied; Close therefore also marks the
// connection severed, and serveConn checks the mark once per frame.
type ingestConn struct {
	net.Conn
	severed atomic.Bool
}

// Close severs the connection: the handler stops at the next frame
// boundary, and the socket closes.
func (c *ingestConn) Close() error {
	c.severed.Store(true)
	return c.Conn.Close()
}

// track registers conn for shutdown; reports false when shutting down.
func (s *Server) track(conn *ingestConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn *ingestConn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn drains one stream-ingest connection: a frame at a time
// through the connection's own wire.Reader (whose buffers are reused, so
// the steady-state loop is allocation-free) into the bound tenant's
// summarizer batch path. A protocol violation terminates the connection
// — framing on a byte stream cannot resynchronize after corruption.
// With IdleTimeout configured, a peer that delivers no complete frame
// within the window is evicted, so slow or silent clients cannot pin
// connection slots. A connection the server severs (Shutdown's
// force-close) stops at the next frame boundary; a peer's clean close
// still drains every frame the Reader buffered.
//
// Tenant binding: under authenticated mode the first frame must be a
// hello carrying a valid tenant token; the connection is then bound to
// that tenant and every later frame must either omit the tenant id or
// name the bound one (a mismatch is an auth failure and closes the
// connection — tokens are capabilities scoped to exactly one
// namespace). In open mode frames route by their own tenant id, with
// unnamed and v1 frames landing in the default tenant.
func (s *Server) serveConn(conn *ingestConn) {
	defer s.wg.Done()
	defer s.ctr.connsActive.Add(-1)
	defer s.untrack(conn)
	defer conn.Close()
	var bound *tenant
	r := wire.NewReader(&countingReader{r: conn, bytes: &s.ctr.tcpBytes, reads: &s.ctr.tcpReads})
	for {
		if idle := s.cfg.IdleTimeout; idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
			if s.draining.Load() {
				// Raced Shutdown's drain deadline: re-assert it, so the
				// drain grace always wins over the (longer) idle window.
				conn.SetReadDeadline(time.Unix(0, s.drainBy.Load()))
			}
		}
		batch, err := r.Next()
		if err != nil {
			if err != io.EOF {
				// A peer speaking garbage, a peer (or our own shutdown)
				// tearing the transport down, and an idle peer timing out
				// are different conditions; count them apart so the
				// protocol-violation metric stays honest.
				var ne net.Error
				switch {
				case errors.As(err, &ne) && ne.Timeout() && !s.draining.Load():
					s.ctr.idleEvictions.Add(1)
					s.log.Info("evicting idle connection", "remote", conn.RemoteAddr().String(), "idle", s.cfg.IdleTimeout)
				case isTransportError(err):
					s.ctr.transportErrors.Add(1)
					s.log.Warn("ingest transport error", "remote", conn.RemoteAddr().String(), "err", err)
				default:
					s.ctr.decodeErrors.Add(1)
					s.log.Warn("ingest decode error", "remote", conn.RemoteAddr().String(), "err", err)
				}
			}
			return
		}
		if conn.severed.Load() {
			// Counted like the read error of a closed socket, so a severed
			// connection adds one transport error however it ends.
			s.ctr.transportErrors.Add(1)
			s.log.Warn("ingest connection severed", "remote", conn.RemoteAddr().String())
			return
		}
		if batch.IsHello() {
			name, ok := s.tokens.lookup(batch.Token)
			if !ok {
				s.ctr.authFailures.Add(1)
				s.log.Warn("hello with unknown token, closing", "remote", conn.RemoteAddr().String())
				return
			}
			t, err := s.reg.resolve([]byte(name))
			if err != nil {
				s.ctr.authFailures.Add(1)
				s.log.Warn("hello tenant resolve failed, closing", "remote", conn.RemoteAddr().String(), "tenant", name, "err", err)
				return
			}
			bound = t
			continue
		}
		var t *tenant
		switch {
		case bound != nil:
			if len(batch.Tenant) != 0 && string(batch.Tenant) != bound.name {
				s.ctr.authFailures.Add(1)
				s.log.Warn("frame for foreign tenant on bound connection, closing",
					"remote", conn.RemoteAddr().String(), "tenant", string(batch.Tenant), "bound", bound.name)
				return
			}
			t = bound
		case s.authRequired:
			s.ctr.authFailures.Add(1)
			s.log.Warn("batch frame before hello on authenticated server, closing", "remote", conn.RemoteAddr().String())
			return
		default:
			if t, err = s.reg.resolve(batch.Tenant); err != nil {
				// Admission failure is a resource decision, not a protocol
				// violation: count it (registry-side) and drop the frame,
				// keeping the connection for frames that do resolve.
				s.log.Warn("tenant admission refused", "remote", conn.RemoteAddr().String(), "err", err)
				continue
			}
		}
		s.ctr.tcpFrames.Add(1)
		s.ingest(t, batch)
	}
}

// isTransportError reports whether err is a connection-level failure
// (reset, force-close, deadline, mid-frame EOF from a crashed peer)
// rather than a protocol violation in bytes that actually arrived.
func isTransportError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// countingReader feeds the reads and bytes drained from one connection
// into the server-wide counters.
type countingReader struct {
	r     io.Reader
	bytes *atomic.Uint64
	reads *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.reads.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

// udpLoop ingests one frame per datagram until the socket closes.
// Datagrams are independent, so a malformed one is counted and dropped
// without affecting its neighbors. The read buffer is sized one byte
// past the wire protocol's frame bound, so a datagram too large to be a
// valid frame is detected (the kernel would otherwise truncate it
// silently into a plausible-looking decode error) and counted apart
// from decode corruption, as are torn (truncated) datagrams.
func (s *Server) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, wire.MaxFrameLen+1)
	var batch wire.Batch
	for {
		n, _, err := s.udpLn.ReadFrom(buf)
		if err != nil {
			return // socket closed by Shutdown
		}
		if s.authRequired {
			// Datagrams carry no handshake, so an authenticated server
			// cannot attribute them to a principal; they are dropped and
			// counted rather than laundered into the default tenant.
			s.ctr.udpAuthDropped.Add(1)
			continue
		}
		if n > wire.MaxFrameLen {
			s.ctr.udpOversized.Add(1)
			continue
		}
		if err := wire.DecodeDatagram(buf[:n], &batch); err != nil {
			switch {
			case errors.Is(err, wire.ErrOversize):
				s.ctr.udpOversized.Add(1)
			case errors.Is(err, wire.ErrTruncated):
				s.ctr.udpTruncated.Add(1)
			default:
				s.ctr.decodeErrors.Add(1)
			}
			continue
		}
		if batch.IsHello() {
			// A hello only makes sense on a stream; over UDP it binds
			// nothing and is dropped as a protocol misuse.
			s.ctr.decodeErrors.Add(1)
			continue
		}
		t, err := s.reg.resolve(batch.Tenant)
		if err != nil {
			s.log.Warn("udp tenant admission refused", "err", err)
			continue
		}
		s.ctr.udpFrames.Add(1)
		s.ctr.udpBytes.Add(uint64(n))
		s.ingest(t, &batch)
	}
}

// ingest feeds one decoded batch to t's summarizer through the bounded
// inflight semaphore: the batched path for unit weights, per-record AddN
// for weighted frames. While degraded, batches are sampled — 1 of every
// ShedKeepOneIn is kept with its weights scaled by ShedKeepOneIn, the
// rest are counted and dropped before any summarizer work. Shedding is
// strictly batch-granular: the per-packet hot path under AddBatch is
// never touched. The tenant's audit counters account for every frame
// that reaches this point, shed or kept — the audit trail answers "who
// sent what", not "what survived sampling".
func (s *Server) ingest(t *tenant, b *wire.Batch) {
	t.frames.Add(1)
	t.records.Add(uint64(len(b.Keys)))
	// One clock read per batch serves both the LRU stamp and the latency
	// observation below.
	start := time.Now()
	t.touch(start)
	scale := uint64(1)
	if s.degraded.Load() && s.cfg.ShedKeepOneIn > 1 {
		if !s.keepBatch() {
			s.ctr.shedBatches.Add(1)
			s.ctr.shedRecords.Add(uint64(len(b.Keys)))
			return
		}
		scale = uint64(s.cfg.ShedKeepOneIn)
	}
	sum := t.summarizer()
	// Batch-granular latency: queue wait plus the summarizer call. One
	// clock read and a few atomic adds per batch — the per-key loop
	// under AddBatch stays untouched.
	select {
	case s.sem <- struct{}{}:
	default:
		// Contended: we are the queue. Crossing the high watermark here
		// (rather than waiting for the monitor tick) makes overload entry
		// immediate and deterministic.
		if w := s.waiting.Add(1); w >= int64(s.cfg.OverloadHighWater) {
			s.lastOver.Store(time.Now().UnixNano())
			s.enterDegraded(w)
		}
		s.sem <- struct{}{}
		s.waiting.Add(-1)
	}
	s.inflight.Add(1)
	switch {
	case scale > 1:
		if len(b.Weights) == 0 {
			for _, key := range b.Keys {
				sum.AddN(key, scale)
			}
		} else {
			for i, key := range b.Keys {
				sum.AddN(key, b.Weights[i]*scale)
			}
		}
	case len(b.Weights) == 0:
		sum.AddBatch(b.Keys)
	default:
		for i, key := range b.Keys {
			sum.AddN(key, b.Weights[i])
		}
	}
	s.inflight.Add(-1)
	<-s.sem
	t.gen.advance()
	s.obs.ingestBatch.Observe(time.Since(start))
	s.ctr.records.Add(uint64(len(b.Keys)))
}

// keepBatch is the degraded-mode sampling decision: a lock-free
// pseudo-random draw (SplitMix64 finalizer over a global tick) keeping 1
// of every ShedKeepOneIn batches. Deterministic for a given arrival
// order, unbiased across interleavings.
func (s *Server) keepBatch() bool {
	tick := s.shedTick.Add(1)
	return mix64(tick^shedSeed)%uint64(s.cfg.ShedKeepOneIn) == 0
}

// shedSeed decorrelates the shedding draw from the tick sequence.
const shedSeed = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer: a cheap, high-quality 64-bit mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// enterDegraded flips the server into degraded mode once per episode.
func (s *Server) enterDegraded(queue int64) {
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedAt.Store(time.Now().UnixNano())
		s.ctr.degradedEntries.Add(1)
		s.log.Warn("entering degraded mode",
			"queue", queue,
			"high_water", s.cfg.OverloadHighWater,
			"shed", s.cfg.ShedKeepOneIn-1,
			"of", s.cfg.ShedKeepOneIn)
	}
}

// exitDegraded returns the server to exact mode once per episode and
// records how long the episode lasted.
func (s *Server) exitDegraded() {
	if s.degraded.CompareAndSwap(true, false) {
		dwell := time.Duration(0)
		if at := s.degradedAt.Load(); at != 0 {
			dwell = time.Since(time.Unix(0, at))
		}
		s.obs.degradedDwell.Observe(dwell)
		s.ctr.degradedExits.Add(1)
		s.log.Info("recovered, exiting degraded mode", "dwell", dwell)
	}
}

// monitorLoop is the overload state machine's clock: it watches the
// ingest queue depth (and, when configured, the heap watermark), refreshes
// the last-overloaded instant while pressure persists, and exits degraded
// mode after the queue has stayed at the low watermark for RecoveryWindow.
func (s *Server) monitorLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.pollEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopMon:
			return
		case <-t.C:
			now := time.Now()
			w := s.waiting.Load()
			over := w >= int64(s.cfg.OverloadHighWater)
			if !over && s.cfg.MemHighWater > 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc >= s.cfg.MemHighWater {
					over = true
					s.log.Warn("heap past watermark", "heap_bytes", ms.HeapAlloc, "watermark", s.cfg.MemHighWater)
				}
			}
			switch {
			case over:
				s.lastOver.Store(now.UnixNano())
				s.enterDegraded(w)
			case s.degraded.Load():
				if w > int64(s.cfg.OverloadLowWater) {
					// Still above the recovery watermark: not calm yet.
					s.lastOver.Store(now.UnixNano())
				} else if now.Sub(time.Unix(0, s.lastOver.Load())) >= s.cfg.RecoveryWindow {
					s.exitDegraded()
				}
			}
		}
	}
}

// snapshotLoop writes periodic snapshots until Shutdown.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Snapshot(); err != nil {
				s.snapLog.Error("periodic snapshot failed", "err", err)
			}
		case <-s.stopSnap:
			return
		}
	}
}

// Snapshot writes the summarizer as a new CRC-checksummed snapshot
// generation (temp file, fsync, rename, directory fsync) and prunes
// generations past SnapshotKeep. A failed write never disturbs existing
// generations, so the newest intact generation always survives. Safe to
// call concurrently and from signal handlers (SIGHUP in hkd).
func (s *Server) Snapshot() error {
	if s.snap == nil {
		return errors.New("server: no snapshot path configured")
	}
	// The default tenant's summarizer, not cfg.Summarizer: grow_k may
	// have swapped in a larger instance since construction. The factory
	// produces instances shaped like the original (probed in New), but a
	// hostile factory could not, so the assertion stays checked.
	w, ok := s.reg.def.summarizer().(heavykeeper.SnapshotWriter)
	if !ok {
		s.ctr.snapshotErrs.Add(1)
		return fmt.Errorf("server: summarizer %T cannot snapshot", s.reg.def.summarizer())
	}
	start := time.Now()
	if err := s.snap.write(w); err != nil {
		s.ctr.snapshotErrs.Add(1)
		return err
	}
	d := time.Since(start)
	s.obs.snapWrite.Observe(d)
	s.ctr.snapshots.Add(1)
	s.snapLog.Debug("snapshot generation written", "duration_us", d.Microseconds())
	return nil
}

// Shutdown stops the server: listeners close immediately (no new
// connections or datagrams), established ingest connections get a short
// read-deadline grace (Config.DrainGrace, clipped to ctx's deadline) to
// finish in-flight frames before being force-closed, the HTTP server
// shuts down gracefully, and — when persistence is configured — a final
// snapshot generation is written. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.closing)
	close(s.stopSnap)
	close(s.stopMon)
	s.closeListeners()

	// An idle collector connection never drains "naturally" — it just
	// blocks in a read between frame bursts. A short read deadline lets a
	// conn that is mid-burst finish its current frames while an idle one
	// errors out immediately, so routine restarts don't burn the whole
	// grace period.
	drainBy := time.Now().Add(s.cfg.DrainGrace)
	if dl, ok := ctx.Deadline(); ok && dl.Before(drainBy) {
		drainBy = dl
	}
	s.drainBy.Store(drainBy.UnixNano())
	s.draining.Store(true)
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(drainBy)
	}
	s.mu.Unlock()

	var httpErr error
	if s.httpSv != nil {
		httpErr = s.httpSv.Shutdown(ctx)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: sever the stragglers and wait for their handlers.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}

	var snapErr error
	if s.snap != nil {
		snapErr = s.Snapshot()
	}
	if snapErr != nil {
		return snapErr
	}
	return httpErr
}

// closeListeners closes whichever listeners are open. Once the HTTP
// server is serving, it owns its listener and closes it in its own
// Shutdown: closing it here as well would make that Shutdown fail with
// "use of closed network connection" whenever Serve has not yet returned.
func (s *Server) closeListeners() {
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.udpLn != nil {
		s.udpLn.Close()
	}
	if s.httpLn != nil && s.httpSv == nil {
		s.httpLn.Close()
	}
}
