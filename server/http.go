package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	heavykeeper "repro"
	"repro/internal/metrics"
	"repro/wire"
)

// StatsSchemaVersion is the schema_version stamped into the /stats and
// /healthz JSON documents (and mirrored by the aggregator), so SDK
// decoding can evolve without breaking against older daemons.
const StatsSchemaVersion = 2

// The HTTP API. All responses are JSON except /metrics (Prometheus text
// exposition format) and /healthz (plain "ok"). Flow identifiers are
// opaque bytes, so they travel hex-encoded in the id fields.
//
//	GET  /topk?n=K      top-n (default k) flows, descending estimate
//	GET  /query?id=HEX  point estimate for one flow (or ?key=STR raw)
//	GET  /stats         engine + server counters (schema-versioned)
//	GET  /indexstats    open-addressed store index stats (when surfaced)
//	GET  /config        construction parameters (Config.Info echo)
//	POST /config        hot reconfig (grow k, rotate epoch, tokens, tenants)
//	GET  /snapshot      checksummed HKC1 snapshot stream (aggregator pull)
//	GET  /healthz       liveness JSON; 503 + Retry-After while degraded
//	GET  /metrics       Prometheus text
//
// Tenancy and auth: query endpoints accept ?tenant=NAME. On an
// authenticated server every request (except /healthz and /metrics,
// which stay open for probes and scrapes) needs Authorization: Bearer
// with a tenant-scoped token — the token alone selects the tenant, and
// a ?tenant naming anyone else is a 403. The admin token may query any
// tenant and is the only principal allowed to POST /config. Errors are
// JSON documents {"error": ..., "code": ...}; the client SDK maps the
// code field onto its typed error families.
func (s *Server) apiHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /topk", s.handleTopK)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /indexstats", s.handleIndexStats)
	mux.HandleFunc("GET /config", s.handleConfig)
	mux.HandleFunc("POST /config", s.handleReconfig)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// withObs sits outermost so every request — including ones auth
	// rejects — gets an echoed X-Request-Id, a latency observation and
	// an access-log line.
	return s.withObs(s.withAuth(mux))
}

// healthzResponse is the /healthz document.
type healthzResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Status        string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// While degraded the daemon is alive and answering but shedding:
	// 503 plus Retry-After gives load balancers and the cluster
	// aggregator's health machine standard semantics, and the body
	// still tells humans (and the SDK) which state they hit.
	if s.degraded.Load() {
		retry := int64(s.cfg.RecoveryWindow / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(healthzResponse{SchemaVersion: StatsSchemaVersion, Status: "degraded"})
		return
	}
	writeJSON(w, healthzResponse{SchemaVersion: StatsSchemaVersion, Status: "ok"})
}

// apiError is the JSON error document; Code is machine-readable and
// stable (the SDK switches on it), Error is for humans.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// authInfo is what the auth middleware established about a request.
type authInfo struct {
	tenant string // tenant the bearer token is scoped to ("" for admin)
	admin  bool
}

type authCtxKey struct{}

// withAuth enforces bearer-token auth on every endpoint except /healthz
// and /metrics (liveness probes and scrapers run unauthenticated by
// convention; neither exposes per-flow data beyond what an operator
// dashboard needs). On an open server it is a pass-through.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.authRequired || r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		tok, ok := bearerToken(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="hkd"`)
			writeError(w, http.StatusUnauthorized, "unauthorized", "missing bearer token")
			return
		}
		info := authInfo{}
		switch name, known := s.tokens.lookup([]byte(tok)); {
		case s.cfg.AdminToken != "" && tok == s.cfg.AdminToken:
			info.admin = true
		case known:
			info.tenant = name
		default:
			s.ctr.authFailures.Add(1)
			writeError(w, http.StatusUnauthorized, "unauthorized", "unknown or revoked token")
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), authCtxKey{}, info)))
	})
}

func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// requestTenant resolves which tenant a query request addresses,
// combining the ?tenant parameter with what auth established. It writes
// the error response itself and reports ok=false when the request must
// not proceed.
func (s *Server) requestTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	name := r.URL.Query().Get("tenant")
	if info, authed := r.Context().Value(authCtxKey{}).(authInfo); authed && !info.admin {
		if name != "" && name != info.tenant {
			writeError(w, http.StatusForbidden, "forbidden", "token is not scoped to tenant "+strconv.Quote(name))
			return nil, false
		}
		// Resolve (admitting if needed) rather than get: a tenant whose
		// token is valid may query before its first frame arrives.
		t, err := s.reg.resolve([]byte(info.tenant))
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
			return nil, false
		}
		return t, true
	}
	// Admin or open server: ?tenant selects, default otherwise. Querying
	// a tenant that was never admitted is a 404, not an admission.
	t, ok := s.reg.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "unknown tenant "+strconv.Quote(name))
		return nil, false
	}
	return t, true
}

// flowJSON is one reported flow on the wire: the identifier hex-encoded.
type flowJSON struct {
	ID    string `json:"id"`
	Count uint64 `json:"count"`
}

// topKResponse is the /topk document.
type topKResponse struct {
	K     int        `json:"k"`
	Flows []flowJSON `json:"flows"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	t, ok := s.requestTenant(w, r)
	if !ok {
		return
	}
	t.touch(time.Now())
	sum := t.summarizer()
	n := sum.K()
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad_request", "n must be a positive integer")
			return
		}
		n = v
	}
	flows := sum.List()
	if len(flows) > n {
		flows = flows[:n]
	}
	resp := topKResponse{K: sum.K(), Flows: make([]flowJSON, len(flows))}
	for i, f := range flows {
		resp.Flows[i] = flowJSON{ID: hex.EncodeToString(f.ID), Count: f.Count}
	}
	writeJSON(w, resp)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, ok := s.requestTenant(w, r)
	if !ok {
		return
	}
	t.touch(time.Now())
	q := r.URL.Query()
	var key []byte
	switch {
	case q.Get("id") != "":
		b, err := hex.DecodeString(q.Get("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "id must be hex")
			return
		}
		key = b
	case q.Get("key") != "":
		key = []byte(q.Get("key"))
	default:
		writeError(w, http.StatusBadRequest, "bad_request", "provide ?id=HEX or ?key=STRING")
		return
	}
	writeJSON(w, flowJSON{ID: hex.EncodeToString(key), Count: t.summarizer().Query(key)})
}

// handleSnapshot streams the daemon's sketch state as a CRC-checksummed
// HKC1 snapshot envelope — the cluster aggregator's collection surface.
// By default it serves the newest on-disk generation whose checksum
// verifies end to end (integrity-gated with heavykeeper.VerifySnapshot
// before a single byte is shipped, and immutable once renamed into place,
// so serving never holds engine locks for the duration of a network
// write). With ?live=1, or when no intact generation exists (persistence
// disabled, or nothing written yet), it serializes the summarizer now
// into memory and serves that instead. The reader re-verifies the CRC
// chain on its side; together the two checks authenticate the transfer
// end to end.
//
// ?report=1 serves the same state as a wire report frame instead: the
// top-k only, generation and k, CRC-framed (package wire).
//
// Every answer carries X-Snapshot-Generation, the state token of its
// source: the tenant's live generation, or the newest written generation
// seq when serving from disk. ?after=G long-polls on it: the request
// parks until the token differs from G (differs, not exceeds, so a
// restarted daemon answers at once), then serves as above. After ?wait
// (a Go duration, default 10s, at most 1m), at Shutdown, or when the
// client goes away, it answers 304 Not Modified with no body instead.
// A long-poll's answer carries X-Snapshot-Waited, the time it parked (a
// Go duration), so the caller can tell waiting from serving.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, ok := s.requestTenant(w, r)
	if !ok {
		return
	}
	t.touch(time.Now())
	q := r.URL.Query()
	// On-disk generations hold only the default tenant's state; any other
	// tenant is always serialized live.
	disk := s.snap != nil && q.Get("live") == "" && t == s.reg.def
	state := t.gen
	if disk {
		state = s.snap.written
	}
	// Read the token before the state it labels: a change racing the
	// serve then shows as a newer token on the next poll, never as a
	// stale answer under a current token.
	token := state.load()
	if a := q.Get("after"); a != "" {
		after, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "after must be a generation number")
			return
		}
		wait := defaultPollWait
		if v := q.Get("wait"); v != "" {
			if wait, err = time.ParseDuration(v); err != nil || wait < 0 {
				writeError(w, http.StatusBadRequest, "bad_request", "wait must be a non-negative duration")
				return
			}
			wait = min(wait, maxPollWait)
		}
		parked := time.Now()
		token = state.wait(after, wait, r.Context().Done(), s.closing)
		w.Header().Set("X-Snapshot-Waited", time.Since(parked).String())
		if token == after {
			w.Header().Set(generationHeader, strconv.FormatUint(after, 10))
			w.WriteHeader(http.StatusNotModified)
			s.ctr.snapshotUnchanged.Add(1)
			return
		}
	}
	w.Header().Set(generationHeader, strconv.FormatUint(token, 10))
	var sum heavykeeper.Summarizer
	if disk {
		verifyStart := time.Now()
		gen, err := s.snap.newestIntact()
		s.obs.snapVerify.Observe(time.Since(verifyStart))
		if err == nil {
			if q.Get("report") == "" {
				if s.serveGeneration(w, gen) {
					return
				}
			} else if sum, err = readSnapshotFile(gen.path); err == nil {
				w.Header().Set("X-Snapshot-Source", "generation")
				w.Header().Set("X-Snapshot-Seq", strconv.FormatUint(gen.seq, 10))
			}
		}
		// No intact generation: fall through to the live state.
	}
	if sum == nil {
		sum = t.summarizer()
		w.Header().Set("X-Snapshot-Source", "live")
	}
	var buf []byte
	var err error
	if q.Get("report") != "" {
		buf, err = wire.AppendReport(nil, wire.Report{Generation: token, K: sum.K(), Flows: sum.List()})
	} else {
		buf, err = liveSnapshot(sum)
	}
	if err != nil {
		s.ctr.snapshotServeEr.Add(1)
		if errors.Is(err, heavykeeper.ErrSnapshotUnsupported) {
			writeError(w, http.StatusNotImplemented, "not_implemented", "summarizer has no snapshot format")
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", "snapshot serialization failed")
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(buf); err != nil {
		s.ctr.snapshotServeEr.Add(1)
		return
	}
	s.ctr.snapshotServes.Add(1)
}

// generationHeader carries a GET /snapshot answer's state token, the
// value to pass as ?after to wait for the next change.
const generationHeader = "X-Snapshot-Generation"

// serveGeneration streams one verified on-disk generation file. It
// reports false, having written nothing, when the file is gone (pruned
// since verification), so the caller can serve live state instead.
func (s *Server) serveGeneration(w http.ResponseWriter, gen generation) bool {
	f, err := os.Open(gen.path)
	if err != nil {
		return false
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snapshot-Source", "generation")
	w.Header().Set("X-Snapshot-Seq", strconv.FormatUint(gen.seq, 10))
	if _, err := io.Copy(w, f); err != nil {
		// Client gone or disk fault mid-stream; the truncated body fails
		// the reader's CRC check.
		s.ctr.snapshotServeEr.Add(1)
		return true
	}
	s.ctr.snapshotServes.Add(1)
	return true
}

// liveSnapshot serializes sum into a checksummed snapshot envelope.
func liveSnapshot(sum heavykeeper.Summarizer) ([]byte, error) {
	sw, ok := sum.(heavykeeper.SnapshotWriter)
	if !ok {
		return nil, heavykeeper.ErrSnapshotUnsupported
	}
	var buf bytes.Buffer
	if _, err := heavykeeper.WriteSnapshot(&buf, sw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// statsResponse is the /stats document: engine event counters for the
// addressed tenant plus the server's own (global) ingest counters. The
// per-tenant roster appears only for the admin or an open server — a
// tenant-scoped token must not learn who else is being served.
type statsResponse struct {
	SchemaVersion int               `json:"schema_version"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Tenant        string            `json:"tenant"`
	K             int               `json:"k"`
	MemoryBytes   int               `json:"memory_bytes"`
	Engine        heavykeeper.Stats `json:"engine"`
	Server        serverCounters    `json:"server"`
	Latency       *latencyStats     `json:"latency,omitempty"`
	Window        *windowInfo       `json:"window,omitempty"`
	Tenants       []tenantStats     `json:"tenants,omitempty"`
}

// tenantStats is one tenant's audit line in /stats.
type tenantStats struct {
	Name        string `json:"name"`
	K           int    `json:"k"`
	MemoryBytes int    `json:"memory_bytes"`
	Frames      uint64 `json:"frames"`
	Records     uint64 `json:"records"`
}

type serverCounters struct {
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
	ConnsRejected   uint64 `json:"conns_rejected"`
	IdleEvictions   uint64 `json:"idle_evictions"`
	UDPOversized    uint64 `json:"udp_oversized"`
	UDPTruncated    uint64 `json:"udp_truncated"`
	QueueDepth      int64  `json:"queue_depth"`
	Inflight        int64  `json:"inflight"`
	Degraded        bool   `json:"degraded"`
	DegradedEntries uint64 `json:"degraded_entries"`
	DegradedExits   uint64 `json:"degraded_exits"`
	ShedBatches     uint64 `json:"shed_batches"`
	ShedRecords     uint64 `json:"shed_records"`
	AuthFailures    uint64 `json:"auth_failures"`
	UDPAuthDropped  uint64 `json:"udp_auth_dropped"`
	TenantsActive   int    `json:"tenants_active"`
	TenantsAdmitted uint64 `json:"tenants_admitted"`
	TenantEvictions uint64 `json:"tenant_evictions"`
	TenantRejected  uint64 `json:"tenant_rejected"`
	Snapshots       uint64 `json:"snapshots"`
	SnapshotErrors  uint64 `json:"snapshot_errors"`
	SnapshotServes  uint64 `json:"snapshot_serves"`
	SnapshotServeEr uint64 `json:"snapshot_serve_errors"`
}

// windowInfo reports the epoch shape when the summarizer is a Window.
type windowInfo struct {
	WindowSize int    `json:"window_size"`
	Rotations  uint64 `json:"rotations"`
}

func (s *Server) counterSnapshot() serverCounters {
	return serverCounters{
		TCPFrames:       s.ctr.tcpFrames.Load(),
		UDPFrames:       s.ctr.udpFrames.Load(),
		Records:         s.ctr.records.Load(),
		TCPBytes:        s.ctr.tcpBytes.Load(),
		TCPReads:        s.ctr.tcpReads.Load(),
		UDPBytes:        s.ctr.udpBytes.Load(),
		DecodeErrors:    s.ctr.decodeErrors.Load(),
		TransportErrors: s.ctr.transportErrors.Load(),
		ConnsTotal:      s.ctr.connsTotal.Load(),
		ConnsActive:     s.ctr.connsActive.Load(),
		ConnsRejected:   s.ctr.connsRejected.Load(),
		IdleEvictions:   s.ctr.idleEvictions.Load(),
		UDPOversized:    s.ctr.udpOversized.Load(),
		UDPTruncated:    s.ctr.udpTruncated.Load(),
		QueueDepth:      s.waiting.Load(),
		Inflight:        s.inflight.Load(),
		Degraded:        s.degraded.Load(),
		DegradedEntries: s.ctr.degradedEntries.Load(),
		DegradedExits:   s.ctr.degradedExits.Load(),
		ShedBatches:     s.ctr.shedBatches.Load(),
		ShedRecords:     s.ctr.shedRecords.Load(),
		AuthFailures:    s.ctr.authFailures.Load(),
		UDPAuthDropped:  s.ctr.udpAuthDropped.Load(),
		TenantsActive:   s.reg.count(),
		TenantsAdmitted: s.reg.admitted.Load(),
		TenantEvictions: s.reg.evictions.Load(),
		TenantRejected:  s.reg.rejected.Load(),
		Snapshots:       s.ctr.snapshots.Load(),
		SnapshotErrors:  s.ctr.snapshotErrs.Load(),
		SnapshotServes:  s.ctr.snapshotServes.Load(),
		SnapshotServeEr: s.ctr.snapshotServeEr.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.requestTenant(w, r)
	if !ok {
		return
	}
	sum := t.summarizer()
	resp := statsResponse{
		SchemaVersion: StatsSchemaVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Tenant:        t.name,
		K:             sum.K(),
		MemoryBytes:   sum.MemoryBytes(),
		Engine:        sum.Stats(),
		Server:        s.counterSnapshot(),
		Latency:       s.obs.latencyStats(),
	}
	if win, ok := sum.(*heavykeeper.Window); ok {
		resp.Window = &windowInfo{WindowSize: win.WindowSize(), Rotations: win.Rotations()}
	}
	// Open requests and the admin token see the full tenant roster; a
	// tenant-scoped token sees only its own audit line (its existence is
	// no secret to itself, and senders need their own drain progress).
	if info, authed := r.Context().Value(authCtxKey{}).(authInfo); !authed || info.admin {
		for _, tn := range s.reg.snapshot() {
			tsum := tn.summarizer()
			resp.Tenants = append(resp.Tenants, tenantStats{
				Name:        tn.name,
				K:           tsum.K(),
				MemoryBytes: tsum.MemoryBytes(),
				Frames:      tn.frames.Load(),
				Records:     tn.records.Load(),
			})
		}
	} else {
		resp.Tenants = []tenantStats{{
			Name:        t.name,
			K:           sum.K(),
			MemoryBytes: sum.MemoryBytes(),
			Frames:      t.frames.Load(),
			Records:     t.records.Load(),
		}}
	}
	writeJSON(w, resp)
}

// indexStatsResponse is the /indexstats document. Available reports
// whether the configured store surfaces an open-addressed index at all;
// every frontend answers uniformly through StoreIndexReporter, so this
// handler never switches on the concrete summarizer type.
type indexStatsResponse struct {
	Available bool                         `json:"available"`
	Stats     *heavykeeper.StoreIndexStats `json:"stats,omitempty"`
}

func (s *Server) handleIndexStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.requestTenant(w, r)
	if !ok {
		return
	}
	resp := indexStatsResponse{}
	if rep, ok := t.summarizer().(heavykeeper.StoreIndexReporter); ok {
		if st, ok := rep.StoreIndexStats(); ok {
			resp.Available = true
			resp.Stats = &st
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	t, ok := s.requestTenant(w, r)
	if !ok {
		return
	}
	info := map[string]string{}
	for k, v := range s.cfg.Info {
		info[k] = v
	}
	// k reflects the addressed tenant's current summarizer — grow_k may
	// have raised it past the construction-time value in Info.
	info["k"] = strconv.Itoa(t.summarizer().K())
	info["tenant"] = t.name
	writeJSON(w, info)
}

// handleMetrics renders the Prometheus text exposition built on
// internal/metrics.PromText: server ingest counters, engine event
// counters and store index gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sum := s.reg.def.summarizer()
	ctr := s.counterSnapshot()
	var p metrics.PromText

	p.Gauge("hkd_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.CounterLabeled("hkd_ingest_frames_total", "Wire frames ingested.",
		map[string]string{"transport": "tcp"}, float64(ctr.TCPFrames))
	p.CounterLabeled("hkd_ingest_frames_total", "Wire frames ingested.",
		map[string]string{"transport": "udp"}, float64(ctr.UDPFrames))
	p.CounterLabeled("hkd_ingest_bytes_total", "Wire bytes ingested.",
		map[string]string{"transport": "tcp"}, float64(ctr.TCPBytes))
	p.CounterLabeled("hkd_ingest_bytes_total", "Wire bytes ingested.",
		map[string]string{"transport": "udp"}, float64(ctr.UDPBytes))
	p.Counter("hkd_tcp_reads_total", "Socket reads on stream-ingest connections.", float64(ctr.TCPReads))
	p.Counter("hkd_ingest_records_total", "Arrival records ingested.", float64(ctr.Records))
	p.Counter("hkd_decode_errors_total", "Malformed frames or datagrams rejected.", float64(ctr.DecodeErrors))
	p.Counter("hkd_transport_errors_total", "Ingest connections lost to resets, deadlines or force-close.", float64(ctr.TransportErrors))
	p.CounterLabeled("hkd_udp_dropped_total", "Datagrams dropped before decode.",
		map[string]string{"reason": "oversized"}, float64(ctr.UDPOversized))
	p.CounterLabeled("hkd_udp_dropped_total", "Datagrams dropped before decode.",
		map[string]string{"reason": "truncated"}, float64(ctr.UDPTruncated))
	p.Counter("hkd_connections_total", "Stream-ingest connections accepted.", float64(ctr.ConnsTotal))
	p.Gauge("hkd_connections_active", "Stream-ingest connections open now.", float64(ctr.ConnsActive))
	p.Counter("hkd_connections_rejected_total", "Connections refused at the MaxConns admission cap.", float64(ctr.ConnsRejected))
	p.Counter("hkd_idle_evictions_total", "Stream connections evicted for idling past IdleTimeout.", float64(ctr.IdleEvictions))
	p.Gauge("hkd_ingest_queue_depth", "Batches queued behind the inflight bound right now.", float64(ctr.QueueDepth))
	p.Gauge("hkd_ingest_inflight", "Summarizer batch calls executing right now.", float64(ctr.Inflight))
	degraded := 0.0
	if ctr.Degraded {
		degraded = 1
	}
	p.Gauge("hkd_degraded", "1 while the server is shedding load, else 0.", degraded)
	p.Counter("hkd_degraded_entries_total", "Transitions into degraded mode.", float64(ctr.DegradedEntries))
	p.Counter("hkd_degraded_exits_total", "Recoveries out of degraded mode.", float64(ctr.DegradedExits))
	p.Counter("hkd_shed_batches_total", "Batches dropped by degraded-mode sampling.", float64(ctr.ShedBatches))
	p.Counter("hkd_shed_records_total", "Records inside shed batches.", float64(ctr.ShedRecords))
	p.Counter("hkd_auth_failures_total", "Requests and frames rejected for bad or missing credentials.", float64(ctr.AuthFailures))
	p.Counter("hkd_udp_auth_dropped_total", "Datagrams dropped because authenticated mode cannot attribute them.", float64(ctr.UDPAuthDropped))
	p.Gauge("hkd_tenants_active", "Tenants live in the registry.", float64(ctr.TenantsActive))
	p.Counter("hkd_tenants_admitted_total", "Dynamic tenants admitted.", float64(ctr.TenantsAdmitted))
	p.Counter("hkd_tenant_evictions_total", "Tenants evicted (LRU or explicit).", float64(ctr.TenantEvictions))
	p.Counter("hkd_tenant_rejected_total", "Tenant admissions refused at the limits.", float64(ctr.TenantRejected))
	for _, tn := range s.reg.snapshot() {
		lbl := map[string]string{"tenant": tn.name}
		p.CounterLabeled("hkd_tenant_frames_total", "Wire frames ingested per tenant.", lbl, float64(tn.frames.Load()))
		p.CounterLabeled("hkd_tenant_records_total", "Arrival records ingested per tenant.", lbl, float64(tn.records.Load()))
		p.GaugeLabeled("hkd_tenant_memory_bytes", "Logical summarizer footprint per tenant.", lbl, float64(tn.summarizer().MemoryBytes()))
	}
	p.Counter("hkd_snapshots_total", "Snapshots written.", float64(ctr.Snapshots))
	p.Counter("hkd_snapshot_errors_total", "Snapshot attempts that failed.", float64(ctr.SnapshotErrors))
	p.Counter("hkd_snapshot_serves_total", "GET /snapshot responses streamed successfully.", float64(ctr.SnapshotServes))
	p.Counter("hkd_snapshot_serve_errors_total", "GET /snapshot requests that failed.", float64(ctr.SnapshotServeEr))
	p.Counter("hkd_snapshot_unchanged_total", "GET /snapshot long-polls answered 304: no change within the wait.", float64(s.ctr.snapshotUnchanged.Load()))

	st := sum.Stats()
	p.Counter("hkd_engine_packets_total", "Arrivals the engine processed.", float64(st.Packets))
	p.Counter("hkd_engine_increments_total", "Matching-fingerprint counter increments.", float64(st.Increments))
	p.Counter("hkd_engine_decays_total", "Successful counter decays.", float64(st.Decays))
	p.Counter("hkd_engine_replacements_total", "Bucket ownership replacements.", float64(st.Replacements))
	p.Counter("hkd_engine_expansions_total", "Auto-expansion events.", float64(st.Expansions))
	p.Gauge("hkd_summary_k", "Configured report size.", float64(sum.K()))
	p.Gauge("hkd_summary_memory_bytes", "Logical memory footprint.", float64(sum.MemoryBytes()))

	if r, ok := sum.(heavykeeper.StoreIndexReporter); ok {
		if ix, ok := r.StoreIndexStats(); ok {
			p.Gauge("hkd_store_index_slots", "Store index table size.", float64(ix.TableSize))
			p.Gauge("hkd_store_index_occupied", "Store index live slots.", float64(ix.Occupied))
			p.Gauge("hkd_store_index_max_probe", "Worst current probe displacement.", float64(ix.MaxProbe))
			if ix.TableSize > 0 {
				p.Gauge("hkd_store_index_load", "Store index occupancy fraction (occupied/slots).",
					float64(ix.Occupied)/float64(ix.TableSize))
			}
		}
	}

	s.obs.promHistograms(&p)
	s.obs.promRuntime(&p)

	w.Header().Set("Content-Type", metrics.ContentType)
	p.WriteTo(w)
}
