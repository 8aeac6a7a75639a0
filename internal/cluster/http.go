package cluster

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/collector"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The aggregator's HTTP API mirrors hkd's shape so existing tooling (the
// hkbench verifier, curl muscle memory) works against either tier, with
// one addition everywhere: degraded-answer annotations. Every /topk and
// /stats response carries the coverage fraction and per-node staleness,
// and /healthz speaks 503 whenever coverage < 1, so a caller can always
// tell a complete global answer from one leaning on last-good data.
//
//	GET /topk?n=K  global top-n flows + coverage + per-node status
//	GET /stats     aggregator counters, health machine states, staleness
//	GET /healthz   JSON liveness; 200 at full coverage, 503 + Retry-After otherwise
//	GET /metrics   Prometheus text (hkagg_* series)
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /topk", a.handleTopK)
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	return a.withObs(mux)
}

// withObs echoes (or assigns) the X-Request-Id header and access-logs
// every aggregator request, mirroring hkd's middleware so one global
// query is traceable across tiers.
func (a *Aggregator) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
		a.log.Debug("http request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"duration_us", time.Since(start).Microseconds())
	})
}

// flowJSON matches hkd's /topk flow encoding: id hex, count decimal.
type flowJSON struct {
	ID    string `json:"id"`
	Count uint64 `json:"count"`
}

// globalTopKResponse is the aggregator's /topk document.
type globalTopKResponse struct {
	Coverage float64      `json:"coverage"`
	Nodes    []NodeStatus `json:"nodes"`
	Flows    []flowJSON   `json:"flows"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (a *Aggregator) handleTopK(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	flows, err := a.GlobalTopK()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if n > 0 && len(flows) > n {
		flows = flows[:n]
	}
	nodes, coverage := a.Status()
	resp := globalTopKResponse{Coverage: coverage, Nodes: nodes, Flows: make([]flowJSON, len(flows))}
	for i, f := range flows {
		resp.Flows[i] = flowJSON{ID: hex.EncodeToString(f.ID), Count: f.Count}
	}
	writeJSON(w, resp)
}

// StatsSchemaVersion is the schema_version stamped into the /stats and
// /healthz JSON documents, matching hkd's versioning convention so SDK
// decoding can evolve against either tier.
const StatsSchemaVersion = 2

// statsResponse is the aggregator's /stats document.
type statsResponse struct {
	SchemaVersion int          `json:"schema_version"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Policy        string       `json:"policy"`
	Coverage      float64      `json:"coverage"`
	NodesTotal    int          `json:"nodes_total"`
	NodesHealthy  int          `json:"nodes_healthy"`
	Nodes         []NodeStatus `json:"nodes"`
}

func (a *Aggregator) statsSnapshot() statsResponse {
	nodes, coverage := a.Status()
	healthy := 0
	for _, n := range nodes {
		if n.State == Healthy.String() {
			healthy++
		}
	}
	policy := "sum"
	if a.cfg.Policy == collector.Max {
		policy = "max"
	}
	return statsResponse{
		SchemaVersion: StatsSchemaVersion,
		UptimeSeconds: time.Since(a.started).Seconds(),
		Policy:        policy,
		Coverage:      coverage,
		NodesTotal:    len(nodes),
		NodesHealthy:  healthy,
		Nodes:         nodes,
	}
}

func (a *Aggregator) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, a.statsSnapshot())
}

// healthzResponse is the /healthz JSON document, schema-versioned like
// hkd's so the SDK decodes either tier.
type healthzResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Status        string `json:"status"`
}

// handleHealthz reports cluster-level health: 200 only at full coverage.
// Retry-After is the collection interval — one more cadence is the
// soonest the picture can improve.
func (a *Aggregator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_, coverage := a.Status()
	if coverage < 1 {
		retry := int64(a.cfg.Interval / time.Second)
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

func (a *Aggregator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := a.statsSnapshot()
	var p metrics.PromText
	p.Gauge("hkagg_uptime_seconds", "Seconds since the aggregator started.", st.UptimeSeconds)
	p.Gauge("hkagg_nodes_total", "Configured hkd members.", float64(st.NodesTotal))
	p.Gauge("hkagg_nodes_healthy", "Members currently in the healthy state.", float64(st.NodesHealthy))
	p.Gauge("hkagg_coverage", "Healthy members / total members; < 1 means degraded answers.", st.Coverage)
	for _, n := range st.Nodes {
		labels := map[string]string{"node": n.Name}
		p.CounterLabeled("hkagg_collects_total", "Successful collections, unchanged answers included.", labels, float64(n.Collects))
		p.CounterLabeled("hkagg_collects_unchanged_total", "Long-polls the member answered unchanged.", labels, float64(n.Unchanged))
		p.CounterLabeled("hkagg_collect_bytes_total", "Response bytes collected: report frames or snapshots.", labels, float64(n.CollectBytes))
		p.CounterLabeled("hkagg_collect_failures_total", "Failed snapshot collections.", labels, float64(n.Failures))
		p.CounterLabeled("hkagg_health_transitions_total", "Health-machine state changes.", labels, float64(n.Transitions))
		p.GaugeLabeled("hkagg_staleness_seconds", "Age of the member's last-good snapshot (-1 before any).", labels, n.StalenessSeconds)
		state := 0.0
		switch n.State {
		case Suspect.String():
			state = 1
		case Down.String():
			state = 2
		}
		p.GaugeLabeled("hkagg_node_state", "Health state: 0 healthy, 1 suspect, 2 down.", labels, state)
	}
	bounds := obs.PromBounds()
	for _, n := range a.nodes {
		sn := n.lat.Snapshot()
		p.Histogram("hkagg_collect_seconds", "Per-node collect latency (fetch + CRC verify + decode), long-poll wait excluded.",
			map[string]string{"node": n.name}, bounds, sn.PromCumulative(), sn.SumSeconds(), sn.Count)
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	p.WriteTo(w)
}
