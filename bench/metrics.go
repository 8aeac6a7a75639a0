package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef declares one reported metric. The end-to-end set is what a
// run without -trace reports and BENCHMARK.json bounds; the per-layer set
// is what a -trace run reports.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_mpps", "Mpps"},
	{"daemon_cpu_ns_per_rec", "ns"},
	{"peak_rss_mb", "MB"},
	{"precision", "fraction"},
	{"global_lag_p50_ms", "ms"},
	{"global_lag_p90_ms", "ms"},
}

var perLayerMetrics = []metricDef{
	{"hash.ns_per_key", "ns/key"},
	{"core.ns_per_key", "ns/key"},
	{"core.decay_probes_per_key", "count"},
	{"core.decays_per_probe", "fraction"},
	{"core.replacements_per_key", "count"},
	{"topk.ns_per_key", "ns/key"},
	{"store.load", "fraction"},
	{"store.max_probe", "count"},
	{"store.probe_mean", "count"},
	{"frontend.ns_per_key", "ns/key"},
	{"frontend.sharded_mpps_p1", "Mpps"},
	{"frontend.sharded_mpps_p2", "Mpps"},
	{"frontend.scaling_p2", "ratio"},
	{"wire.encode_ns_per_key", "ns/key"},
	{"wire.decode_ns_per_key", "ns/key"},
	{"wire.decode_ns_per_frame", "ns/frame"},
	{"wire.bytes_per_key", "B/key"},
	{"server.ns_per_key", "ns/key"},
	{"server.ns_per_key_p2", "ns/key"},
	{"server.ingest_batch_p50_us", "us"},
	{"server.ingest_batch_p99_us", "us"},
	{"server.queue_depth_max", "count"},
	{"server.frames_per_s", "1/s"},
	{"server.shed_records", "count"},
	{"server.degraded_entries", "count"},
	{"server.decode_errors", "count"},
	{"server.unclean_exits", "count"},
	{"client.send_p50_us", "us"},
	{"client.send_p99_us", "us"},
	{"client.cpu_ns_per_rec", "ns"},
	{"client.resent_frames", "count"},
	{"http.topk_p50_us", "us"},
	{"http.topk_p99_us", "us"},
	{"http.query_p50_us", "us"},
	{"http.topk_bytes", "B"},
	{"snapshot.write_p99_ms", "ms"},
	{"snapshot.writes", "count"},
	{"snapshot.bytes", "B"},
	{"snapshot.verify_ms", "ms"},
	{"snapshot.restore_s", "s"},
	{"cluster.collect_p50_ms", "ms"},
	{"cluster.collect_p99_ms", "ms"},
	{"cluster.fold_ms", "ms"},
	{"cluster.collect_failures", "count"},
	{"runtime.gc_per_mrec", "count"},
	{"runtime.heap_mb", "MB"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.gauge_ns_per_rec", "ns/rec"},
	{"host.steal", "fraction"},
}

// value is one reported metric. Samples is the sample count behind a
// percentile.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// quantile is the q-quantile of xs, interpolating linearly between the
// nearest order statistics of the exact sorted samples; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// check is one pass/fail correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runChecks are the checks every run makes.
func runChecks(w workload, m *measurement, precision float64) []check {
	srv := m.stats.Server
	cs := []check{
		{
			Name:   "records applied == records sent",
			OK:     m.applied == uint64(m.records()),
			Detail: fmt.Sprintf("%d applied, %d sent", m.applied, m.records()),
		},
		{
			Name:   "no decode errors, transport errors or shed records",
			OK:     srv.DecodeErrors == 0 && srv.TransportErrors == 0 && srv.ShedRecords == 0,
			Detail: fmt.Sprintf("decode %d, transport %d, shed %d", srv.DecodeErrors, srv.TransportErrors, srv.ShedRecords),
		},
		{
			Name:   fmt.Sprintf("precision >= %.2f", w.minPrecision),
			OK:     precision >= w.minPrecision,
			Detail: fmt.Sprintf("%.4f", precision),
		},
	}
	if w.snapshot {
		cs = append(cs, check{Name: "restored /topk equals pre-shutdown /topk", OK: m.restoredOK, Detail: m.restoreDetail})
	}
	return cs
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(tf *traffic, m *measurement) (metrics, extra map[string]value, precision float64) {
	counts := tf.truth(m.sentFrames)
	precision, are := tf.accuracy(counts, uint64(m.heartbeats)*heartbeatWeight, m.topk)
	recs := float64(m.applied)
	pct := func(xs []float64, q float64) value { return value{quantile(xs, q), "ms", len(xs)} }
	setup, cpu := quantile(m.setup, 0.5), m.daemonCPU*1e9/recs
	metrics = map[string]value{
		"setup_s":               {setup * m.wallSpeed(), "s", len(m.setup)},
		"ingest_mpps":           {m.scaledMpps(tf.w), "Mpps", 0},
		"daemon_cpu_ns_per_rec": {cpu * m.cpuSpeed(), "ns", 0},
		"peak_rss_mb":           {m.peakRSS, "MB", 0},
		"precision":             {precision, "fraction", 0},
		"global_lag_p50_ms":     pct(m.globalLag, 0.5),
		"global_lag_p90_ms":     pct(m.globalLag, 0.9),
	}
	// Measured on every workload but not bounded: under closed-loop load
	// read latencies and hkd's freshness swing by a third or more between
	// runs, competing with ingest for the frontend lock and two saturated
	// cores, and freshness there is the socket backlog, whose size TCP
	// tunes anew in each run. ARE is close to 0 on the elephant workloads.
	extra = map[string]value{
		"freshness_p50_ms":        pct(m.fresh, 0.5),
		"freshness_p90_ms":        pct(m.fresh, 0.9),
		"global_freshness_p50_ms": pct(m.globalFresh, 0.5),
		"global_freshness_p90_ms": pct(m.globalFresh, 0.9),
		"query_p50_ms":            pct(m.query, 0.5),
		"query_p90_ms":            pct(m.query, 0.9),
		"global_query_p50_ms":     pct(m.globalQuery, 0.5),
		"global_query_p90_ms":     pct(m.globalQuery, 0.9),
		"are":                     {are, "fraction", 0},
		"fail_ratio":              {float64(m.failed) / float64(m.attempted), "fraction", 0},
		"records":                 {recs, "count", 0},
		"elapsed_s":               {m.elapsed, "s", 0},
		// The host-scaled metrics as measured, and the host's speed.
		"setup_s_measured":               {setup, "s", len(m.setup)},
		"ingest_mpps_measured":           {m.mpps(), "Mpps", 0},
		"daemon_cpu_ns_per_rec_measured": {cpu, "ns", 0},
		"host_gauge_ns_per_rec":          {m.gauge, "ns", m.gaugeSamples},
		"host_steal":                     {m.steal, "fraction", 0},
		"host_cpu_speed":                 {m.cpuSpeed(), "ratio", 0},
		"host_wall_speed":                {m.wallSpeed(), "ratio", 0},
	}
	return metrics, extra, precision
}

// scaledMpps is ingest_mpps: on a closed loop, where the host's speed sets
// the rate, the measured rate at the gauge's nominal speed; on an open
// loop, where the generator's schedule sets it, the rate achieved.
func (m *measurement) scaledMpps(w workload) float64 {
	if w.rate > 0 {
		return m.mpps()
	}
	return m.mpps() / m.wallSpeed()
}
