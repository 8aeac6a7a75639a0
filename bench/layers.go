package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scraper samples hkd every 250 ms during a traced run, catching the
// queue-depth and heap peaks a single read after the run would miss.
type scraper struct {
	ds       *daemonSet
	queueMax int64
	heapMax  float64
	gc0      float64
	samples  int
}

// statsExtra is the part of hkd's /stats document the SDK does not model.
type statsExtra struct {
	Server struct {
		QueueDepth      int64  `json:"queue_depth"`
		DegradedEntries uint64 `json:"degraded_entries"`
	} `json:"server"`
	Latency struct {
		IngestBatch   latencySummary `json:"ingest_batch"`
		SnapshotWrite latencySummary `json:"snapshot_write"`
	} `json:"latency"`
}

type latencySummary struct {
	Count uint64  `json:"count"`
	P50S  float64 `json:"p50_s"`
	P99S  float64 `json:"p99_s"`
}

func (s *scraper) sample(ctx context.Context) error {
	st, err := s.ds.hkd.api.Stats(ctx)
	if err != nil {
		return err
	}
	var x statsExtra
	if err := json.Unmarshal(st.Raw, &x); err != nil {
		return err
	}
	text, err := getBody(ctx, s.ds.hkd.hc, "http://"+s.ds.hkd.http+"/metrics")
	if err != nil {
		return err
	}
	s.queueMax = max(s.queueMax, x.Server.QueueDepth)
	s.heapMax = max(s.heapMax, promValue(text, "hkd_heap_bytes"))
	if s.samples == 0 {
		s.gc0 = promValue(text, "hkd_gc_cycles_total")
	}
	s.samples++
	return nil
}

// loop samples until stop is closed; a failed sample is skipped.
func (s *scraper) loop(ctx context.Context, stop <-chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.sample(ctx)
		}
	}
}

// indexStats is hkd's /indexstats document.
type indexStats struct {
	Stats struct {
		TableSize int   `json:"table_size"`
		Occupied  int   `json:"occupied"`
		MaxProbe  int   `json:"max_probe"`
		ProbeHist []int `json:"probe_hist"`
	} `json:"stats"`
}

// daemonLayers reads the per-layer counters hkd and hkagg keep: engine
// events, store index shape, ingest and HTTP latency histograms, snapshot
// writes, collects and runtime gauges.
func (m *measurement) daemonLayers(ctx context.Context, ds *daemonSet) error {
	L := m.layers
	var x statsExtra
	if err := json.Unmarshal(m.stats.Raw, &x); err != nil {
		return err
	}
	eng, srv := m.stats.Engine, m.stats.Server
	L["core.decay_probes_per_key"] = ratio(eng.DecayProbes, eng.Packets)
	L["core.decays_per_probe"] = ratio(eng.Decays, eng.DecayProbes)
	L["core.replacements_per_key"] = ratio(eng.Replacements, eng.Packets)

	var ix indexStats
	if err := getJSON(ctx, ds.hkd.hc, "http://"+ds.hkd.http+"/indexstats", &ix); err != nil {
		return err
	}
	displaced := 0
	for d, n := range ix.Stats.ProbeHist {
		displaced += d * n
	}
	L["store.load"] = ratio(uint64(ix.Stats.Occupied), uint64(ix.Stats.TableSize))
	L["store.max_probe"] = float64(ix.Stats.MaxProbe)
	L["store.probe_mean"] = ratio(uint64(displaced), uint64(ix.Stats.Occupied))

	L["server.ingest_batch_p50_us"] = x.Latency.IngestBatch.P50S * 1e6
	L["server.ingest_batch_p99_us"] = x.Latency.IngestBatch.P99S * 1e6
	L["server.queue_depth_max"] = float64(m.scr.queueMax)
	L["server.frames_per_s"] = float64(srv.TCPFrames) / m.elapsed
	L["server.shed_records"] = float64(srv.ShedRecords)
	L["server.degraded_entries"] = float64(x.Server.DegradedEntries)
	L["server.decode_errors"] = float64(srv.DecodeErrors)
	L["snapshot.write_p99_ms"] = x.Latency.SnapshotWrite.P99S * 1e3
	L["snapshot.writes"] = float64(srv.Snapshots)

	text, err := getBody(ctx, ds.hkd.hc, "http://"+ds.hkd.http+"/metrics")
	if err != nil {
		return err
	}
	L["http.topk_p50_us"] = promQuantile(text, "hkd_http_request_seconds", `route="topk"`, 0.50) * 1e6
	L["http.topk_p99_us"] = promQuantile(text, "hkd_http_request_seconds", `route="topk"`, 0.99) * 1e6
	L["http.query_p50_us"] = promQuantile(text, "hkd_http_request_seconds", `route="query"`, 0.50) * 1e6
	gc := promValue(text, "hkd_gc_cycles_total") - m.scr.gc0
	L["runtime.gc_per_mrec"] = gc / (float64(m.applied) / 1e6)
	L["runtime.heap_mb"] = max(m.scr.heapMax, promValue(text, "hkd_heap_bytes")) / (1 << 20)

	var as aggStats
	if err := getJSON(ctx, ds.agg.hc, "http://"+ds.agg.http+"/stats", &as); err != nil {
		return err
	}
	if len(as.Nodes) == 1 {
		L["cluster.collect_failures"] = float64(as.Nodes[0].Failures)
	}
	text, err = getBody(ctx, ds.agg.hc, "http://"+ds.agg.http+"/metrics")
	if err != nil {
		return err
	}
	L["cluster.collect_p50_ms"] = promQuantile(text, "hkagg_collect_seconds", "", 0.50) * 1e3
	L["cluster.collect_p99_ms"] = promQuantile(text, "hkagg_collect_seconds", "", 0.99) * 1e3
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// promValue returns the value of an unlabeled sample in Prometheus text.
func promValue(text []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// promQuantile estimates quantile q of a Prometheus histogram series whose
// labels contain match, interpolating linearly inside the bucket holding
// the rank. The daemons' buckets are a factor of four apart, so this is a
// coarse estimate.
func promQuantile(text []byte, family, match string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"_bucket{") || !strings.Contains(line, match) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			continue
		}
		le := line[i+4 : i+4+strings.IndexByte(line[i+4:], '"')]
		b := bucket{le: math.Inf(1)}
		if le != "+Inf" {
			b.le, _ = strconv.ParseFloat(le, 64)
		}
		b.cum, _ = strconv.ParseFloat(line[j+1:], 64)
		bs = append(bs, b)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}
