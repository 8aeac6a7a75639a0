package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// rawEvery keeps one raw span in this many per recorder.
const rawEvery = 1000

// tracer records spans around the benchmark's calls into each layer. Each
// goroutine records into its own recorder, so recording takes no lock; the
// recorders are merged when the run ends. A nil *tracer records nothing.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	recs  []*recorder
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// recorder returns a new per-goroutine recorder, nil for a nil tracer.
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{t0: t.start, layers: map[string]*layerAgg{}}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

type recorder struct {
	t0     time.Time
	layers map[string]*layerAgg
	n      uint64
	raw    []rawSpan
}

type layerAgg struct {
	parent string
	count  uint64
	total  time.Duration
	hist   obs.Histogram
}

type rawSpan struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// end records a span of layer name, caused by a span of layer parent, that
// began at start and ends now. It is a no-op on a nil recorder.
func (r *recorder) end(name, parent string, start time.Time) {
	if r == nil {
		return
	}
	d := time.Since(start)
	l := r.layers[name]
	if l == nil {
		l = &layerAgg{parent: parent}
		r.layers[name] = l
	}
	l.count++
	l.total += d
	l.hist.Observe(d)
	if r.n++; r.n%rawEvery == 1 {
		r.raw = append(r.raw, rawSpan{Name: name, Parent: parent,
			StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3, DurUS: float64(d.Nanoseconds()) / 1e3})
	}
}

// layerSummary is one layer's merged spans. Self time is the total minus
// the totals of the layer's child spans.
type layerSummary struct {
	Parent  string  `json:"parent,omitempty"`
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
}

// summary merges every recorder. Call it after the recording goroutines
// have finished.
func (t *tracer) summary() map[string]layerSummary {
	merged := map[string]*layerAgg{}
	for _, r := range t.recs {
		for name, l := range r.layers {
			m := merged[name]
			if m == nil {
				m = &layerAgg{parent: l.parent}
				merged[name] = m
			}
			m.count += l.count
			m.total += l.total
			m.hist.Merge(&l.hist)
		}
	}
	out := map[string]layerSummary{}
	for name, l := range merged {
		sn := l.hist.Snapshot()
		out[name] = layerSummary{
			Parent:  l.parent,
			Count:   l.count,
			TotalMS: float64(l.total.Nanoseconds()) / 1e6,
			SelfMS:  float64(l.total.Nanoseconds()) / 1e6,
			P50US:   float64(sn.Quantile(0.50).Nanoseconds()) / 1e3,
			P99US:   float64(sn.Quantile(0.99).Nanoseconds()) / 1e3,
		}
	}
	for _, l := range merged {
		if p, ok := out[l.parent]; ok {
			p.SelfMS -= float64(l.total.Nanoseconds()) / 1e6
			out[l.parent] = p
		}
	}
	return out
}

// write stores the merged layers and the sampled raw spans as JSON.
func (t *tracer) write(path string) error {
	var raw []rawSpan
	for _, r := range t.recs {
		raw = append(raw, r.raw...)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].StartUS < raw[j].StartUS })
	body, err := json.MarshalIndent(struct {
		Layers map[string]layerSummary `json:"layers"`
		Raw    []rawSpan               `json:"raw_every_1000th"`
	}{t.summary(), raw}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
