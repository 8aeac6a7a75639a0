// Command bench is the end-to-end benchmark of hkd, the HeavyKeeper top-k
// daemon. It builds cmd/hkd and cmd/hkagg from the checkout it sits in,
// starts them as separate processes on loopback, drives a workload from
// this process through the client SDK, checks that the daemons' answers
// are correct, and prints every metric by name and unit.
//
// Usage, from this directory:
//
//	go run .                                   # all four workloads
//	go run . -workload mice-b1024 -seed 2      # one workload
//	go run . -trace 1                          # per-layer metrics and cost ledger
//	go run . -quick                            # about 1/200 scale
//
// From the repository root, run.sh builds and runs the same program with
// Go's caches kept inside the checkout. With -workload, the last line of
// standard output is a one-line JSON result with the keys correct,
// attempted, failed and metrics. A failed check exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	work     string
	traceOut string
}

// runReport is one workload's result document.
type runReport struct {
	Workload  string                  `json:"workload"`
	Why       string                  `json:"why"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  map[string]int          `json:"failures,omitempty"`
	Metrics   map[string]value        `json:"metrics"`
	Extra     map[string]value        `json:"extra,omitempty"`
	Checks    []check                 `json:"checks"`
	Ledger    *ledger                 `json:"ledger,omitempty"`
	Spans     map[string]layerSummary `json:"spans,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 1, "trace generator seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run (default 0.5 with -quick)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics and the cost ledger")
	quick := fs.Bool("quick", false, "shrink traces to about 1/200 for a smoke run")
	root := fs.String("root", "", "repository root (default: found from the working directory)")
	traceOut := fs.String("trace-out", "", "span file of a -trace run (default: <root>/.bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, a positive -seconds, and no arguments")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, quick: *quick, traceOut: *traceOut}
	if *quick && !flagSet(fs, "seconds") {
		cfg.seconds = 0.5
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	if *root == "" {
		var err error
		if *root, err = findRoot(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	cfg.work = filepath.Join(*root, ".bench_build")

	reports, err := runAll(*root, selected, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"workloads": reports}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	correct := true
	for _, r := range reports {
		correct = correct && r.Correct
	}
	if len(reports) == 1 {
		line, err := json.Marshal(result(reports[0]))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !correct {
		return 1
	}
	return 0
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// findRoot walks up from the working directory to the module that holds
// cmd/hkd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "cmd", "hkd")); err == nil && fi.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/hkd above the working directory; pass -root")
		}
		dir = parent
	}
}

// runAll builds the daemons once and runs every selected workload.
func runAll(root string, selected []workload, cfg config) ([]*runReport, error) {
	bins, err := buildBinaries(root, filepath.Join(cfg.work, "bin"))
	if err != nil {
		return nil, err
	}
	var reports []*runReport
	for _, w := range selected {
		rep, err := runWorkload(bins, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runWorkload runs w once untraced, or, with -trace, once untraced and
// once traced followed by the in-process ledger.
func runWorkload(bins binaries, w workload, cfg config) (*runReport, error) {
	tf, err := newTraffic(w, cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "runs", w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	rep := &runReport{Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Failures: map[string]int{}}
	opt := runOptions{seconds: cfg.seconds, starts: 9, seed: cfg.seed}
	if cfg.trace {
		opt.starts = 1
	}
	base, err := measure(bins, tf, filepath.Join(dir, "untraced"), opt)
	if err != nil {
		return nil, err
	}
	metrics, extra, precision := endToEnd(tf, base)
	rep.add(base, runChecks(w, base, precision), "")
	if !cfg.trace {
		rep.Metrics, rep.Extra = metrics, extra
		return rep.finish(endToEndMetrics), nil
	}

	tr := newTracer()
	opt.tracer = tr
	m, err := measure(bins, tf, filepath.Join(dir, "traced"), opt)
	if err != nil {
		return nil, err
	}
	_, _, precision = endToEnd(tf, m)
	checks := runChecks(w, m, precision)
	e, err := tf.encode()
	if err != nil {
		return nil, err
	}
	if w.conns == 1 {
		ok, detail, err := twin(tf, e, m)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check{Name: "frontend twin equals hkd /topk flow for flow", OK: ok, Detail: detail})
	}
	start := time.Now()
	led, err := runLedger(tf, e, tr.recorder())
	if err != nil {
		return nil, err
	}
	tr.recorder().end("ledger", "", start)
	rep.add(m, checks, "traced: ")
	rep.Ledger, rep.Spans = led, tr.summary()
	rep.Metrics = perLayer(w, base, m, led, rep.Spans)
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(cfg.work, "spans-"+w.name+".json")
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return rep.finish(perLayerMetrics), nil
}

// add folds one measurement's operation counts and checks into the report.
func (r *runReport) add(m *measurement, checks []check, prefix string) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	for k, n := range m.failures {
		r.Failures[prefix+k] += n
	}
	for _, c := range checks {
		c.Name = prefix + c.Name
		r.Checks = append(r.Checks, c)
	}
}

// finish requires every declared metric to be present and finite, and
// sets Correct from the checks.
func (r *runReport) finish(defs []metricDef) *runReport {
	var missing []string
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, d.name)
			v.Value = 0
		}
		v.Unit = d.unit
		r.Metrics[d.name] = v
	}
	if len(missing) > 0 {
		r.Checks = append(r.Checks, check{Name: "every metric measured", Detail: fmt.Sprintf("missing or not finite: %v", missing)})
	}
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
	return r
}

// perLayer assembles a traced run's per-layer metrics from the daemons'
// counters, the spans and the ledger; base is the untraced run before it.
func perLayer(w workload, base, m *measurement, led *ledger, spans map[string]layerSummary) map[string]value {
	out := map[string]value{}
	for k, v := range m.layers {
		out[k] = value{Value: v}
	}
	set := func(name string, v float64) { out[name] = value{Value: v} }
	for _, row := range led.Stack {
		// The wire row's in-stack marginal stays in the ledger table; the
		// layer metric is the standalone decode cost below.
		if row.Layer != "wire" {
			set(row.Layer+".ns_per_key", row.Marginal[0])
		}
	}
	set("server.ns_per_key_p2", led.Stack[len(led.Stack)-1].Marginal[1])
	set("frontend.sharded_mpps_p1", led.ShardedMpps[0])
	set("frontend.sharded_mpps_p2", led.ShardedMpps[1])
	set("frontend.scaling_p2", led.ScalingP2)
	set("wire.encode_ns_per_key", led.EncodeNsPerKey)
	set("wire.decode_ns_per_key", led.DecodeNsPerKey)
	set("wire.decode_ns_per_frame", led.DecodeNsPerFrame)
	set("wire.bytes_per_key", led.BytesPerKey)
	send := spans["client.send"]
	set("client.send_p50_us", send.P50US)
	set("client.send_p99_us", send.P99US)
	set("client.cpu_ns_per_rec", m.clientCPU*1e9/float64(m.bulkRecords))
	set("client.resent_frames", float64(m.resent))
	set("server.unclean_exits", float64(base.uncleanHKD+m.uncleanHKD))
	set("snapshot.restore_s", m.restoreSecs)
	set("gen.late_p99_ms", quantile(m.late, 0.99))
	set("trace.overhead_pct", (1-m.scaledMpps(w)/base.scaledMpps(w))*100)
	set("host.gauge_ns_per_rec", m.gauge)
	set("host.steal", m.steal)
	return out
}

// resultValue and resultLine are the one-line result's shape.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

func result(r *runReport) resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for k, v := range r.Metrics {
		out.Metrics[k] = resultValue{v.Value, v.Unit}
	}
	return out
}
