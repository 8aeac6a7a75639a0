package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestQuick runs every workload at -quick scale and one workload traced,
// and requires every metric BENCHMARK.json declares to be reported with
// its unit and every correctness check to pass.
func TestQuick(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(body, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, run %q", i, w.Name, workloads[i].name)
		}
	}

	work := t.TempDir()
	bins, err := buildBinaries(root, filepath.Join(work, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, seconds: 0.5, quick: true, work: work}
	for _, w := range workloads {
		rep, err := runWorkload(bins, w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		requireReport(t, rep, decl.EndToEnd)
	}

	cfg.trace = true
	w, err := findWorkload("mice-b1024")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(bins, w, cfg)
	if err != nil {
		t.Fatalf("%s traced: %v", w.name, err)
	}
	requireReport(t, rep, decl.PerLayer)
	if _, err := os.Stat(filepath.Join(work, "spans-mice-b1024.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

func requireReport(t *testing.T, rep *runReport, want []declaredMetric) {
	t.Helper()
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("%s (trace %v): check %q failed: %s", rep.Workload, rep.Trace, c.Name, c.Detail)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s (trace %v): %d metrics reported, %d declared", rep.Workload, rep.Trace, len(rep.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s (trace %v): metric %s missing", rep.Workload, rep.Trace, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s (trace %v): metric %s in %q, declared %q", rep.Workload, rep.Trace, d.Name, v.Unit, d.Unit)
		}
	}
	if rep.Attempted == 0 || rep.Failed != 0 {
		t.Errorf("%s (trace %v): %d of %d operations failed: %v", rep.Workload, rep.Trace, rep.Failed, rep.Attempted, rep.Failures)
	}
}
